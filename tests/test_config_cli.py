import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

import fraclab as fl
from fraclab.cli import main
from fraclab.errors import ConfigError
from fraclab.forward import _gap_certified, system_matrix
from fraclab.certificate import CERT_INPUTS

import cli_cases
from conftest import CONFIGS, write_config


def test_parse_s1_config():
    cfg = fl.load_config(CONFIGS / "s1_forward.cfg")
    assert cfg["geometry.omega"] == (-1.0, 1.0)
    assert cfg["grid.n_super"] == 4096
    assert cfg["f.center"] == 2.5
    assert len(cfg.content_hash) == 16


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        fl.parse_config_text("geometry.omega = -1, 1\nbogus.key = 3\n")


@pytest.mark.parametrize("line", [
    "recon.strategy = fixed", "recon.lambda = 1e-10", "output.dir = out",
    "sweep.t_min = 0.1", "sweep.t_max = 1", "sweep.n_points = 5",
    "sweep.mode = noise", "sweep.t_values = 0.1", "noise.seed = -1"])
def test_unread_keys_rejected(tmp_path, line):
    key = line.split(" =")[0]
    bad = write_config(tmp_path / "bad.cfg", "certify_example.cfg",
                       append=line + "\n")
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        fl.load_config(bad)
    assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_missing_required_key():
    with pytest.raises(ConfigError):
        fl.parse_config_text("geometry.omega = -1, 1\n")


def test_malformed_line():
    with pytest.raises(ConfigError):
        fl.parse_config_text("geometry.omega synergy\n")


def test_build_scenario_requires_f():
    cfg = fl.parse_config_text(
        "geometry.omega = -1, 1\ngeometry.w = 2, 3\ngeometry.s = 0.5\n")
    with pytest.raises(ConfigError):
        fl.build_scenario(cfg)


def test_bump_must_fit_support():
    cfg = fl.parse_config_text("""
geometry.omega = -1, 1
geometry.w = 2, 3
geometry.s = 0.5
f.center = 2.9
f.width = 0.4
f.amplitude = 1
""")
    with pytest.raises(ConfigError):
        fl.build_scenario(cfg)


@pytest.mark.parametrize("line, flags", [
    ("f.width = 0", []), ("q1.width = -0.5", []), ("q2.width = 0", []),
    ("noise.epsilon = -0.5", []), ("noise.epsilon = nan", []),
    ("sweep.epsilons = 1e-3, -1e-4", []), ("seed = -1", []),
    ("recon.theta = nan", []), ("recon.theta = -1", []),
    ("noise.epsilon = 1e-3", ["--seed", "-1"]),
    ("extension.n_levels = 0", []), ("f.smoothness = -1", []),
    ("q1.smoothness = -1", []), ("q2.smoothness = -1", []),
    ("recon.theta = 1.5", []), ("seed = 0", ["--resolution", "3"]),
    ("seed = 0", ["--resolution", "0"]), ("grid.L = 0", [])])
def test_out_of_range_values_exit_2(tmp_path, capsys, line, flags):
    cfg = tmp_path / "bad.cfg"
    try:
        write_config(cfg, "s1_forward.cfg", line)
    except ValueError:   # s1_forward.cfg has no line of this key
        write_config(cfg, "s1_forward.cfg", append=line + "\n")
    if not flags:
        with pytest.raises(ConfigError):
            fl.load_config(cfg)
    assert main(["forward", "--config", str(cfg), "--out", str(tmp_path)]
                + flags) == 2
    err = capsys.readouterr().err
    assert err.count("ConfigError") == 1
    assert (flags[0] if flags else line.split(" =")[0]) in err


@pytest.mark.parametrize("command, line", [
    ("ucp-scan", "scan.x0 = 5"), ("ucp-scan", "scan.x0 = 0.95"),
    ("ucp-scan", "scan.r_max = 0.5"), ("ucp-scan", "scan.r_max = 0.3"),
    ("stability", "scan.x0 = 3"), ("stability", "scan.x0 = 1.0")])
def test_out_of_range_scan_keys_exit_2(tmp_path, capsys, command, line):
    # a centre outside the open omega or a radius above the bulk scan's
    # r0 = dist(x0, boundary)/10 is a config error that names the key
    name = {"ucp-scan": "s1_ucp_scan.cfg", "stability": "s1_stability.cfg"}
    cfg = write_config(tmp_path / "bad.cfg", name[command], line)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and err.count("Error") == 1
    assert line.split(" =")[0] in err


@pytest.mark.parametrize("line, command", [
    ("recon.theta = 0", "stability"), ("recon.theta = 1", "stability"),
    ("q1.amplitude = 0", "forward")])
def test_boundary_values_run(tmp_path, line, command):
    name = {"forward": "s1_forward.cfg", "stability": "s1_stability.cfg"}
    cfg = write_config(tmp_path / "edge.cfg", name[command], line)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("line", [
    "f.smoothness = 1", "q1.smoothness = 1", "q2.smoothness = 1"])
def test_removed_keys_are_unknown(tmp_path, capsys, line):
    # the bump sharpness is fixed: it is not a key, even at the value
    # every run uses
    cfg = write_config(tmp_path / "removed.cfg", "s1_ucp_scan.cfg",
                       append=line + "\n")
    assert main(["ucp-scan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and "unknown key" in err
    assert repr(line.split(" =")[0]) in err


@pytest.mark.parametrize("key", ["f.center", "q2.center"])
def test_nan_bump_centre_exits_2(tmp_path, capsys, key):
    # a NaN centre is a config error that names its key, not a zero
    # potential, a runtime error or an error about f's values
    cfg = write_config(tmp_path / "nan.cfg", "s1_stability.cfg",
                       f"{key} = nan")
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and err.count("Error") == 1
    assert repr(key) in err
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", [n for n in CERT_INPUTS if n != "epsilon"])
def test_certify_rejects_non_finite_constants(tmp_path, capsys, name, value):
    # a non-finite constant is a config error, never a nan or inf bound,
    # an ignored r0 or a traceback from the arithmetic
    cfg = write_config(tmp_path / "bad.cfg", "certify_example.cfg",
                       f"cert.{name} = {value}")
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and "Traceback" not in err
    assert repr(f"cert.{name}") in err
    assert not (tmp_path / "certificate.txt").exists()


def test_cmd_forward_files(tmp_path, s1):
    assert main(["forward", "--config", str(CONFIGS / "s1_forward.cfg"),
                 "--out", str(tmp_path)]) == 0
    for name in ("u.csv", "measurement.csv", "apriori_report.txt"):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "measurement.csv").read_text().splitlines()
    geom, _ = s1
    n_w = int(np.count_nonzero(fl.support_mask(geom, "w")))
    assert len(lines) == 3 + n_w   # hash comment, header keys, column row


def test_cmd_forward_overlap_exit_2(tmp_path, capsys):
    bad = write_config(tmp_path / "bad.cfg", "s1_forward.cfg",
                       "geometry.w = 0.5, 2")
    assert main(["forward", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "OverlapError" in err
    assert err.count("OverlapError") == 1


def test_cmd_forward_missing_config_exit_2(tmp_path):
    assert main(["forward", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == 2


def test_cmd_forward_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["forward", "--config", str(CONFIGS / "s1_forward.cfg"),
                     "--out", str(out), "--seed", "3"]) == 0
    for name in ("u.csv", "measurement.csv", "apriori_report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cmd_forward_noisy(tmp_path):
    # no shipped config draws noise: switch it on and fix the seed
    cfg = write_config(tmp_path / "noisy.cfg", "s1_forward.cfg",
                       "noise.epsilon = 1e-3")
    clean, noisy = tmp_path / "clean", tmp_path / "noisy"
    assert main(["forward", "--config", str(CONFIGS / "s1_forward.cfg"),
                 "--out", str(clean)]) == 0
    assert main(["forward", "--config", str(cfg), "--out", str(noisy),
                 "--seed", "7"]) == 0
    lines = (noisy / "measurement.csv").read_text().splitlines()
    assert lines[1] == "# s=0.5 epsilon=0.001 seed=7"
    ref = (clean / "measurement.csv").read_text().splitlines()
    assert ref[1] == "# s=0.5 epsilon=0 seed="
    lam = [float(ln.split(",")[1]) for ln in lines[3:]]
    lam_ref = [float(ln.split(",")[1]) for ln in ref[3:]]
    assert len(lam) == len(lam_ref) and lam != lam_ref
    # the config's seed key draws the same noise as --seed
    keyed = write_config(tmp_path / "keyed.cfg", "s1_forward.cfg",
                         "noise.epsilon = 1e-3", "seed = 7")
    assert main(["forward", "--config", str(keyed),
                 "--out", str(tmp_path / "keyed")]) == 0
    assert (tmp_path / "keyed" / "measurement.csv").read_text() \
        .splitlines()[1:] == lines[1:]


def test_cmd_ucp_scan_files(tmp_path):
    assert main(["ucp-scan", "--config", str(CONFIGS / "s1_ucp_scan.cfg"),
                 "--out", str(tmp_path)]) == 0
    for name in ("doubling_bulk.csv", "doubling_boundary.csv",
                 "lemma_checks.csv", "carleman.csv"):
        assert (tmp_path / name).exists()
    boundary = (tmp_path / "doubling_boundary.csv").read_text()
    assert "beta_hat" in boundary
    carleman = (tmp_path / "carleman.csv").read_text().splitlines()
    summary = carleman[-1]
    assert "gap_min" in summary
    gap_min = float(summary.split("gap_min\": ")[1].split(",")[0])
    gap_max = float(summary.split("gap_max\": ")[1].split("}")[0])
    assert 1.25 <= gap_min <= gap_max <= 1.65


def test_cmd_ucp_scan_missing_block_exit_2(tmp_path):
    assert main(["ucp-scan", "--config", str(CONFIGS / "s1_forward.cfg"),
                 "--out", str(tmp_path)]) == 2


def test_cmd_stability_files(tmp_path):
    assert main(["stability", "--config", str(CONFIGS / "sweep_benchmark.cfg"),
                 "--out", str(tmp_path)]) == 0
    fit = (tmp_path / "fit.txt").read_text()
    assert "gamma_hat=" in fit
    gamma = float([ln for ln in fit.splitlines()
                   if ln.startswith("gamma_hat=")][0].split("=")[1])
    assert gamma > 0
    curve = (tmp_path / "curve.csv").read_text().splitlines()
    assert curve[1] == "t,error,model_value"
    assert len(curve) == 2 + 7
    assert (tmp_path / "certificate.txt").exists()


def test_curve_model_value_is_the_fit(tmp_path):
    # model_value is the fitted modulus, so its sup log deviation from the
    # errors is the fit residual that fit.txt reports
    assert main(["stability", "--config", str(CONFIGS / "s1_stability.cfg"),
                 "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "curve.csv", delimiter=",", skiprows=2)
    fit = dict(ln.split("=", 1) for ln in
               (tmp_path / "fit.txt").read_text().splitlines()[1:])
    assert np.all(np.isfinite(rows)) and len(rows) == 7
    sup = np.max(np.abs(np.log(rows[:, 1]) - np.log(rows[:, 2])))
    assert sup == pytest.approx(float(fit["fit_residual"]), rel=1e-9)


def test_cmd_stability_empty_sweep_exit_2(tmp_path, capsys):
    # s1_forward.cfg has no noise ladder
    rc = main(["stability", "--config", str(CONFIGS / "s1_forward.cfg"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "sweep.epsilons" in capsys.readouterr().err


def test_cmd_stability_repeated_noise_level_fits_nothing(tmp_path):
    # two copies of one level are one sample: neither the modulus nor the
    # smallness constants can be fitted, so nothing is certified
    cfg = write_config(tmp_path / "repeated.cfg", "s1_stability.cfg",
                       "sweep.epsilons = 1e-3, 1e-3")
    rc = main(["stability", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    fit = (tmp_path / "fit.txt").read_text().splitlines()[1:]
    assert fit == ["mode=noise_sweep",
                   "fit_skipped=fit skipped: fewer than two usable points"]
    cert = (tmp_path / "certificate.txt").read_text().splitlines()[1:]
    assert cert == ["note=smallness fit failed: too few usable sweep points"]
    rows = (tmp_path / "curve.csv").read_text().splitlines()[2:]
    assert len(rows) == 2 and rows[0] == rows[1] and rows[0].endswith(",")


@pytest.mark.parametrize("levels", ["5e-2, 1e-2", "1e-1, 5e-2, 2e-2, 1e-2, 1e-3"])
def test_cmd_stability_nonpositive_fit_certifies_nothing(tmp_path, levels):
    # on these noisy ladders the q and u errors fall as eps grows, so both
    # fitted exponents are negative: the run writes its curve and fit and
    # a note in place of a certificate
    cfg = write_config(tmp_path / "noisy.cfg", "s1_stability.cfg",
                       f"sweep.epsilons = {levels}")
    rc = main(["stability", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    fit = dict(line.split("=", 1) for line in
               (tmp_path / "fit.txt").read_text().splitlines()[1:])
    assert float(fit["gamma_hat"]) < 0
    (note,) = (tmp_path / "certificate.txt").read_text().splitlines()[1:]
    assert re.fullmatch(r"note=fitted gamma_hat = -[\d.]+ and mu = -[\d.]+: "
                        r"not positive", note), note
    rows = (tmp_path / "curve.csv").read_text().splitlines()[2:]
    assert len(rows) == len(levels.split(","))


@pytest.mark.parametrize("command, config, calls", [
    ("stability", "s1_stability.cfg", 0), ("ucp-scan", "s1_ucp_scan.cfg", 0),
    ("forward", "s1_forward.cfg", 1)])
def test_exact_eigen_gap_only_where_reported(tmp_path, monkeypatch, command,
                                             config, calls):
    # the solves certify their gap by Gershgorin discs; only the forward
    # report computes the exact gap, once
    import fraclab.experiments
    import fraclab.forward
    real, counted = fraclab.forward.eigen_gap, []

    def counting(M):
        counted.append(M.shape)
        return real(M)

    for mod in (fraclab.forward, fraclab.experiments):
        monkeypatch.setattr(mod, "eigen_gap", counting)
    rc = main([command, "--config", str(CONFIGS / config),
               "--out", str(tmp_path)])
    assert rc == 0 and len(counted) == calls


@pytest.mark.parametrize("resolution", [1, 4])
@pytest.mark.parametrize("config", [
    "s1_forward.cfg", "s1_ucp_scan.cfg", "s1_stability.cfg",
    "sweep_benchmark.cfg"])
def test_shipped_systems_certified_without_eigen_gap(config, resolution):
    # every forward solve a shipped config makes passes the disc test, so
    # none falls back to the exact eigen_gap
    sc = fl.build_scenario(fl.load_config(CONFIGS / config), resolution)
    for q in (sc.q1, sc.q2):
        assert _gap_certified(system_matrix(sc.op, q))


def test_cmd_stability_identical_potentials_notice(tmp_path):
    cfg = write_config(tmp_path / "same.cfg", "s1_stability.cfg",
                       "q2.amplitude = 0.4", "sweep.epsilons = 1e-3, 1e-5")
    rc = main(["stability", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    fit = (tmp_path / "fit.txt").read_text()
    assert "fit_skipped" in fit
    cert = (tmp_path / "certificate.txt").read_text()
    assert "note=identical measurements" in cert
    rows = [ln for ln in (tmp_path / "curve.csv").read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("t,")]
    assert len(rows) == 2
    # no model without a fit: model_value is empty, never nan
    fields = [v.strip().lower() for row in rows for v in row.split(",")]
    assert not [v for v in fields if v.lstrip("+-") in ("nan", "inf")]
    assert all(row.endswith(",") for row in rows)


def test_cmd_certify(tmp_path):
    assert main(["certify", "--config", str(CONFIGS / "certify_example.cfg"),
                 "--out", str(tmp_path)]) == 0
    text = (tmp_path / "certificate.txt").read_text()
    r_opt = float([ln for ln in text.splitlines()
                   if ln.startswith("r_opt=")][0].split("=")[1])
    bound = float([ln for ln in text.splitlines()
                   if ln.startswith("bound=")][0].split("=")[1])
    assert r_opt == pytest.approx(0.1, abs=1e-10)
    assert bound == pytest.approx(np.sqrt(0.2), abs=1e-10)


def test_certificate_fields_are_the_file_keys(tmp_path):
    assert main(["certify", "--config", str(CONFIGS / "certify_example.cfg"),
                 "--out", str(tmp_path)]) == 0
    keys = [ln.split("=")[0] for ln in
            (tmp_path / "certificate.txt").read_text().splitlines()[1:]]
    assert keys == [f.name for f in dataclasses.fields(fl.StabilityCertificate)]


def test_lemma_check_fields_are_the_csv_columns(tmp_path):
    assert main(["ucp-scan", "--config", str(CONFIGS / "s1_ucp_scan.cfg"),
                 "--out", str(tmp_path)]) == 0
    header = (tmp_path / "lemma_checks.csv").read_text().splitlines()[1]
    assert header.split(",") == [f.name for f in
                                 dataclasses.fields(fl.LemmaCheck)]


def test_certify_inputs_are_the_cert_keys(tmp_path, capsys):
    params = inspect.signature(fl.certify_bound).parameters
    assert tuple(params) == CERT_INPUTS
    cfg = tmp_path / "partial.cfg"
    cfg.write_text("".join(
        ln + "\n" for ln in
        (CONFIGS / "certify_example.cfg").read_text().splitlines()
        if not ln.startswith(("cert.mu", "cert.r0"))))
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        "ConfigError: certify needs keys: cert.mu, cert.r0\n"


def test_cmd_certify_bad_epsilon_exit_2(tmp_path):
    bad = write_config(tmp_path / "bad.cfg", "certify_example.cfg",
                       "cert.epsilon = 0.7")
    assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_every_csv_carries_config_hash(tmp_path):
    # every file of every command opens with the one header line, and a
    # summary line, where there is one, is JSON with the keys that
    # perfbench/check.py reads
    doubling = {"mode", "beta_hat", "c_hat", "fit_residual", "r0"}
    summaries = {"doubling_bulk.csv": doubling,
                 "doubling_boundary.csv": doubling,
                 "carleman.csv": {"gap_min", "gap_max"}}
    for command, config in (("forward", "s1_forward.cfg"),
                            ("ucp-scan", "s1_ucp_scan.cfg"),
                            ("stability", "s1_stability.cfg"),
                            ("certify", "certify_example.cfg")):
        out = tmp_path / command
        assert main([command, "--config", str(CONFIGS / config),
                     "--out", str(out)]) == 0
        cfg = fl.load_config(CONFIGS / config)
        assert sorted(p.name for p in out.iterdir()) == \
            sorted(cli_cases.WRITES[command])
        for name in cli_cases.WRITES[command]:
            lines = (out / name).read_text().splitlines()
            assert lines[0] == (f"# config_hash={cfg.content_hash} "
                                f"version={fl.__version__}")
            found = [ln for ln in lines if ln.startswith("# summary: ")]
            if name in summaries:
                assert found == [lines[-1]]
                summary = json.loads(found[0][len("# summary: "):])
                assert set(summary) == summaries[name]
                if "mode" in summary:
                    assert name == f"doubling_{summary['mode']}.csv"
            else:
                assert found == []


def test_ucp_scan_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["ucp-scan", "--config", str(CONFIGS / "s1_ucp_scan.cfg"),
                     "--out", str(out)]) == 0
    for name in ("doubling_bulk.csv", "doubling_boundary.csv",
                 "lemma_checks.csv", "carleman.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_stability_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["stability", "--config",
                     str(CONFIGS / "sweep_benchmark.cfg"), "--out", str(out),
                     "--seed", "11"]) == 0
    for name in ("curve.csv", "fit.txt", "certificate.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_defaulted_keys_may_be_omitted(tmp_path):
    # every key with an entry in config._DEFAULTS is left out, so a driver
    # that reads a key with cfg[...] but no default fails here; the sweep
    # scores a relative q error, so stability sets q2.amplitude as well
    minimal = """
geometry.omega = -1, 1
geometry.w = 2, 3
geometry.s = 0.5
f.center = 2.5
f.width = 0.4
scan.r_min = 0.02
scan.r_max = 0.099
sweep.epsilons = 1e-3, 1e-5
"""
    q2 = "q2.center = 0\nq2.width = 0.5\nq2.amplitude = 0.5\n"
    for cmd, text in (("ucp-scan", minimal), ("stability", minimal + q2)):
        cfg = tmp_path / f"{cmd}.cfg"
        cfg.write_text(text)
        out = tmp_path / cmd
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
