import numpy as np
import pytest

import fraclab as fl
from fraclab.certificate import CERT_INPUTS
from fraclab.diagnostics import fit_loglog
from fraclab.errors import AllExcludedError, DomainError, ZeroDataError
from fraclab.experiments import NOTHING_TO_CERTIFY
from fraclab.fracop import symmetric_toeplitz
from fraclab import experiments, reconstruction
from fraclab.cli import main
from fraclab.reconstruction import _continuation, hs_gram_row

from conftest import CONFIGS, scenario, write_config


def _holder(op, sol):
    """The a priori bound E of the potential that sol was solved for."""
    return fl.holder_norm(op.geom, sol.q.values)


@pytest.fixture(scope="module")
def s1_bump_problem(s1_op, s1_f, s1_qbump):
    sol = fl.solve_forward(s1_op, s1_qbump, s1_f)
    lam = fl.dtn_map(s1_op, sol)
    return sol, lam


def test_gram_row_matches_sobolev_norm(s1):
    # v^T G v equals the squared surrogate norm of the zero extension
    geom, spec = s1
    rng = np.random.default_rng(8)
    row = hs_gram_row(spec, geom.s)
    omega_idx = np.nonzero(fl.support_mask(geom, "omega"))[0]
    G = row[np.abs(omega_idx[:, None] - omega_idx[None, :])]
    vals = np.zeros(spec.n_super)
    vals[omega_idx] = rng.standard_normal(len(omega_idx))
    g = fl.make_grid_function(geom, vals, "omega")
    direct = fl.sobolev_norm(g, geom.s) ** 2
    quad = vals[omega_idx] @ G @ vals[omega_idx]
    assert quad == pytest.approx(direct, rel=1e-10)


def test_recover_u_zero_data(s1, s1_op, s1_q0):
    geom, spec = s1
    zero = fl.make_grid_function(geom, np.zeros(spec.n_super), "w")
    rec = fl.recover_u(s1_op, zero, zero, strategy=("fixed", 1e-10))
    assert np.all(rec.u_rec.values == 0.0)


def test_recover_u_exact_data(s1_op, s1_f, s1_bump_problem, golden):
    sol, lam = s1_bump_problem
    rec = fl.recover_u(s1_op, s1_f, lam, strategy=("fixed", 1e-14))
    om = s1_op.geom.omega_nodes
    err = (np.linalg.norm((rec.u_rec.values - sol.u.values)[om])
           / np.linalg.norm(sol.u.values[om]))
    assert err < 0.3
    assert err == pytest.approx(golden["recover_u_exact_rel_error"], rel=0.2)


def test_recover_u_window_values_kept(s1, s1_op, s1_f, s1_bump_problem):
    geom, spec = s1
    _, lam = s1_bump_problem
    rec = fl.recover_u(s1_op, s1_f, lam, strategy=("fixed", 1e-12))
    wmask = fl.support_mask(geom, "w")
    assert np.array_equal(rec.u_rec.values[wmask], s1_f.values[wmask])


def test_recover_u_discrepancy_bracket(s1, s1_op, s1_f, s1_bump_problem):
    geom, spec = s1
    sol, lam = s1_bump_problem
    (noisy,) = fl.add_noise(geom, lam, [1e-4], seed=3)
    w_idx = np.nonzero(fl.support_mask(geom, "w"))[0]
    delta = float(np.sqrt(spec.h) * np.linalg.norm(
        (noisy.values - lam.values)[w_idx]))
    rec = fl.recover_u(s1_op, s1_f, noisy,
                       strategy=("discrepancy", delta))
    assert delta <= rec.discrepancy <= 2 * delta


def test_recover_u_discrepancy_unreachable(s1_op, s1_f, s1_bump_problem):
    # out of reach, lambda is the end of [1e-16, 1] nearer the bracket
    _, lam = s1_bump_problem
    for delta, end in ((1e9, 1.0), (0.0, 10.0 ** -16)):
        rec = fl.recover_u(s1_op, s1_f, lam, strategy=("discrepancy", delta))
        assert rec.reg_param == end
    for bad in (float("nan"), -1.0):
        with pytest.raises(ValueError):
            fl.recover_u(s1_op, s1_f, lam, strategy=("discrepancy", bad))


def test_recover_u_overflowing_data_raises(s1, s1_op, s1_f,
                                           s1_bump_problem):
    # at a scale of 1e160 the squared window residual overflows, and no
    # lambda can be chosen or scored: an error in either mode, never nan
    geom, spec = s1
    _, lam = s1_bump_problem
    f, lam = (fl.GridFunction(spec=spec, values=1e160 * g.values)
              for g in (s1_f, lam))
    with pytest.raises(DomainError, match="overflows"):
        fl.recover_u(s1_op, f, lam, strategy=("fixed", 1e-8))


def test_recover_u_error_monotone_in_noise(s1_op, s1_f, s1_qbump, s1_q0):
    sol = fl.solve_forward(s1_op, s1_qbump, s1_f)
    curve = fl.noise_sweep(s1_op, sol, fl.dtn_map(s1_op, sol),
                           (1e-2, 1e-4, 1e-8), threshold=1e-3,
                           holder_bound=_holder(s1_op, sol), seed=1234)
    # errors listed by increasing noise; must not decrease (10% slack)
    e = curve.errors
    assert e[1] >= e[0] * 0.9 and e[2] >= e[1] * 0.9


@pytest.mark.parametrize("lam", [1e-6, 1e-10])
def test_recover_u_normal_equations(s1, s1_op, s1_f, s1_bump_problem, lam):
    # reference: (h M^T M + lam G) v = h M^T b solved directly
    geom, spec = s1
    _, meas = s1_bump_problem
    op, h = s1_op, spec.h
    M = op.block(geom.w_nodes, geom.omega_nodes) / h
    A_ww = op.block(geom.w_nodes, geom.w_nodes) / h
    w_idx = np.nonzero(fl.support_mask(geom, "w"))[0]
    omega_idx = np.nonzero(fl.support_mask(geom, "omega"))[0]
    b = meas.values[w_idx] - A_ww @ s1_f.values[w_idx]
    G = hs_gram_row(spec, geom.s)[
        np.abs(omega_idx[:, None] - omega_idx[None, :])]
    # the system has condition ~2.5e7 at lam = 1e-10: one refinement step
    # with the residual in extended precision restores the digits a plain
    # float64 solve loses (5e-10 before, 6e-13 after)
    Ml, bl = M.astype(np.longdouble), b.astype(np.longdouble)
    K, rhs = h * Ml.T @ Ml + lam * G, h * Ml.T @ bl
    ref = np.linalg.solve(K.astype(float), rhs.astype(float))
    ref += np.linalg.solve(K.astype(float), (rhs - K @ ref).astype(float))
    rec = fl.recover_u(op, s1_f, meas, strategy=("fixed", lam))
    v = rec.u_rec.values[omega_idx]
    assert np.linalg.norm(v - ref) < 1e-9 * np.linalg.norm(ref)


def test_continuation_factors_identities(s1_op):
    # C^T G C = I and sqrt(h) M C = U diag(sv), with M = A_WO / h
    geom, op = s1_op.geom, s1_op
    U, sv, C = _continuation(op)
    G = symmetric_toeplitz(hs_gram_row(geom.spec, geom.s)[:C.shape[0]])
    M = op.block(geom.w_nodes, geom.omega_nodes) / geom.spec.h
    assert np.max(np.abs(C.T @ G @ C - np.eye(C.shape[1]))) < 1e-10
    assert np.max(np.abs(np.sqrt(geom.spec.h) * M @ C - U * sv)) < 1e-10


@pytest.fixture
def fresh_continuation():
    # factors computed under a patched constant must not outlive the test
    _continuation.cache_clear()
    yield
    _continuation.cache_clear()


@pytest.mark.parametrize("name, value", [("_SKETCH", 2), ("_TOL", 0.0)])
def test_continuation_sketch_doubles_to_the_same_recovery(
        monkeypatch, fresh_continuation, s1_op, s1_f, s1_bump_problem, name,
        value):
    # a sketch of width 2 fails its check and doubles; with no tolerance
    # it doubles until Q spans all n_W rows, where the factors are exact.
    # Either way recover_u gives the default factors' answer
    _, meas = s1_bump_problem
    strategies = (("fixed", 1e-10), ("fixed", 1e-6), ("discrepancy", 1e-9))
    ref = [fl.recover_u(s1_op, s1_f, meas, strategy=st).u_rec.values
           for st in strategies]
    _continuation.cache_clear()
    monkeypatch.setattr(reconstruction, name, value)
    U, sv, C = _continuation(s1_op)
    w = s1_op.geom.w_nodes
    if name == "_SKETCH":
        assert len(sv) > 2
    else:
        assert U.shape == (w.stop - w.start, w.stop - w.start)
    assert C.shape[1] == len(sv)
    for st, r in zip(strategies, ref):
        got = fl.recover_u(s1_op, s1_f, meas, strategy=st).u_rec.values
        assert np.max(np.abs(got - r)) <= 1e-10 * np.max(np.abs(r))


def test_continuation_is_deterministic(fresh_continuation, s1_op):
    # the sketch draws from a fixed stream of its own: two fresh
    # factorizations agree bit for bit, and numpy's global state is as
    # it was
    before = np.random.get_state()
    first = _continuation(s1_op)
    _continuation.cache_clear()
    second = _continuation(s1_op)
    after = np.random.get_state()
    assert before[0] == after[0] and before[2:] == after[2:]
    assert np.array_equal(before[1], after[1])
    for a, b in zip(first, second):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not a.flags.writeable


def test_recover_u_cache_keyed_by_operator(s1_op, s1_f, s1_bump_problem,
                                           s1_r2_scenario):
    # alternating operators never reuse the other's factorization
    _, meas = s1_bump_problem
    op2, f2 = s1_r2_scenario.op, s1_r2_scenario.f
    meas2 = fl.dtn_map(op2, fl.solve_forward(op2, s1_r2_scenario.q1, f2))
    cases = [(s1_op, s1_f, meas), (op2, f2, meas2)]
    for args in cases + cases:
        u = fl.recover_u(*args, strategy=("fixed", 1e-10)).u_rec.values
        _continuation.cache_clear()
        fresh = fl.recover_u(*args, strategy=("fixed", 1e-10)).u_rec.values
        assert np.array_equal(u, fresh)


def test_recover_q_round_trip(s1_op, s1_qbump, s1_bump_problem):
    sol, _ = s1_bump_problem
    rec = fl.recover_q(s1_op, sol.u, 1e-6, _holder(s1_op, sol))
    prime, q = s1_op.geom.prime_nodes, s1_qbump.values
    kept = ~np.isin(np.arange(prime.start, prime.stop), rec.excluded)
    dev = (rec.q_rec.values - q)[prime][kept]
    assert np.max(np.abs(dev)) / np.max(np.abs(q)) < 0.05


def test_recover_q_guard_on_sign_change(s1, s1_op, s1_qbump):
    geom, spec = s1
    x = spec.nodes()
    vals = np.where(fl.support_mask(geom, "omega_w"), np.sin(3 * x), 0.0)
    u = fl.make_grid_function(geom, vals, "omega_w")
    E = fl.holder_norm(geom, s1_qbump.values)
    rec = fl.recover_q(s1_op, u, 0.05, E)
    cap = 10.0 * E
    assert np.all(np.abs(rec.q_rec.values) <= cap)
    assert np.all(np.isfinite(rec.q_rec.values))
    assert len(rec.excluded) > 0
    # the zero crossing of sin(3x) at the origin sits in the excluded set
    crossing = x[rec.excluded]
    assert np.any(np.abs(crossing) < 0.05)


def test_recover_q_all_excluded(s1, s1_op, s1_qbump):
    geom, spec = s1
    u = fl.make_grid_function(geom, np.zeros(spec.n_super), "omega_w")
    with pytest.raises(AllExcludedError):
        fl.recover_q(s1_op, u, 1e-3, 1.0)


def test_recover_q_zero_outside_support(s1, s1_op, s1_qbump, s1_bump_problem):
    geom, spec = s1
    sol, _ = s1_bump_problem
    rec = fl.recover_q(s1_op, sol.u, 1e-6, _holder(s1_op, sol))
    outside = ~fl.support_mask(geom, "omega_prime")
    assert np.all(rec.q_rec.values[outside] == 0.0)


def test_q_zero_reconstruction_floor(s1_op, s1_f, s1_q0, golden):
    sol = fl.solve_forward(s1_op, s1_q0, s1_f)
    lam = fl.dtn_map(s1_op, sol)
    rec = fl.recover_u(s1_op, s1_f, lam, strategy=("fixed", 1e-14))
    rec = fl.recover_q(s1_op, rec.u_rec, 1e-6, 1.0)
    floor = float(np.max(np.abs(rec.q_rec.values)))
    assert floor <= golden["q_zero_floor"] * 1.5


# ------------------------------------------------------------------ certificate

def test_certify_hand_example():
    cert = fl.certify_bound(E=1.0, alpha=0.5, beta=0.5,
                            c_low=1.0, c_stab=1.0, mu=1.0, e_tilde=1.0,
                            epsilon=np.exp(-10.0), r0=0.5)
    assert cert.r_opt == pytest.approx(0.1, abs=1e-10)
    assert cert.bound == pytest.approx(np.sqrt(0.2), abs=1e-10)


def test_certify_monotone_in_epsilon():
    bounds = [fl.certify_bound(1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, eps, 0.5).bound
              for eps in (1e-6, 1e-4, 1e-2, 0.4)]
    assert np.all(np.diff(bounds) > 0)


def test_certify_r0_clamp():
    # tiny Hoelder bound pushes the interior candidate beyond r0
    cert = fl.certify_bound(E=1e-8, alpha=0.5, beta=0.5,
                            c_low=1.0, c_stab=1.0, mu=1.0, e_tilde=1.0,
                            epsilon=1e-3, r0=0.5)
    assert cert.r_opt == 0.5


def test_certify_domain_errors():
    with pytest.raises(DomainError):
        fl.certify_bound(1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 0.6, 0.5)
    with pytest.raises(DomainError):
        fl.certify_bound(1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 0.2, 0.3, 0.5)
    with pytest.raises(DomainError):
        fl.certify_bound(-1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 0.1, 0.5)


def test_certify_rejects_non_finite_inputs():
    # end_to_end passes measured constants that no config parse has seen
    base = dict(E=1.0, alpha=0.5, beta=0.5, c_low=1.0,
                c_stab=1.0, mu=1.0, e_tilde=1.0, epsilon=1e-4, r0=0.5)
    for name in CERT_INPUTS:
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match=f"^{name} "):
                fl.certify_bound(**dict(base, **{name: bad}))


def test_certificate_directional_derivatives():
    # increasing E raises the bound; increasing c_low lowers it
    base = dict(E=1.0, alpha=0.5, beta=0.5, c_low=1.0,
                c_stab=1.0, mu=1.0, e_tilde=1.0, epsilon=1e-4, r0=0.5)
    b0 = fl.certify_bound(**base).bound
    up = dict(base, E=1.3)
    assert fl.certify_bound(**up).bound > b0
    dn = dict(base, c_low=2.0)
    assert fl.certify_bound(**dn).bound < b0


# ------------------------------------------------------------------- sweeps

def test_fit_log_modulus_recovers_planted_model():
    # synthetic data from the model itself round-trips the exponents
    t = np.geomspace(1e-8, 1e-2, 9)
    gamma, c = 1.7, 3.0
    err = c * np.abs(np.log(t)) ** (-gamma)
    g, ch, resid = fl.fit_log_modulus(t, err)
    assert g == pytest.approx(gamma, rel=1e-9)
    assert ch == pytest.approx(c, rel=1e-9)
    assert resid < 1e-9


def test_fit_log_modulus_needs_two_distinct_usable_points():
    # a repeated level is one point: lstsq would return its minimum-norm
    # answer and fit a modulus to nothing
    t, e = 1e-3, 0.2
    assert fl.fit_log_modulus([t, t], [e, e]) is None
    assert fl.fit_log_modulus([t, t, 1.0, 0.0], [e, e, e, e]) is None
    assert fl.fit_log_modulus([t, 1e-5], [e, 0.0]) is None
    assert fl.fit_log_modulus([t, 1e-5], [e, e]) is not None


def test_noise_sweep_ignores_ladder_order(s1_op, s1_bump_problem):
    # the ladder is sorted before the sweep, so every order of the same
    # levels gives the same samples, ascending in the noise level
    sol, lam = s1_bump_problem
    ladder = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    orders = [ladder, ladder[::-1], [1e-4, 1e-2, 1e-6, 1e-3, 1e-5]]
    curves = [fl.noise_sweep(s1_op, sol, lam, eps, threshold=1e-3,
                             holder_bound=_holder(s1_op, sol), seed=3)
              for eps in orders]
    for field in ("t_values", "errors", "u_errors_abs"):
        got = [getattr(c, field).tobytes() for c in curves]
        assert got[1:] == got[:1] * 2, field
    assert np.array_equal(curves[0].t_values, sorted(ladder))
    assert np.all(curves[0].errors > 0) and np.all(curves[0].u_errors_abs > 0)


def test_noise_sweep_solves_a_repeated_level_once(s1_op, s1_bump_problem,
                                                  monkeypatch):
    sol, lam = s1_bump_problem
    E = _holder(s1_op, sol)
    once = fl.noise_sweep(s1_op, sol, lam, [1e-3], threshold=1e-3,
                          holder_bound=E, seed=3)
    calls = []
    real = fl.recover_u
    monkeypatch.setattr("fraclab.reconstruction.recover_u",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    twice = fl.noise_sweep(s1_op, sol, lam, [1e-3, 1e-3], threshold=1e-3,
                           holder_bound=E, seed=3)
    assert len(calls) == 1
    assert twice.t_values.tolist() == [1e-3, 1e-3]
    for field in ("errors", "u_errors_abs"):
        assert getattr(twice, field).tobytes() == \
            np.repeat(getattr(once, field), 2).tobytes(), field


def test_noise_sweep_runs_one_recovery_per_level(s1_op, s1_bump_problem,
                                                monkeypatch):
    # each rung takes the discrepancy principle's lambda, with no second
    # solve; at eps = 10 the residual stays below delta up to lambda = 1
    sol, lam = s1_bump_problem
    strategies, lams, real = [], [], fl.recover_u

    def spy(*a, **k):
        strategies.append(k["strategy"])
        rec = real(*a, **k)
        lams.append(rec.reg_param)
        return rec

    monkeypatch.setattr("fraclab.reconstruction.recover_u", spy)
    fl.noise_sweep(s1_op, sol, lam, [1e-3, 10.0], threshold=1e-3,
                   holder_bound=_holder(s1_op, sol), seed=1234)
    assert [mode for mode, _ in strategies] == ["discrepancy"] * 2
    assert ("fixed", 1e-14) not in strategies
    assert 10.0 ** -16 < lams[0] < 1.0 and lams[1] == 1.0


def test_noise_sweep_draws_one_direction(s1, s1_op, s1_bump_problem,
                                         monkeypatch):
    # one generator per sweep; each level of the ladder is the copy that a
    # one-level call gives
    geom, _ = s1
    sol, lam = s1_bump_problem
    ladder = [1e-2, 0.0, 1e-4, 1e-3]
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: made.append(a) or real(*a))
    fl.noise_sweep(s1_op, sol, lam, ladder, threshold=1e-3,
                   holder_bound=_holder(s1_op, sol), seed=3)
    assert made == [(3,)]
    noisy = list(fl.add_noise(geom, lam, ladder, seed=3))
    assert noisy[1] is lam
    for eps, got in zip(ladder, noisy):
        (one,) = fl.add_noise(geom, lam, [eps], seed=3)
        assert got.values.tobytes() == one.values.tobytes()


def test_noise_sweep_scores_only_kept_nodes(s1, s1_op, s1_bump_problem):
    # at threshold 0.7 the guard excludes omega' nodes; the sweep's errors
    # are an oracle's, scored node by node from recover_u and recover_q
    geom, spec = s1
    sol, lam = s1_bump_problem
    ladder, theta = [1e-6, 1e-5], 0.7
    E = _holder(s1_op, sol)
    curve = fl.noise_sweep(s1_op, sol, lam, ladder, threshold=theta,
                           holder_bound=E, seed=3)
    q, u = sol.q.values, sol.u.values
    q_sup = np.max(np.abs(q))
    prime = range(geom.prime_nodes.start, geom.prime_nodes.stop)
    omega = range(geom.omega_nodes.start, geom.omega_nodes.stop)
    noisy = fl.add_noise(geom, lam, ladder, seed=3)
    for k, meas in enumerate(noisy):
        delta = np.sqrt(spec.h) * np.linalg.norm(
            (meas.values - lam.values)[geom.w_nodes])
        rec = fl.recover_u(s1_op, sol.f, meas, ("discrepancy", delta))
        pot = fl.recover_q(s1_op, rec.u_rec, theta, E)
        excluded = set(pot.excluded.tolist())
        kept = [i for i in prime if i not in excluded]
        assert 0 < len(kept) < len(prime)
        dev = {i: abs(pot.q_rec.values[i] - q[i]) / q_sup for i in prime}
        assert curve.errors[k] == pytest.approx(max(dev[i] for i in kept),
                                                rel=1e-12)
        # scoring the excluded nodes too would raise the error
        assert max(dev.values()) > 1.1 * curve.errors[k]
        u_l2 = np.sqrt(spec.h * sum((rec.u_rec.values[i] - u[i]) ** 2
                                    for i in omega))
        assert curve.u_errors_abs[k] == pytest.approx(u_l2, rel=1e-12)


def test_noise_sweep_undefined_errors_raise(s1_op, s1_f, s1_q0):
    # a relative error with sup |q| = 0, or over no kept omega' node, is
    # undefined: the sweep names it instead of recording 0
    sol0 = fl.solve_forward(s1_op, s1_q0, s1_f)
    with pytest.raises(ZeroDataError):
        fl.noise_sweep(s1_op, sol0, fl.dtn_map(s1_op, sol0), [1e-3],
                       threshold=1e-3, holder_bound=_holder(s1_op, sol0),
                       seed=3)
    # on sweep_benchmark.cfg at threshold 1 the one kept node, the
    # maximizer of |u_rec|, lies outside omega' at this noise draw
    sc = scenario("sweep_benchmark.cfg")
    sol = fl.solve_forward(sc.op, sc.q2, sc.f)
    with pytest.raises(AllExcludedError):
        fl.noise_sweep(sc.op, sol, fl.dtn_map(sc.op, sol), [1e-3],
                       threshold=1.0, holder_bound=_holder(sc.op, sol),
                       seed=1234)


def test_noise_sweep_benchmark(golden):
    # the stability run's sweep on the gentler benchmark scenario, locked
    # in the golden file
    rep = fl.end_to_end(scenario("sweep_benchmark.cfg"))
    curve = rep.curve
    assert np.allclose(curve.errors, golden["sweep_errors"], rtol=1e-8)
    gamma, _, resid = rep.fit
    assert gamma > 0
    assert resid < 0.2
    p = fit_loglog(curve.t_values, curve.errors)[0]
    assert p < 0.2
    # non-increasing in the noise level within 10% slack
    desc = curve.errors[::-1]
    assert np.all(desc[1:] <= desc[:-1] * 1.1)


def test_end_to_end_s1(golden):
    rep = fl.end_to_end(scenario("s1_stability.cfg"))
    assert rep.certificate is not None
    assert rep.certificate.bound >= rep.actual_sup_gap
    assert rep.certificate.bound == pytest.approx(golden["e2e_bound"], rel=0.1)
    assert rep.actual_sup_gap == pytest.approx(golden["e2e_actual"], rel=1e-6)


def test_end_to_end_shares_one_a_priori_bound(monkeypatch, tmp_path):
    # E bounds the class, so the sweep's cap on q_rec and the certificate
    # read one value; here q1 holds the larger Hoelder norm
    sc = scenario(write_config(tmp_path / "q1_larger.cfg", "s1_stability.cfg",
                               "q1.amplitude = 0.6"))
    assert (fl.holder_norm(sc.geom, sc.q1.values)
            > fl.holder_norm(sc.geom, sc.q2.values))
    seen, real = [], fl.noise_sweep
    monkeypatch.setattr(
        "fraclab.experiments.noise_sweep",
        lambda *a, **k: seen.append(k["holder_bound"]) or real(*a, **k))
    rep = fl.end_to_end(sc)
    assert rep.certificate is not None
    assert seen == [rep.certificate.E]


def test_end_to_end_identical_potentials(tmp_path):
    sc = scenario(write_config(tmp_path / "same.cfg", "s1_stability.cfg",
                               "q2.amplitude = 0.4",
                               "sweep.epsilons = 1e-3, 1e-5"))
    rep = fl.end_to_end(sc)
    assert rep.actual_sup_gap == 0.0
    assert rep.certificate is None
    assert "zero" in rep.note
    assert rep.fit is None
    assert rep.note == NOTHING_TO_CERTIFY


def test_end_to_end_gap_outside_the_certificate_domain(monkeypatch,
                                                      tmp_path):
    # e_tilde below twice the measured gap puts eps / e_tilde past 1/2:
    # no certificate, the DomainError in the note, and the CLI exits 0
    sc = scenario("s1_stability.cfg")
    gap = fl.end_to_end(sc).data_gap
    monkeypatch.setattr(experiments, "sobolev_norm", lambda gf, s: 0.4 * gap)
    rep = fl.end_to_end(sc)
    assert rep.certificate is None
    assert rep.note.startswith("outside the certificate's domain: "
                               "epsilon / e_tilde must lie below 1/2")
    assert rep.note.endswith("= 1.25")
    assert main(["stability", "--config", str(CONFIGS / "s1_stability.cfg"),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "certificate.txt").read_text().splitlines()
    assert lines[1:] == [f"note={rep.note}"]
