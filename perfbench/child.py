"""Run one ``fraclab`` CLI invocation and record where its time went.

    python3 perfbench/child.py RECORD [--trace] -- <fraclab CLI arguments>

Calls ``fraclab.cli.main`` with the given arguments, exactly as the
``fraclab`` console script does, and exits with its return code.  Before
that it writes RECORD, a JSON object with:

- ``import_s``: time to import ``fraclab.cli`` (numpy and scipy included);
- ``setup_s``: ``import_s`` plus the time from entering ``main`` until the
  last of ``load_config`` / ``build_scenario`` returns;
- ``run_s``: the rest of ``main``: the subcommand and its output writes;
- ``blas_threads``: the thread pins seen in the environment;
- ``spans``: with ``--trace``, one span per call of each traced layer
  function (see tracing.py); empty otherwise.

The parent process sets the BLAS thread pins in the environment, so they
are in force before numpy loads.
"""

import json
import os
import sys
from time import perf_counter


def main(argv):
    sep = argv.index("--")
    record_path, flags, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    trace = "--trace" in flags

    t_import = perf_counter()
    import fraclab.cli as cli
    import_s = perf_counter() - t_import

    spans = []
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        spans = tracer.spans

    setup_end = [None]

    def mark_setup_end(fn):
        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            setup_end[0] = perf_counter()
            return result
        return marked

    # the call-site bindings main() uses; wraps the traced wrappers, if any
    cli.load_config = mark_setup_end(cli.load_config)
    cli.build_scenario = mark_setup_end(cli.build_scenario)

    t_main = perf_counter()
    rc = cli.main(cli_args)
    t_end = perf_counter()
    setup_done = setup_end[0] if setup_end[0] is not None else t_end
    record = {
        "rc": rc,
        "import_s": import_s,
        "setup_s": import_s + (setup_done - t_main),
        "run_s": t_end - setup_done,
        "blas_threads": {k: v for k, v in os.environ.items()
                         if k.endswith("_NUM_THREADS")},
        "spans": spans,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
