#!/usr/bin/env python3
"""Record the reference outputs that check.py compares every run against.

    python3 perfbench/record_reference.py

Runs each distinct invocation of the benchmark's workloads at seeds 0 and
1 and writes ``reference.json``: for each invocation the numeric values
that agree at both seeds (``seed_free``, checked at every seed) and the
remaining values at seed 0 (``at_seed``, checked only at seed 0).  Rerun
it only when a change to the program is meant to change its answers.
"""

import json
import sys
import tempfile
from pathlib import Path

import check
import run

SEEDS = (0, 1)

# roundoff-level values with their own bound in check.py, not answers
NOT_REFERENCED = {"report.residual"}


def main():
    invocations = {run.invocation_key(*inv): inv
                   for invs in run.WORKLOADS.values() for inv in invs}
    out = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for key, (command, config, res) in sorted(invocations.items()):
            values = []
            for seed in SEEDS:
                inv = run.run_invocation(Path(tmp), 0, command, config,
                                         res, seed, False)
                if inv["rc"] != 0:
                    sys.exit(f"{key} at seed {seed} exited {inv['rc']}")
                values.append({k: v for k, v in
                               check.read_outputs(command, inv["out"]).items()
                               if k not in NOT_REFERENCED})
            first, second = values
            seed_free = {k: v for k, v in first.items()
                         if isinstance(v, float) and second.get(k) == v}
            at_seed = {k: v for k, v in first.items() if k not in seed_free}
            out[key] = {"seed": SEEDS[0], "seed_free": seed_free,
                        "at_seed": at_seed}
            print(f"{key}: {len(seed_free)} seed-free, {len(at_seed)} at seed "
                  f"{SEEDS[0]}")
    with open(check.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
