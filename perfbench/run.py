"""Benchmark entry point: simulator cost and paper metrics, per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload geo_read_mostly --seed 31 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed; ``--trace 1`` runs the same workload untraced and then traced,
and reports the per-layer table.  ``--workload all`` runs every workload in
turn.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit status: 0 on success, 1 on a correctness violation or determinism
mismatch (the JSON line is still printed), 2 when the simulator sources
cannot be found or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: where traced runs write their span files
OUT_DIR = os.path.join(HERE, "out")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: simulator sources not found under {SRC}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from bench import CheckFailed, Outcome, run_workload
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    total = Outcome()
    metrics: dict = {}
    mismatch = None
    for name in names:
        try:
            outcome, found = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace), OUT_DIR, log)
        except CheckFailed as error:
            mismatch = f"{name}: {error}"
            print(f"CHECK FAILED: {mismatch}")
            break
        total.attempted += outcome.attempted
        total.failed += outcome.failed
        if len(names) > 1:
            found = {f"{name}.{k}": v for k, v in found.items()}
        metrics.update(found)
    correct = mismatch is None and total.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(total.attempted, 1),
                      "failed": total.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
