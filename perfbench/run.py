#!/usr/bin/env python3
"""The repository benchmark: A-DKG latency, µs per message and churn.

Run from the root of a checkout::

    python3 perfbench/run.py --workload adkg-sim-n16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # one process per workload

One process, one thread, one operation in flight (a closed loop).  After
one untimed warm-up operation, operations run back to back until the next
one would end past ``--seconds``; each gets a fresh ``TrustedSetup`` (or
storage directory) from a per-operation seed derived from ``--seed``.
Every operation's output is checked.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates plain and traced operations
on the same seeds and reports the per-layer metrics.  The last line of
standard output is one JSON object; README.md in this directory explains
the workloads and every metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("adkg-sim-n16", "adkg-tcp-n10", "churn-crash-sim")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    # Every workload measures the inline verification plane.
    os.environ.pop("REPRO_WORKERS", None)
    sys.path.insert(0, str(src))
    import harness
    from workloads import WORKLOADS

    host = harness.host_record(CHECKOUT, args.workload, args.seed)
    print("# host " + json.dumps(host))
    bench = harness.Bench(
        WORKLOADS[args.workload], args.seed, args.seconds, CHECKOUT / ".perfbench-work"
    )
    try:
        if args.trace:
            from layers import traced_run

            result = traced_run(bench)
        else:
            result = harness.plain_run(bench, CHECKOUT)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        status |= subprocess.run(command, cwd=CHECKOUT, check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
