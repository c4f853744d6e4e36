"""Benchmark of nhchain's parameter sweeps, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload qfi-krylov --seed 1 --seconds 20 --trace 0

``--trace 0`` times the sweeps with no instrumentation and reports the
end-to-end metrics: ``sweep_s``, the fixed sweep's time with each point at
its fastest latency in the run; ``setup_s``, the median over fresh
processes of the time to import nhchain and make the workload's first
call; and ``peak_rss_mb``, the process's peak resident memory.  ``--trace 1`` runs the sweeps untraced and traced,
repeats both in a child process with BLAS pinned to one thread (metrics
suffixed ``.1t``) and reports the per-layer metrics.  ``--workload all``
runs every workload in turn.

The last line of standard output is the JSON result; the line before it is
a JSON report with provenance, ``failed_frac`` and the samples behind each
metric.  Exit code 1 means a correctness gate failed, 2 that the checkout
holds no nhchain sources.
"""

import argparse
import json
import sys

import harness
from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        harness.load_nhchain()
    except harness.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        report, result = harness.run(name, args.seed, args.seconds, bool(args.trace))
        for message in report["failures"]:
            print(f"perfbench: {name}: {message}", file=sys.stderr)
        print(json.dumps(report))
        print(json.dumps(result))
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
