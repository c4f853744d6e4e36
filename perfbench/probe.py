"""Child processes of the benchmark.

``probe.py setup WORKLOAD SEED`` imports nhchain in a fresh interpreter,
makes the workload's first call and prints ``ready``; the parent times it
as ``setup_s``.

``probe.py layers WORKLOAD SEED SECONDS`` runs the untraced and traced
sweeps and prints the per-layer metrics as one JSON line; the parent starts
it with BLAS pinned to one thread for the ``.1t`` reference metrics.
"""

import json
import sys

import harness
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    nc = harness.load_nhchain()
    wl = WORKLOADS[name](nc, seed)
    wl.setup_point()
    if mode == "setup":
        print("ready", flush=True)
        return 0
    layers, phases = harness.traced_layers(nc, wl, float(argv[3]))
    print(
        json.dumps(
            {
                "layers": layers,
                "attempted": sum(p.attempted for p in phases),
                "failed": sum(p.failed for p in phases),
                "messages": [m for p in phases for m in p.messages],
                "traced_sweeps": len(phases[1].sweep_s),
                "blas_threads": harness.blas_threads(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
