"""Measurement loop, statistics, set-up probes and the traced pass.

End-to-end metrics come from runs with no wrapper installed.  The gates run
between sweeps and stay out of every timing; ``peak_rss_mb`` is the peak of
the whole process, gates included, whose references (a Krylov solve at the
sweep's own size, a dense N=8 matrix) need no more memory than the sweep.
"""

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from provenance import blas_threads, provenance
from tracer import Tracer, layer_metrics, matvec_bytes
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
# BLAS thread variables the single-thread pass pins; the timed runs leave
# the environment as the user has it
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KERNEL_SIZES = (10, 12, 14)
KERNEL_MIN_S = 0.15


class SourceMissing(RuntimeError):
    """The checkout holds no nhchain sources to benchmark."""


def load_nhchain():
    """Import nhchain from ``src/`` of this checkout, never from elsewhere."""
    init = SRC / "nhchain" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no nhchain sources at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nhchain

    if Path(nhchain.__file__).resolve() != init.resolve():
        raise SourceMissing(f"nhchain was imported from {nhchain.__file__}, not {init}")
    return nhchain


@dataclass
class Phase:
    """Everything one measurement loop observed."""

    sweep_s: list[float] = field(default_factory=list)
    point_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)


def measure(wl, budget_s: float, min_sweeps: int, tracer=None) -> Phase:
    """Run whole sweeps until the next one would overrun ``budget_s`` of
    timed work, and at least ``min_sweeps``.  Gates run between sweeps and
    are not timed."""
    phase = Phase()
    spent = 0.0
    while len(phase.sweep_s) < min_sweeps or (
        spent + statistics.median(phase.sweep_s) <= budget_s
    ):
        outputs, errors, latencies = [], {}, []
        if tracer is not None:
            tracer.start()
        t_sweep = time.perf_counter()
        for i, point in enumerate(wl.points):
            t_point = time.perf_counter()
            try:
                outputs.append(point(outputs))
            except Exception:  # a raising point is counted as failed
                outputs.append(None)
                errors[i] = traceback.format_exc(limit=3)
            latencies.append(time.perf_counter() - t_point)
        elapsed = time.perf_counter() - t_sweep
        if tracer is not None:
            phase.layers.append(layer_metrics(tracer.stop()))
        bad = wl.check(outputs)
        bad.update(errors)
        phase.sweep_s.append(elapsed)
        phase.point_s.extend(latencies)
        phase.attempted += len(wl.points)
        phase.failed += len(bad)
        phase.messages.extend(f"point {i}: {msg}" for i, msg in sorted(bad.items()))
        spent += elapsed
    return phase


def best_sweep_seconds(point_s: list[float], points_per_sweep: int) -> float:
    """The sweep's time with every point at the fastest latency it showed
    in the run.

    On a shared 2-vCPU virtual machine the CPU speed drifts by 10-20% over
    minutes, longer than a run, so a median or mean of whole sweeps moves
    with the drift; each point's minimum over the run's sweeps moves less.
    """
    return sum(
        min(point_s[i::points_per_sweep]) for i in range(points_per_sweep)
    )


def tail_percentile(wl) -> float:
    """Highest percentile with at least ten samples beyond it at the
    guaranteed sample count (``min_sweeps`` whole sweeps); fixed per
    workload so the metric means the same on every run."""
    guaranteed = wl.min_sweeps * len(wl.points)
    return 100.0 * (1.0 - 10.0 / guaranteed)


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _child_env(single_thread: bool) -> dict:
    env = dict(os.environ)
    if single_thread:
        env.update({name: "1" for name in SINGLE_THREAD_ENV})
    return env


def _run_child(args: list[str], single_thread: bool = False, until_line=None):
    """Start ``probe.py`` with ``args``; return (seconds to ``until_line``
    or to exit, stdout).  The child is always waited for."""
    cmd = [sys.executable, str(HERE / "probe.py"), *args]
    t0 = time.perf_counter()
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=_child_env(single_thread), cwd=ROOT
    ) as proc:
        try:
            first = proc.stdout.readline() if until_line else ""
            t_ready = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    if until_line and first.strip() != until_line:
        raise RuntimeError(f"{' '.join(args)} printed {first!r}, not {until_line!r}")
    return (t_ready if until_line else time.perf_counter() - t0), rest


def setup_seconds(name: str, seed: int) -> list[float]:
    """Fresh-process time to the first point: interpreter start, import of
    nhchain and the first call, repeated ``SETUP_REPEATS`` times."""
    return [
        _run_child(["setup", name, str(seed)], until_line="ready")[0]
        for _ in range(SETUP_REPEATS)
    ]


def kernel_metrics(nc) -> dict[str, float]:
    """Matvec time and computed bandwidth on the chain Hamiltonian at fixed
    sizes, through the public ``op_matvec``."""
    out = {}
    for n in KERNEL_SIZES:
        H = nc.build_total(nc.ChainParams(N=n, J=0.23, h=0.2))
        rng = np.random.default_rng(0)
        v = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
        nc.op_matvec(H, v)
        samples, t_end = [], time.perf_counter() + KERNEL_MIN_S
        while time.perf_counter() < t_end or len(samples) < 5:
            t0 = time.perf_counter()
            nc.op_matvec(H, v)
            samples.append(time.perf_counter() - t0)
        per_call = statistics.median(samples)
        out[f"kernels.matvec_us.n{n}"] = per_call * 1e6
        out[f"kernels.matvec_gbps_computed.n{n}"] = matvec_bytes(H.nnz, H.dim) / per_call / 1e9
    return out


def traced_layers(nc, wl, budget_s: float) -> tuple[dict, list[Phase]]:
    """Untraced then traced sweeps (half the budget each) and the kernel
    timings; returns the per-layer metrics and both phases."""
    plain = measure(wl, budget_s / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(wl, budget_s / 2, 1, tracer)
    finally:
        tracer.uninstall()
    layers = {
        key: statistics.median(sweep[key] for sweep in traced.layers)
        for key in traced.layers[0]
    }
    layers["trace.overhead_frac"] = (
        statistics.median(traced.sweep_s) / statistics.median(plain.sweep_s) - 1.0
    )
    layers.update(kernel_metrics(nc))
    if tracer.missing:
        print(f"perfbench: not traced, absent: {tracer.missing}", file=sys.stderr)
    return layers, [plain, traced]


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (report, result line)."""
    nc = load_nhchain()
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        # the single-thread pass gets a third of the budget, the default
        # environment two thirds
        _, out = _run_child(
            ["layers", name, str(seed), repr(seconds / 3)], single_thread=True
        )
        child = json.loads(out.strip().splitlines()[-1])
        wl = WORKLOADS[name](nc, seed)
        wl.setup_point()
        layers, phases = traced_layers(nc, wl, seconds * 2 / 3)
        metrics = dict(layers)
        metrics.update({f"{k}.1t": v for k, v in child["layers"].items()})
        attempted = sum(p.attempted for p in phases) + child["attempted"]
        failed = sum(p.failed for p in phases) + child["failed"]
        messages = [m for p in phases for m in p.messages] + child["messages"]
        report["traced_sweeps"] = len(phases[1].sweep_s)
        report["traced_sweeps_1t"] = child["traced_sweeps"]
        report["blas_threads_1t"] = child["blas_threads"]
    else:
        setup = setup_seconds(name, seed)
        wl = WORKLOADS[name](nc, seed)
        wl.setup_point()  # lazy set-up outside the timed sweeps
        phase = measure(wl, seconds, wl.min_sweeps)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pct = tail_percentile(wl)
        tail, beyond = nearest_rank(phase.point_s, pct)
        metrics = {
            "sweep_s": best_sweep_seconds(phase.point_s, len(wl.points)),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        attempted, failed, messages = phase.attempted, phase.failed, phase.messages
        # per-point latencies mix point kinds of very different cost, so
        # they are reported but not gated
        report.update(
            point_p50_ms=statistics.median(phase.point_s) * 1e3,
            point_tail_ms=tail * 1e3,
            tail_percentile=pct,
            tail_samples_beyond=beyond,
            points=len(phase.point_s),
            points_per_sweep=len(wl.points),
            sweeps=len(phase.sweep_s),
            sweep_median_s=statistics.median(phase.sweep_s),
            sweep_samples_s=phase.sweep_s,
            setup_samples_s=setup,
        )
    report["failed_frac"] = failed / attempted
    report["failures"] = messages[:20]
    report["provenance"] = provenance(nc, seed, ROOT, SINGLE_THREAD_ENV)
    units = units_by_name()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return report, result


def units_by_name() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
