"""Self-checks of the benchmark.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import shutil
import subprocess
import sys

import pytest

import harness
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, EpScaling, TwoSiteGrid

nc = harness.load_nhchain()

COUNTS = (
    "kernels.matvec_calls",
    "spectral.expm_calls",
    "critical.gap_evals",
    "qfi.solves_per_estimate",
)


def traced_sweep(name: str, seed: int) -> dict:
    wl = WORKLOADS[name](nc, seed)
    tracer = Tracer()
    tracer.install()
    try:
        phase = harness.measure(wl, 0.0, 1, tracer)
    finally:
        tracer.uninstall()
    assert phase.failed == 0, phase.messages
    assert not tracer.missing
    return phase.layers[0]


@pytest.mark.parametrize(
    "name, nonzero",
    [
        ("two-site-grid", ("critical.gap_evals", "qfi.solves_per_estimate")),
        ("ep-scaling", ("critical.gap_evals",)),
        ("qfi-krylov", ("kernels.matvec_calls", "spectral.expm_calls", "qfi.solves_per_estimate")),
    ],
)
def test_traced_counts_repeat_for_a_seed(name, nonzero):
    first, second = traced_sweep(name, 3), traced_sweep(name, 3)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert all(first[k] > 0 for k in nonzero)


def test_tracer_restores_every_patched_function():
    before = (nc.solve_steady_state, nc.spectral.la.expm, nc.operators.coo_matvec)
    tracer = Tracer()
    tracer.install()
    assert nc.operators.coo_matvec is not before[2]
    tracer.uninstall()
    assert (nc.solve_steady_state, nc.spectral.la.expm, nc.operators.coo_matvec) == before


def test_seed_changes_generated_points():
    assert TwoSiteGrid(nc, 1).random == TwoSiteGrid(nc, 1).random
    assert TwoSiteGrid(nc, 1).random != TwoSiteGrid(nc, 2).random
    assert EpScaling(nc, 1).h_grid != EpScaling(nc, 2).h_grid


def test_best_sweep_takes_each_points_fastest_latency():
    # two sweeps of three points, flattened sweep by sweep
    assert harness.best_sweep_seconds([3.0, 1.0, 2.0, 1.0, 5.0, 4.0], 3) == 4.0


def test_self_time_excludes_direct_children():
    spans = [
        ["critical.bisect", 0, 100, -1, 1],
        ["critical.gap", 10, 40, 0, 0],
        ["spectral.dense", 15, 35, 1, 0],
        ["critical.gap", 50, 70, 0, 0],
    ]
    m = layer_metrics(spans)
    assert m["critical.bisect_ms"] == pytest.approx(50e-6)
    assert m["critical.gap_ms"] == pytest.approx(30e-6)
    assert m["spectral.dense_ms"] == pytest.approx(20e-6)
    assert m["critical.gap_evals"] == 2
    assert m["critical.gap_evals_per_ep"] == 2


def run_sweep(wl) -> list:
    outputs = []
    for point in wl.points:
        outputs.append(point(outputs))
    return outputs


def test_two_site_gate_flags_wrong_results():
    wl = TwoSiteGrid(nc, 1)
    outputs = run_sweep(wl)
    assert wl.check(outputs) == {}
    i = len(wl.grid)
    ss, mags, corr, q_h, q_theta = outputs[i]
    outputs[i] = (ss, mags, corr, q_h * 1.01, q_theta)
    outputs[0] += 1e-6
    assert set(wl.check(outputs)) == {0, i}


def test_ep_gate_flags_wrong_boundary():
    wl = EpScaling(nc, 1)
    outputs = run_sweep(wl)
    assert wl.check(outputs) == {}
    outputs[3] += 1e-3
    assert 3 in wl.check(outputs)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(
        harness.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "two-site-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
