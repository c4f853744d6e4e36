"""Hamiltonian assembly against the explicit two-site matrix and dense oracles."""

from dataclasses import replace

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhchain import hamiltonian, operators
from nhchain.hamiltonian import ChainParams, build_dense, build_total
from nhchain.operators import kron_chain, pauli
from reference import staggered_generator


def two_site_matrix(J, gamma, h, theta):
    """The explicit 4x4 chain generator in the (uu, ud, du, dd) basis."""
    return np.array(
        [
            [-1j * gamma, 0, h * np.exp(-1j * theta), J],
            [0, -0.5j * gamma, 0, h * np.exp(-1j * theta)],
            [h * np.exp(1j * theta), 0, -0.5j * gamma, 0],
            [J, h * np.exp(1j * theta), 0, 0],
        ]
    )


def test_chain_params_validation():
    with pytest.raises(ValueError, match="N"):
        ChainParams(N=1, J=0.1)
    with pytest.raises(ValueError, match="J"):
        ChainParams(N=2, J=-0.1)
    with pytest.raises(ValueError, match="gamma"):
        ChainParams(N=2, J=0.1, gamma=-1.0)
    with pytest.raises(ValueError, match="h"):
        ChainParams(N=2, J=0.1, h=-0.2)


@pytest.mark.parametrize("name", ["J", "gamma", "h", "theta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_chain_params_rejects_non_finite(name, value):
    kw = {"N": 3, "J": 0.1, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ChainParams(**kw)


def test_build_total_refuses_a_size_beyond_physical_memory():
    import time
    import tracemalloc

    from nhchain.errors import MemoryLimitError

    full = ChainParams(N=40, J=0.23, h=0.2)
    # the full generator, H0 alone (h = 0) and H1 alone (J = gamma = 0)
    for p in (full, replace(full, h=0.0), replace(full, J=0.0, gamma=0.0)):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(MemoryLimitError) as err:
                build_total(p)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20  # refused before any 2^N array exists
        assert err.value.N == 40 and err.value.required > err.value.available


@pytest.mark.parametrize("N", [12, 14])
def test_memory_estimate_bounds_the_build_and_the_krylov_solvers(N):
    import tracemalloc

    from nhchain.hamiltonian import memory_estimate
    from nhchain.spectral import evolve, steady_state_krylov

    p = ChainParams(N=N, J=0.23, h=0.2)
    psi = np.zeros(p.dim, dtype=complex)
    psi[-1] = 1.0
    # a first pass outside the trace loads scipy's modules, which are not 2^N
    steady_state_krylov(build_total(p), p)
    evolve(build_total(p), psi, 10.0)
    peaks = {}
    tracemalloc.start()
    try:
        H = build_total(p)
        peaks["build"] = tracemalloc.get_traced_memory()[1]
        # the operator stays held while each solver runs
        tracemalloc.reset_peak()
        steady_state_krylov(H, p)
        peaks["arpack"] = tracemalloc.get_traced_memory()[1]
        # evolve keeps a 30-vector Krylov basis, more than ARPACK's 8
        tracemalloc.reset_peak()
        evolve(H, psi, 10.0)
        peaks["evolve"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for name, peak in peaks.items():
        assert peak <= memory_estimate(N), name


def test_h0_two_site_fixture():
    got = build_total(ChainParams(N=2, J=0.3, gamma=1.0)).dense()
    assert np.allclose(got, two_site_matrix(0.3, 1.0, 0.0, 0.0), atol=1e-15)


def test_h0_without_coupling_is_diagonal():
    got = build_total(ChainParams(N=2, J=0.0, gamma=1.0)).dense()
    assert np.allclose(got, np.diag([-1j, -0.5j, -0.5j, 0.0]), atol=0)


def test_h0_hermitian_when_lossless():
    got = build_total(ChainParams(N=3, J=1.0, gamma=0.0)).dense()
    assert np.allclose(got, got.conj().T, atol=0)


def test_h1_entries_two_site():
    got = build_total(ChainParams(N=2, J=0.0, gamma=0.0, h=0.1, theta=0.0)).dense()
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 0.1
    assert np.allclose(got, expected, atol=1e-15)
    # independent oracle: h (cos(t) X1 + sin(t) Y1) as a Kronecker chain
    oracle = 0.1 * kron_chain([pauli("x"), np.eye(2, dtype=complex)])
    assert np.allclose(got, oracle, atol=1e-15)


def test_h1_zero_field_is_zero_operator():
    assert build_total(ChainParams(N=3, J=0.0, gamma=0.0, h=0.0, theta=1.3)).nnz == 0


def test_h1_corner_entry_phase():
    theta = 0.8342
    got = build_total(ChainParams(N=2, J=0.0, gamma=0.0, h=0.25, theta=theta)).dense()
    assert got[0, 2] == pytest.approx(0.25 * np.exp(-1j * theta), abs=1e-15)


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 4, 2.2, -1.0])
def test_h1_is_hermitian(theta):
    got = build_total(ChainParams(N=3, J=0.0, gamma=0.0, h=0.4, theta=theta)).dense()
    assert np.allclose(got, got.conj().T, atol=0)


def test_total_matches_two_site_fixture():
    p = ChainParams(N=2, J=0.3, gamma=1.0, h=0.1, theta=np.pi / 4)
    got = build_total(p).dense()
    assert np.allclose(got, two_site_matrix(0.3, 1.0, 0.1, np.pi / 4), atol=1e-15)


def test_total_no_coupling_no_field_is_diagonal_decay():
    got = build_total(ChainParams(N=2, J=0.0, gamma=2.0, h=0.0)).dense()
    assert np.allclose(got, np.diag([-2j, -1j, -1j, 0.0]), atol=0)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_trace_counts_up_spins(N):
    p = ChainParams(N=N, J=0.17, gamma=0.9, h=0.23, theta=0.5)
    tr = np.trace(build_total(p).dense())
    assert tr == pytest.approx(-0.5j * p.gamma * N * 2 ** (N - 1), abs=1e-12)


@pytest.mark.parametrize("N", [2, 3, 4, 6, 8])
def test_eigenvalue_imaginary_parts_bounded(N):
    p = ChainParams(N=N, J=0.3, gamma=1.0, h=0.15, theta=0.9)
    w = np.linalg.eigvals(build_total(p).dense())
    assert w.imag.max() <= 1e-12
    assert w.imag.min() >= -N * p.gamma


@pytest.mark.parametrize("N", [2, 3, 4])
def test_h0_anti_hermitian_part_is_pure_loss(N):
    # H0 - H0^dag equals -i (gamma/2) sum_n (sz_n + 1), independent of J
    p = ChainParams(N=N, J=0.42, gamma=1.3)
    H0 = build_total(p).dense()
    eye = np.eye(2)
    loss = sum(
        kron_chain([pauli("z") + eye if m == n else eye for m in range(1, N + 1)])
        for n in range(1, N + 1)
    )
    assert np.allclose(H0 - H0.conj().T, -0.5j * p.gamma * loss, atol=1e-14)


def test_theta_periodicity():
    p1 = ChainParams(N=3, J=0.2, h=0.3, theta=0.7)
    p2 = ChainParams(N=3, J=0.2, h=0.3, theta=0.7 + 2 * np.pi)
    assert np.allclose(
        build_total(p1).dense(), build_total(p2).dense(), atol=1e-15
    )


@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_kept_spin_patterns_are_read_only_and_change_no_bit(N):
    # the N-only spin patterns and flip masks are kept between calls; a warm
    # cache gives the bits of a cold one and of the CSR route at every point
    points = [
        ChainParams(N=N, J=0.23, h=0.2, theta=0.7),
        ChainParams(N=N, J=0.0, gamma=0.4, h=0.31, theta=-2.5),
        ChainParams(N=N, J=0.41, gamma=0.0, h=0.0),
    ]
    cold = []
    for p in points:
        hamiltonian._spin_patterns.cache_clear()
        operators._flip_masks.cache_clear()
        cold.append(build_dense(p).tobytes())
    for p, bits in zip(points, cold):
        assert build_dense(p).tobytes() == bits == build_total(p).dense().tobytes()
    assert hamiltonian._spin_patterns.cache_info().hits >= 2 * len(points)
    assert operators._flip_masks.cache_info().hits >= 2 * len(points)
    sites = tuple(s for s, _ in hamiltonian._terms(points[0]))
    for a in (*hamiltonian._spin_patterns(N), operators._flip_masks(N, sites)):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 8),
    j=st.floats(0.0, 0.6),
    gamma=st.floats(0.0, 2.0),
    h=st.floats(0.0, 0.4),
    theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
)
def test_theta_is_a_staggered_rotation(n, j, gamma, h, theta):
    # H(theta) = U H(0) U^dag with U = exp(-i theta G), so no spectrum, gap or
    # exceptional point depends on theta
    # (U H U^dag)_ab = exp(-i theta (g_a - g_b)) H_ab, exactly 1 on the diagonal
    p = ChainParams(N=n, J=j, gamma=gamma, h=h, theta=theta)
    g = staggered_generator(n)
    phase = np.exp(-1j * theta * (g[:, None] - g))
    rotated = phase * build_dense(replace(p, theta=0.0))
    assert np.abs(rotated - build_dense(p)).max() <= 1e-15
    # the opposite stagger fails by O(h)
    flipped = np.abs(np.conj(phase) * build_dense(replace(p, theta=0.0)) - build_dense(p))
    assert flipped.max() >= 2 * h * abs(math.sin(theta)) - 1e-15
