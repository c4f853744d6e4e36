"""Krylov propagator ``evolve`` against the dense matrix exponential."""

import logging
import math

import numpy as np
import pytest
import scipy.linalg as la
from scipy.linalg.blas import dznrm2, zgemv
from scipy.sparse import csr_array

from nhchain import spectral
from nhchain.errors import ConvergenceError
from nhchain.hamiltonian import ChainParams, build_total
from nhchain.operators import SparseOperator
from nhchain.spectral import EXPM_STRIDE, KRYLOV_DIM, evolve, steady_state_dense


class CountingOperator:
    """``H`` with a count of its matvecs; ``evolve`` needs nothing else."""

    def __init__(self, H):
        self.H = H
        self.matvecs = 0

    def matvec(self, v):
        self.matvecs += 1
        return self.H.matvec(v)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def dense_reference(H, v, t):
    return la.expm(-1j * t * H.dense()) @ v


def _rebuilding_arnoldi_step(H, psi, dt, tol, m_max):
    """Reference substep that returns (False, None) when no order passes.

    ``_rebuilding_evolve`` then halves dt and builds the same basis again;
    ``evolve`` must give bit-identical results without the rebuild.
    """
    beta = dznrm2(psi)
    if beta == 0:
        return True, psi.copy()
    n = psi.shape[0]
    m_max = min(m_max, n)
    V = np.empty((m_max, n), dtype=np.complex128)
    Hm = np.zeros((m_max + 1, m_max + 1), dtype=np.complex128)
    V[0] = psi / beta
    for m in range(1, m_max + 1):
        # V[:m].T is F-contiguous, so zgemv reads the basis in place
        w = np.ascontiguousarray(H.matvec(V[m - 1]), dtype=np.complex128)
        for _ in range(2):
            h = zgemv(1.0, V[:m].T, w, trans=2)
            Hm[:m, m - 1] += h
            w = zgemv(-1.0, V[:m].T, h, beta=1.0, y=w, overwrite_y=True)
        hnext = dznrm2(w)
        Hm[m, m - 1] = hnext
        breakdown = hnext < 1e-14 * max(1.0, abs(Hm[: m + 1, :m]).max())
        if breakdown or m == m_max or m % EXPM_STRIDE == 0:
            E = la.expm(-1j * dt * Hm[: m + 1, : m + 1])
            c = beta * E[:m, 0]
            if breakdown or beta * abs(E[m, 0]) <= tol * dznrm2(c):
                return True, zgemv(1.0, V[:m].T, c)
        if m < m_max:
            V[m] = w / hnext
    return False, None


def _rebuilding_evolve(H, psi0, t, tol):
    psi = np.ascontiguousarray(psi0, dtype=np.complex128).copy()
    if t == 0 or dznrm2(psi) == 0:
        return psi
    remaining = float(t)
    dt = remaining
    min_dt = t * 1e-12
    failed = np.inf
    while remaining > t * 1e-14:
        dt = min(dt, remaining)
        ok, result = _rebuilding_arnoldi_step(H, psi, dt, tol, KRYLOV_DIM)
        if not ok:
            failed = dt
            dt *= 0.5
            if dt < min_dt:
                raise ConvergenceError(
                    "Krylov propagation substep underflow", residual=dt
                )
            continue
        psi = result
        remaining -= dt
        dt = min(2.0 * dt, 0.5 * (dt + failed))
    return psi


@pytest.fixture
def substeps(monkeypatch):
    """Per state stepped from: [matvecs, expm calls], recorded through spies."""
    records = []
    arnoldi_step, expm = spectral._arnoldi_step, la.expm

    def step(H, *args):
        before = H.matvecs
        records.append([0, 0])
        out = arnoldi_step(H, *args)
        records[-1][0] = H.matvecs - before
        return out

    def counted_expm(a):
        records[-1][1] += 1
        return expm(a)

    monkeypatch.setattr(spectral, "_arnoldi_step", step)
    monkeypatch.setattr(la, "expm", counted_expm)
    return records


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11])
@pytest.mark.parametrize(
    "N,J,h,theta,t",
    [
        (3, 0.2, 0.1, 0.5, 3.7),
        (5, 0.24, 0.18, 1.2, 8.0),
        (6, 0.4, 0.3, 2.0, 2.0),
        (8, 0.23, 0.2, 0.0, 5.0),
    ],
)
def test_evolve_meets_its_tolerance(N, J, h, theta, t, tol):
    H = build_total(ChainParams(N=N, J=J, h=h, theta=theta))
    v = random_state(H.dim, N)
    got = evolve(H, v, t, tol=tol)
    ref = dense_reference(H, v, t)
    assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)


def test_evolve_meets_its_tolerance_where_the_basis_algebra_is_threaded():
    # at dimension 1024 OpenBLAS threads the Gram-Schmidt products
    tol = 1e-9
    H = build_total(ChainParams(N=10, J=0.23, h=0.2, theta=0.7))
    v = random_state(H.dim, 10)
    got = evolve(H, v, 4.0, tol=tol)
    ref = dense_reference(H, v, 4.0)
    assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)


class RealOperator:
    """A real matrix whose matvec returns float64.

    A real matrix and a real start vector keep the whole Arnoldi basis real,
    so dropping the zero imaginary part loses nothing.
    """

    def __init__(self, A):
        self.A = A

    def matvec(self, v):
        assert not v.imag.any()
        return self.A @ v.real


def test_evolve_takes_an_operator_with_a_real_matvec():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 40)) / np.sqrt(40)
    v = rng.standard_normal(40)
    v /= np.linalg.norm(v)
    got = evolve(RealOperator(A), v, 1.5, tol=1e-11)
    assert got.dtype == np.complex128
    complex_path = evolve(SparseOperator(csr_array(A.astype(complex))), v, 1.5, tol=1e-11)
    assert np.linalg.norm(got - complex_path) <= 1e-14 * np.linalg.norm(complex_path)
    ref = la.expm(-1.5j * A) @ v
    assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref)


@pytest.mark.parametrize("N", [4, 5])
def test_evolve_meets_its_tolerance_on_a_strongly_damped_step(N):
    # in the gapless region the norm falls by ~1e-19 over one step of 50; the
    # residual at the step's end alone reads the error over 100 times too small
    H = build_total(ChainParams(N=N, J=0.4, h=0.3, theta=2.0))
    v = dense_reference(H, random_state(H.dim, N), 25.0)
    v /= np.linalg.norm(v)
    got = evolve(H, v, 50.0, tol=1e-6)
    ref = dense_reference(H, v, 50.0)
    assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref)


def test_evolve_halves_a_long_substep(caplog):
    # exp(-50 i H) needs more than KRYLOV_DIM orders at N = 6
    H = build_total(ChainParams(N=6, J=0.24, h=0.18, theta=1.2))
    v = random_state(H.dim, 6)
    with caplog.at_level(logging.DEBUG, logger="nhchain"):
        got = evolve(H, v, 50.0, tol=1e-9)
    halved = [r for r in caplog.records if "substep halved" in r.getMessage()]
    assert halved
    assert all(r.levelno == logging.DEBUG for r in halved)
    ref = dense_reference(H, v, 50.0)
    assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


def test_evolve_does_not_grow_back_to_a_failed_substep(caplog):
    # in the damped region a substep of 12.5 fails at KRYLOV_DIM orders while
    # 6.25 passes; doubling straight back to 12.5 or 25 after each accepted
    # substep failed 10 times in this call
    H = build_total(ChainParams(N=6, J=0.4, h=0.3, theta=2.0))
    with caplog.at_level(logging.DEBUG, logger="nhchain"):
        evolve(H, random_state(H.dim, 6), 100.0, tol=1e-11)
    halved = [r for r in caplog.records if "substep halved" in r.getMessage()]
    # 100, 50, 25 and 12.5 fail once each; then the substep grows back
    # toward 12.5 without reaching it
    assert len(halved) <= 4


@pytest.mark.parametrize(
    "N,J,h,theta,t,tol",
    [
        (6, 0.24, 0.18, 1.2, 50.0, 1e-9),
        (6, 0.4, 0.3, 2.0, 100.0, 1e-11),
        (10, 0.23, 0.2, 0.7, 20.0, 1e-9),
    ],
)
def test_evolve_halves_on_its_basis_exactly_as_a_rebuild_would(N, J, h, theta, t, tol):
    # each case halves a substep; the basis and its Arnoldi matrix do not
    # depend on dt, so re-reading them must reproduce the rebuild bit for bit
    H = build_total(ChainParams(N=N, J=J, h=h, theta=theta))
    v = random_state(H.dim, N)
    assert np.array_equal(evolve(H, v, t, tol=tol), _rebuilding_evolve(H, v, t, tol))


def test_evolve_builds_each_basis_order_once(substeps):
    # a halved substep re-reads the basis that failed instead of rebuilding
    # it, which took 74 matvecs here
    H = CountingOperator(build_total(ChainParams(N=6, J=0.24, h=0.18, theta=1.2)))
    evolve(H, random_state(H.H.dim, 6), 50.0, tol=1e-9)
    assert len(substeps) > 1
    assert all(m <= KRYLOV_DIM for m, _ in substeps)
    assert sum(m for m, _ in substeps) == H.matvecs <= 46


@pytest.mark.parametrize("t", [25.0, 40.0])
def test_evolve_meets_its_tolerance_in_the_damped_region(t):
    H = build_total(ChainParams(N=6, J=0.4, h=0.3, theta=2.0))
    v = random_state(H.dim, 6)
    got = evolve(H, v, t, tol=1e-11)
    ref = dense_reference(H, v, t)
    assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref)


def test_evolve_from_the_steady_state_breaks_down_at_first_order(substeps):
    p = ChainParams(N=5, J=0.2, h=0.15, theta=0.3)
    H = build_total(p)
    ss = steady_state_dense(H, p)
    Hc = CountingOperator(H)
    got = evolve(Hc, ss.vector, 20.0, tol=1e-11)
    # one order spans the invariant space, so every substep is one matvec and
    # one exponential, whatever the stride
    assert substeps == [[1, 1]]
    assert np.linalg.norm(got - np.exp(-20j * ss.eigenvalue) * ss.vector) < 1e-11


def test_evolve_accepts_an_order_off_the_stride(substeps):
    # a start vector on k distinct eigenvalues spans a k-dimensional Krylov
    # space, so the basis breaks down at order k, not a multiple of the stride
    k = EXPM_STRIDE + 1
    diag = -0.3j * np.arange(8) + np.linspace(0.0, 1.4, 8)
    H = SparseOperator(csr_array(np.diag(diag)))
    v = np.zeros(8, dtype=complex)
    v[:k] = random_state(k, 1)
    Hc = CountingOperator(H)
    got = evolve(Hc, v, 1.5, tol=1e-12)
    assert substeps == [[k, 2]]
    assert np.linalg.norm(got - np.exp(-1.5j * diag) * v) < 1e-13


def test_evolve_exponentiates_every_stride_orders(substeps):
    # the small exponential is taken every EXPM_STRIDE orders and at the last
    # one, not at every order
    H = CountingOperator(build_total(ChainParams(N=10, J=0.23, h=0.2)))
    evolve(H, random_state(1 << 10, 10), 10.0)
    assert max(m for m, _ in substeps) >= 3
    for m, calls in substeps:
        assert calls <= math.ceil(m / EXPM_STRIDE) + 1, (m, calls)


@pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
def test_evolve_refuses_a_time_that_is_negative_or_not_finite(t):
    # no substep loop can cover an infinite or NaN time, so the state must
    # not come back unchanged
    H = build_total(ChainParams(N=3, J=0.2, h=0.1))
    with pytest.raises(ValueError, match="evolution time must be finite"):
        evolve(H, random_state(8, 0), t)


class BoundedOperator(CountingOperator):
    """``H`` that raises after ``limit`` matvecs, so a would-be hang fails."""

    def __init__(self, H, limit):
        super().__init__(H)
        self.limit = limit

    def matvec(self, v):
        if self.matvecs >= self.limit:
            raise AssertionError(f"more than {self.limit} matvecs")
        return super().matvec(v)


def test_evolve_refuses_a_tol_below_the_rounding_unit():
    # below eps Saad's test passes only on substeps so short that its error
    # term underflows: at this point tol = 1e-200 never returned
    H = BoundedOperator(build_total(ChainParams(N=6, J=0.23, h=0.2)), limit=1000)
    psi = random_state(64, 0)
    with pytest.raises(ValueError, match="rounding unit"):
        evolve(H, psi, 5.0, tol=1e-200)
    assert H.matvecs == 0
    # eps itself is accepted and meets its tolerance in a few dozen matvecs
    out = evolve(H, psi, 5.0, tol=np.finfo(float).eps)
    assert 0 < H.matvecs < 1000
    ref = dense_reference(H.H, psi, 5.0)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
