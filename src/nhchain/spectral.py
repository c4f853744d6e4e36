"""Eigen-analysis of the non-Hermitian chain generator.

Two solvers find the steady state.  The dense one diagonalizes the full
matrix with numpy.linalg (LAPACK ``zgeev``), up to dimension 4096
(N <= 12).  The matrix-free one refuses a closed free-fermion gap, then
takes the two eigenvalues of largest imaginary part from ARPACK
(``scipy.sparse.linalg.eigs(which="LI")``).
``evolve`` applies a Krylov approximation of ``exp(-i H t)``: it
exponentiates the small Arnoldi matrix every ``EXPM_STRIDE`` orders and
accepts an order on Saad's a-posteriori estimate of the local error.
scipy is imported inside the Krylov solver and ``evolve`` only, so the
free-fermion and dense paths never load it.

Eigenvalue ordering everywhere: descending imaginary part, ties (to within
``1e-9 max(1, max |lambda|)``) broken by ascending real part.  The steady
state is the first eigenvalue in this order; the gap is the difference of
the top two imaginary parts.  Both solvers share one contract: a gap at or
below ``majorana.default_tol_gap(gamma)`` raises ``EPProximityError``,
because no steady state is isolated at an exceptional point.

Returned steady-state vectors have unit Euclidean norm and a fixed phase
gauge: the largest-magnitude amplitude is real and positive (magnitude ties
within 1e-12 resolved by lowest index).

Random starting vectors are drawn from ``numpy.random.default_rng`` with the
fixed seed ``DEFAULT_SEED = 7`` unless a seed is passed explicitly.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DenseSizeError, EPProximityError
from .hamiltonian import ChainParams, build_total
from .majorana import default_tol_gap, majorana_gap
from .operators import SparseOperator

log = logging.getLogger("nhchain")

DEFAULT_SEED = 7
DENSE_MAX_DIM = 4096
# ``auto`` solves dense up to this dimension (N <= 5) and by ARPACK above.
# Best of 14 solves at J = 0.23, h = 0.2, tol = 1e-9, dense (numpy.linalg)
# vs ARPACK (two pairs), lower of two runs, on a shared 2-core Xeon with
# numpy 2.4 and scipy 1.17 (OpenBLAS): with default BLAS threads 0.66 vs
# 1.52 ms at N = 5, 3.6 vs 2.2 ms at N = 6 and 21.5 vs 2.9 ms at N = 7; with
# OMP_NUM_THREADS=1 0.66 vs 2.2 ms, 4.4 vs 2.6 ms and 18.7 vs 4.5 ms.
AUTO_DENSE_MAX_DIM = 32
KRYLOV_DIM = 30
# ``evolve`` keeps its n-length algebra (Gram-Schmidt, norms, the result) in
# ``scipy.linalg.blas``, the OpenBLAS that ``scipy.linalg.expm`` runs in.
# numpy bundles a second OpenBLAS with its own thread pool, and alternating
# between the two stalled each small ``expm`` for 4-8 ms under default
# threads (~0.1 ms now).  It still exponentiates its Krylov matrix only every this
# many orders: 20 steps of dt = 10 from a random state (best of 4-5 runs,
# shared 2-core Xeon, numpy 2.4 and scipy 1.17) take 6.4 vs 3.7 ms at
# N = 4, 22 vs 12 ms at N = 8, 82 vs 58 ms at N = 12 and 297 vs 253 ms at
# N = 14 for strides 1 vs 4 with default threads, and 6.0 vs 4.0, 17 vs 7.9,
# 70 vs 55 and 314 vs 304 ms with one thread.  The relax-n14 benchmark reads
# the same for strides 1, 2 and 4 (0.29-0.31 s, median of 6) and 0.34 s for 8.
EXPM_STRIDE = 4
# ``evolve``'s smallest accepted tol, the double-precision rounding unit
TOL_MIN = float(np.finfo(float).eps)
# ARPACK stops on its own Ritz estimate; asking it for three more digits than
# the caller leaves headroom for the independent residual gate at ``tol``
ARPACK_TOL_FACTOR = 1e-3


def spectral_order(w: np.ndarray) -> np.ndarray:
    """Permutation sorting eigenvalues by descending Im, then ascending Re.

    Neighbours in descending Im whose imaginary parts differ by at most
    ``1e-9 max(1, max |lambda|)`` are tied, and a run of such ties is one
    group ordered by Re.  Past the boundary ``lambda`` and
    ``-conj(lambda)`` share one imaginary part, which two eigensolvers
    round differently.  The tolerance is far above that rounding and, for
    gamma above ~1e-2, far below ``default_tol_gap(gamma)``, so a tie at
    the top is refused as an exceptional point before its order matters.
    """
    order = np.argsort(-w.imag, kind="stable")
    im = w.imag[order]
    tol = 1e-9 * max(1.0, np.abs(w).max())
    group = np.concatenate(([0], np.cumsum(im[:-1] - im[1:] > tol)))
    return order[np.lexsort((w.real[order], group))]


def phase_gauge(v: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude amplitude is real positive, unit norm."""
    mags = np.abs(v)
    k = int(np.flatnonzero(mags >= mags.max() - 1e-12)[0])
    if mags[k] == 0:
        raise ValueError("cannot gauge the zero vector")
    out = v * (mags[k] / v[k])
    return out / np.linalg.norm(out)


@dataclass(frozen=True)
class SteadyState:
    """Slowest-decaying eigenpair.

    ``gap`` is the top-two imaginary-part difference, always above
    ``default_tol_gap(gamma)``.
    """

    params: ChainParams
    eigenvalue: complex
    vector: np.ndarray
    gap: float
    method: str


def _two_site_roots(p: ChainParams) -> tuple[complex, complex]:
    """Principal square roots a = sqrt(g^2-4J^2), b = sqrt(g^2-4J^2-16h^2)."""
    g2 = p.gamma * p.gamma
    a2 = g2 - 4.0 * p.J * p.J
    return np.sqrt(complex(a2)), np.sqrt(complex(a2 - 16.0 * p.h * p.h))


def _gapped_two_site_roots(p: ChainParams, what: str) -> tuple[float, float]:
    """Real roots (a, b) for the closed-form ``what`` of a gapped two-site chain.

    Raises ValueError unless N = 2 and the point is strictly inside the
    gapped region.
    """
    if p.N != 2:
        raise ValueError(f"closed-form {what} requires N = 2")
    if not p.gamma**2 - 4.0 * p.J**2 - 16.0 * p.h**2 > 0:
        raise ValueError(
            f"closed-form {what} is defined only in the gapped region "
            "(gamma^2 - 4J^2 - 16h^2 > 0)"
        )
    a, b = _two_site_roots(p)
    return a.real, b.real


def eigenvalues_two_site(p: ChainParams) -> np.ndarray:
    """Closed-form spectrum of the two-site chain, in spectral order.

    The four values are -i*gamma/2 +/- (i/4)*(a +/- b) over both sign
    choices, with a, b the principal roots of gamma^2-4J^2 and
    gamma^2-4J^2-16h^2; theta does not enter.
    """
    if p.N != 2:
        raise ValueError("closed-form spectrum requires N = 2")
    a, b = _two_site_roots(p)
    base = -0.5j * p.gamma
    w = np.array(
        [
            base + 0.25j * (a + b),
            base + 0.25j * (a - b),
            base - 0.25j * (a - b),
            base - 0.25j * (a + b),
        ]
    )
    return w[spectral_order(w)]


def steady_state_two_site(p: ChainParams) -> np.ndarray:
    """Closed-form steady-state vector of the two-site chain, unit norm.

    Only defined in the gapped region; amplitudes in the (uu, ud, du, dd)
    basis carry phases exp(-i pi/4), exp(-i(pi/4+theta)), -exp(i(pi/4+theta))
    and exp(i pi/4) on top of real square-root weights.  The raw form has
    J / sqrt(g - a) factors that turn 0 * inf at J = 0; here the identity
    g - a = 4 J^2 / (g + a) cancels J so the expression stays regular on
    the whole gapped region.
    """
    a, b = _gapped_two_site_roots(p, "steady state")
    g = p.gamma
    root_ga = np.sqrt(g * a)
    quarter = np.exp(0.25j * np.pi)
    return np.array(
        [
            np.conj(quarter) * p.J * np.sqrt((a + b) / (g + a)) / root_ga,
            np.conj(quarter)
            * np.exp(-1j * p.theta)
            * np.sqrt((a - b) * (g + a))
            / (2.0 * root_ga),
            -quarter * np.exp(1j * p.theta) * p.J * np.sqrt((a - b) / (g + a)) / root_ga,
            quarter * np.sqrt((a + b) * (g + a)) / (2.0 * root_ga),
        ]
    )


def _dense_matrix(H: SparseOperator) -> np.ndarray:
    if H.dim > DENSE_MAX_DIM:
        raise DenseSizeError(
            f"dense path supports dimension <= {DENSE_MAX_DIM}, got {H.dim}; "
            "use the Krylov solver"
        )
    return H.dense()


def dense_eigenvalues(H: SparseOperator) -> np.ndarray:
    """All eigenvalues of H in spectral order, from a dense eigensolve."""
    w = np.linalg.eigvals(_dense_matrix(H))
    return w[spectral_order(w)]


def _steady_state(
    p: ChainParams, w: np.ndarray, v: np.ndarray, method: str
) -> SteadyState:
    """Steady state from eigenpairs (columns of ``v``); raises at an EP."""
    tol_gap = default_tol_gap(p.gamma)
    order = spectral_order(w)
    # read off the sorted parts: within a tie, order[0] need not have the
    # largest Im, and the gap stays >= 0
    im = np.sort(w.imag)
    gap = float(im[-1] - im[-2])
    if gap <= tol_gap:
        raise EPProximityError(gap, tol_gap)
    return SteadyState(
        params=p,
        eigenvalue=complex(w[order[0]]),
        vector=phase_gauge(v[:, order[0]]),
        gap=gap,
        method=method,
    )


def steady_state_dense(H: SparseOperator, p: ChainParams) -> SteadyState:
    """Slowest-decaying eigenpair from a dense eigendecomposition."""
    w, v = np.linalg.eig(_dense_matrix(H))
    return _steady_state(p, w, v, "dense")


def _arnoldi_step(H, psi, dt, tol, m_max, min_dt):
    """One Krylov substep of exp(-i H dt) @ psi, halved until it is accepted.

    Returns (dt, result) for the substep taken.  The basis grows one order at
    a time; two passes of block classical Gram-Schmidt orthogonalize each new
    vector.  Every ``EXPM_STRIDE`` orders, at breakdown and at ``m_max``, one
    ``expm`` of the order-(m+1) Arnoldi matrix (its last column zero) gives
    both ``c = beta * exp(-i dt H_m) e_1``, in its first column, and in its
    last row Saad's leading term of the local error, ``beta * dt * h_{m+1,m}
    * |e_m^T phi_1(-i dt H_m) e_1|`` (Saad, SIAM J. Numer. Anal. 29, 1992).
    Order m is accepted when that term is at most ``tol * ||c||``, or at
    breakdown, where the Krylov space is invariant; only then is the
    n-length result ``V_m^T c`` formed.  Saad's shorter estimate
    ``h_{m+1,m} |c[m-1]|`` is not used: it reads the residual at the end of
    the substep only, and on a strongly damped substep (N = 5, J = 0.4,
    h = 0.3, dt = 50) it accepted a result 300 times ``tol`` off.  When no
    order passes, dt is halved (down to ``min_dt``) on the same basis, which
    does not depend on dt, so a halved substep makes no matvec.
    """
    from scipy.linalg import expm
    from scipy.linalg.blas import dznrm2, zgemv

    beta = dznrm2(psi)
    if beta == 0:
        return dt, psi.copy()
    n = psi.shape[0]
    m_max = min(m_max, n)
    V = np.empty((m_max, n), dtype=np.complex128)
    Hm = np.zeros((m_max + 1, m_max + 1), dtype=np.complex128)
    V[0] = psi / beta

    def accepted(m, breakdown=False):
        # the order-(m+1) block as order m first saw it: its last column is
        # filled only when order m+1 is built
        A = -1j * dt * Hm[: m + 1, : m + 1]
        A[:, m] = 0
        E = expm(A)
        c = beta * E[:m, 0]
        if breakdown or beta * abs(E[m, 0]) <= tol * dznrm2(c):
            return zgemv(1.0, V[:m].T, c)
        return None

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
            if (result := accepted(m, breakdown)) is not None:
                return dt, result
        if m < m_max:
            V[m] = w / hnext
    # breakdown always accepts, so no order of this basis broke down
    orders = [*range(EXPM_STRIDE, m_max, EXPM_STRIDE), m_max]
    while True:
        dt *= 0.5
        log.debug("evolve: Krylov substep halved to %g", dt)
        if dt < min_dt:
            raise ConvergenceError("Krylov propagation substep underflow", residual=dt)
        for m in orders:
            if (result := accepted(m)) is not None:
                return dt, result


def evolve(
    H: SparseOperator,
    psi0: np.ndarray,
    t: float,
    tol: float = 1e-9,
) -> np.ndarray:
    """Krylov approximation of exp(-i H t) @ psi0 with adaptive substepping.

    A substep is accepted when Saad's estimate of its local error is at most
    ``tol`` times the norm of its result (see ``_arnoldi_step``); the errors
    of successive substeps add up.  The substep is halved, with a DEBUG
    record on the ``nhchain`` logger, whenever the Krylov space of size
    ``KRYLOV_DIM`` cannot meet that tolerance; the halved substep re-reads
    the Arnoldi matrix of the same basis, with no new matvec.  Each accepted
    substep doubles it again, but at most halfway to the last size that
    failed in this call, so it stays below that size.  The result is not
    renormalized: the norm decays physically.  A ``tol`` that is not finite
    or is below the double-precision rounding unit ``np.finfo(float).eps``
    raises ValueError before any matvec: Saad's test then passes only on a
    substep so short that its error term underflows.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"evolution time must be finite and >= 0, got {t}")
    if not TOL_MIN <= tol < np.inf:
        raise ValueError(
            f"tol must be finite and > 0, and at least the rounding unit "
            f"{TOL_MIN:.3g}, got {tol}"
        )
    from scipy.linalg.blas import dznrm2

    psi = np.ascontiguousarray(psi0, dtype=np.complex128).copy()
    if t == 0 or dznrm2(psi) == 0:
        return psi
    remaining = float(t)
    dt = remaining
    failed = np.inf
    while remaining > t * 1e-14:
        want = min(dt, remaining)
        dt, psi = _arnoldi_step(H, psi, want, tol, KRYLOV_DIM, t * 1e-12)
        if dt < want:
            failed = 2.0 * dt
        remaining -= dt
        dt = min(2.0 * dt, 0.5 * (dt + failed))
    return psi


def steady_state_krylov(
    H: SparseOperator,
    p: ChainParams,
    tol: float = 1e-9,
    max_iters: int = 500,
    seed: int = DEFAULT_SEED,
) -> SteadyState:
    """Steady state and gap from ARPACK's implicitly restarted Arnoldi.

    A ``tol`` that is not finite and > 0 raises ValueError.  A free-fermion
    gap ``majorana_gap(p)`` at or below the threshold
    ``majorana.default_tol_gap(gamma)`` raises ``EPProximityError`` before
    ARPACK runs: there many eigenvalues share the top imaginary part, and
    ARPACK can spend its restart budget failing to choose among them.
    Otherwise ``eigs(which="LI")`` computes the two eigenvalues of largest
    imaginary part, all that the steady state and the gap read, matrix-free
    through ``H.matvec``, from a start vector drawn from
    ``default_rng(seed)``, within at most ``max_iters`` implicit restarts.
    The first pair in spectral order is the steady state.  It is accepted
    only if its eigen-residual ``||H v - lambda v||`` is at most
    ``tol * max(1, |lambda|)``; otherwise, or when the restart budget runs
    out, ``ConvergenceError`` carries that residual (``inf`` when no pair
    converged at all).  ARPACK's own gap at or below the threshold also
    raises ``EPProximityError``.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    tol_gap = default_tol_gap(p.gamma)
    if (gap := majorana_gap(p)) <= tol_gap:
        raise EPProximityError(gap, tol_gap)
    dim = H.dim
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    A = LinearOperator((dim, dim), matvec=H.matvec, dtype=np.complex128)

    def residual(lam, vec):
        vec = vec / np.linalg.norm(vec)
        return float(np.linalg.norm(H.matvec(vec) - lam * vec))

    try:
        w, v = eigs(
            A,
            k=2,
            which="LI",
            v0=v0,
            tol=ARPACK_TOL_FACTOR * tol,
            maxiter=max_iters,
        )
    except ArpackNoConvergence as exc:
        partial = [
            residual(lam, exc.eigenvectors[:, j])
            for j, lam in enumerate(exc.eigenvalues)
        ]
        raise ConvergenceError(
            f"ARPACK did not converge in {max_iters} restarts",
            residual=min(partial, default=np.inf),
        ) from None
    k = spectral_order(w)[0]
    r = residual(w[k], v[:, k])
    if not r <= tol * max(1.0, abs(w[k])):
        raise ConvergenceError(
            f"ARPACK steady state fails the residual gate at tol={tol:.1e}",
            residual=r,
        )
    return _steady_state(p, w, v, "krylov")


def solve_steady_state(
    p: ChainParams,
    method: str = "auto",
    H: SparseOperator | None = None,
    tol: float = 1e-9,
    max_iters: int = 500,
    seed: int = DEFAULT_SEED,
) -> SteadyState:
    """Build the chain Hamiltonian and extract its steady state.

    ``method='auto'`` picks the dense path for N <= 5 and the Krylov path
    (ARPACK, :func:`steady_state_krylov`) above, the faster of the two on
    each side (see ``AUTO_DENSE_MAX_DIM``); pass ``method`` explicitly to
    override.  ``tol``, ``max_iters`` (the ARPACK restart budget) and
    ``seed`` reach only the Krylov path.  Both paths raise
    ``EPProximityError`` when the gap is at or below
    ``default_tol_gap(gamma)``.
    """
    if H is None:
        H = build_total(p)
    if method == "auto":
        method = "dense" if H.dim <= AUTO_DENSE_MAX_DIM else "krylov"
    if method == "dense":
        return steady_state_dense(H, p)
    if method == "krylov":
        return steady_state_krylov(H, p, tol=tol, max_iters=max_iters, seed=seed)
    raise ValueError(f"unknown method {method!r}; expected auto, dense or krylov")


def __getattr__(name):
    # ``spectral.la`` is scipy.linalg, loaded on first access: code that
    # wraps ``la.expm`` from outside (perfbench's tracer) still reaches the
    # ``expm`` that ``evolve`` looks up on each substep
    if name == "la":
        import scipy.linalg

        return scipy.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
