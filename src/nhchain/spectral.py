"""Eigen-analysis of the non-Hermitian chain generator.

Two solvers find the steady state, on one contract (:class:`SteadyState`):
each takes the gap and the steady-state eigenvalue lambda_0 from the
free-fermion modes, refuses a closed gap before any 2^N eigensolve, and
accepts only the pair within half the gap of lambda_0, where no other
eigenvalue lies.  The dense one diagonalizes the full matrix with
numpy.linalg (LAPACK ``zgeev``), up to dimension 4096 (N <= 12), and
offers the eigenvalue nearest lambda_0.  The matrix-free one offers the
one eigenpair of largest imaginary part from ARPACK
(``scipy.sparse.linalg.eigs(k=1, which="LI")`` on a Krylov subspace of
``ncv = min(ARPACK_NCV, dim)`` vectors).
``evolve`` applies a Krylov approximation of ``exp(-i H t)``: it
exponentiates the small Arnoldi matrix every ``EXPM_STRIDE`` orders and
accepts an order on Saad's a-posteriori estimate of the local error.
scipy is imported by the sparse generator (``build_total``), the Krylov
solver and ``evolve`` only.  ``solve_steady_state`` without an operator
builds the sparse generator for the Krylov path alone and hands the dense
path a numpy array (``build_dense``), so the free-fermion and dense paths
never load scipy.

Spectra are listed in one order (``spectral_order``): descending imaginary
part, ties (to within ``1e-9 max(1, max |lambda|)``) broken by ascending
real part.  No steady state is read off that order.

Returned steady-state vectors have unit Euclidean norm and a fixed phase
gauge: the largest-magnitude amplitude is real and positive (magnitude ties
within 1e-12 resolved by lowest index).

Random starting vectors are drawn from ``numpy.random.default_rng`` with the
fixed seed ``DEFAULT_SEED = 7`` unless a seed is passed explicitly.  A Krylov
QFI estimate draws one, for its first solve; each later solve of the
estimate starts from the steady state before it.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DenseSizeError
from .hamiltonian import ChainParams, build_dense, build_total
from .majorana import _steady_reference
from .operators import SparseOperator

log = logging.getLogger("nhchain")

DEFAULT_SEED = 7
DENSE_MAX_DIM = 4096
# ``auto`` solves dense up to this dimension (N <= 5) and by ARPACK above.
# Best of 14 ``solve_steady_state`` calls at J = 0.23, h = 0.2, tol = 1e-9,
# dense (numpy-built matrix, numpy.linalg) vs ARPACK (CSR operator, one
# pair, ``ARPACK_NCV`` vectors), lowest of three fresh processes, on a
# shared 2-core Xeon with numpy 2.4 and scipy 1.17 (OpenBLAS): with default
# BLAS threads 0.30 vs 1.5 ms at N = 4, 1.0 vs 1.4 ms at N = 5, 5.5 vs
# 2.0 ms at N = 6 and 25 vs 2.5 ms at N = 7; with OMP_NUM_THREADS=1 0.20 vs
# 1.1, 0.74 vs 1.3, 4.2 vs 1.5 and 20 vs 1.8 ms.
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
# ARPACK's Krylov subspace, ``ncv = min(ARPACK_NCV, dim)`` for the one pair.
# scipy's default, min(20, dim), restarts a basis that costs O(dim ncv^2) per
# restart and a larger ``zneupd``; the smaller basis takes more matvecs and
# less time.  With OMP_NUM_THREADS=1 on a shared 2-core Xeon (numpy 2.4,
# scipy 1.17), for ncv 20 / 6 / 8 / 10: the qfi-krylov sweep (Krylov QFI at
# N = 2..8 plus one N = 8 solve, sum of per-point minima over 6 x 15 sweeps)
# 32.0 / 23.9 / 23.6 / 24.2 ms; cold ``steady_state_krylov`` at tol = 1e-10
# (best of 15, or of 5 at N >= 13) 3.2 / 1.9 / 2.1 / 2.1 ms at N = 8,
# 20.8 / 17.0 / 14.6 / 15.4 ms at N = 12 and 129 / 80 / 91 / 89 ms at
# N = 14; within 1e-2 to 1e-5 of J_c (gaps down to 3.4e-3, N = 6..12, best
# of 9) never slower than 20.  Only at N = 4, where scipy's default is the
# whole space (16 vectors), is a cold solve slower: 1.05 against 0.68 ms.
ARPACK_NCV = 8


def spectral_order(w: np.ndarray) -> np.ndarray:
    """Permutation sorting eigenvalues by descending Im, then ascending Re.

    Neighbours in descending Im whose imaginary parts differ by at most
    ``1e-9 max(1, max |lambda|)`` are tied, and a run of such ties is one
    group ordered by Re.  Past the boundary ``lambda`` and
    ``-conj(lambda)`` share one imaginary part, which two eigensolvers
    round differently.  The tolerance is far above that rounding, so two
    routes to one spectrum list it in one order.  It orders spectra only:
    no steady state is picked by it (:class:`SteadyState`).
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
    """Slowest-decaying eigenpair, identified by its free-fermion eigenvalue.

    Both solvers keep one contract.  Before any 2^N eigensolve, one
    symmetric eigensolve of size N (``majorana._steady_reference``) gives
    the imaginary-part gap ``Im eps_0``, which is ``majorana_gap(p)`` bit
    for bit, and the steady-state eigenvalue
    ``lambda_0 = -i gamma N / 4 + 1/2 sum_k eps_k``.  A gap at or below
    ``default_tol_gap(gamma)`` raises ``EPProximityError``: no steady state
    is isolated at an exceptional point, nor in the Hermitian limit
    gamma = 0.  Every other eigenvalue lies at least the gap from
    lambda_0, so the solver's candidate (the eigenvalue of ``eig`` nearest
    lambda_0, or ARPACK's one pair) is the steady state only if it lies
    within half the gap of lambda_0; otherwise ``ConvergenceError`` is
    raised with the pair's eigen-residual.  ``eigenvalue`` and ``vector``
    are the solver's own, the vector in the gauge of :func:`phase_gauge`;
    ``gap`` is the free-fermion gap.
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


def _check_dense_size(dim: int) -> None:
    if dim > DENSE_MAX_DIM:
        raise DenseSizeError(
            f"dense path supports dimension <= {DENSE_MAX_DIM}, got {dim}; "
            "use the Krylov solver"
        )


def dense_eigenvalues(H: SparseOperator) -> np.ndarray:
    """All eigenvalues of H in spectral order, from a dense eigensolve."""
    _check_dense_size(H.dim)
    w = np.linalg.eigvals(H.dense())
    return w[spectral_order(w)]


def _residual(matvec, lam: complex, vec: np.ndarray) -> float:
    """Eigen-residual ``||H v - lambda v||`` of the pair, v at unit norm."""
    vec = vec / np.linalg.norm(vec)
    return float(np.linalg.norm(matvec(vec) - lam * vec))


def _identified(
    p: ChainParams,
    lam: complex,
    vec: np.ndarray,
    ref: tuple[complex, float],
    method: str,
    matvec,
) -> SteadyState:
    """The candidate pair as the steady state, if it lies within half the gap
    of ``lambda_0``; ``ref = (lambda_0, gap)`` (:class:`SteadyState`)."""
    lam0, gap = ref
    if not abs(lam - lam0) < 0.5 * gap:
        raise ConvergenceError(
            f"{method} pair {lam:.6g} is not the steady state {lam0:.6g}: "
            f"they differ by at least half the gap {gap:.3g}",
            residual=_residual(matvec, lam, vec),
        )
    return SteadyState(
        params=p, eigenvalue=lam, vector=phase_gauge(vec), gap=gap, method=method
    )


def _eig_steady_state(p: ChainParams, H: SparseOperator | None = None) -> SteadyState:
    """The steady state from ``eig`` of H, or of ``build_dense(p)`` without one.

    The free-fermion reference comes first, so a closed gap is refused
    before the generator is built or diagonalized.
    """
    ref = _steady_reference(p)
    A = build_dense(p) if H is None else H.dense()
    w, v = np.linalg.eig(A)
    k = int(np.argmin(np.abs(w - ref[0])))
    return _identified(p, complex(w[k]), v[:, k], ref, "dense", A.dot)


def _check_operator_size(H: SparseOperator, p: ChainParams) -> None:
    if H.dim != p.dim:
        raise ValueError(
            f"operator dimension {H.dim} does not match the chain's 2^{p.N} = {p.dim}"
        )


def steady_state_dense(H: SparseOperator, p: ChainParams) -> SteadyState:
    """Slowest-decaying eigenpair from a dense eigendecomposition.

    An operator whose dimension is not ``p.dim`` raises ValueError, and
    one above ``DENSE_MAX_DIM`` raises ``DenseSizeError``, before anything
    is solved.  The pair is identified as :class:`SteadyState` states.
    """
    _check_operator_size(H, p)
    _check_dense_size(H.dim)
    return _eig_steady_state(p, H)


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
    # real reciprocals: a complex division by a real norm costs more
    np.multiply(psi, 1.0 / beta, out=V[0])

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
            np.multiply(w, 1.0 / hnext, out=V[m])
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


def _check_solver_args(tol: float, max_iters: int) -> None:
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    # bool is an int subclass, but True is no count
    if (
        isinstance(max_iters, bool)
        or not isinstance(max_iters, (int, np.integer))
        or max_iters < 1
    ):
        raise ValueError(f"max_iters must be an integer >= 1, got {max_iters!r}")


def _seeded_start(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def _arpack_steady_state(
    H: SparseOperator, p: ChainParams, v0: np.ndarray, tol: float, max_iters: int
) -> SteadyState:
    """The steady state as one ARPACK pair from ``v0``, identified exactly.

    The free-fermion reference comes first, so a closed gap is refused
    before ARPACK runs (:class:`SteadyState`).  ARPACK restarts a Krylov
    subspace of ``ncv = min(ARPACK_NCV, dim)`` vectors, not scipy's
    ``min(20, dim)``: it takes more matvecs and less time.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    ref = _steady_reference(p)
    dim = H.dim
    # ARPACK's stopping test is relative to the Ritz value, and where the
    # steady eigenvalue is zero to rounding (J = h = 0 at N >= 4, J below
    # ~1e-7 at N = 8) it returned the second pair.  So it runs on the
    # traceless H + i gamma N / 4, whose steady eigenvalue 1/2 sum_k eps_k
    # is at least N gap / 2 in modulus.
    shift = 0.25j * p.gamma * p.N
    A = LinearOperator(
        (dim, dim), matvec=lambda v: H.matvec(v) + shift * v, dtype=np.complex128
    )
    try:
        w, v = eigs(
            A,
            k=1,
            which="LI",
            v0=v0,
            ncv=min(ARPACK_NCV, dim),
            tol=ARPACK_TOL_FACTOR * tol,
            maxiter=max_iters,
        )
    except ArpackNoConvergence as exc:
        partial = [
            _residual(H.matvec, lam - shift, exc.eigenvectors[:, j])
            for j, lam in enumerate(exc.eigenvalues)
        ]
        raise ConvergenceError(
            f"ARPACK did not converge in {max_iters} restarts",
            residual=min(partial, default=np.inf),
        ) from None
    lam, vec = complex(w[0]) - shift, v[:, 0]
    r = _residual(H.matvec, lam, vec)
    if not r <= tol * max(1.0, abs(lam)):
        raise ConvergenceError(
            f"ARPACK steady state fails the residual gate at tol={tol:.1e}",
            residual=r,
        )
    return _identified(p, lam, vec, ref, "krylov", H.matvec)


def _warm_krylov_solver(
    tol: float = 1e-9, max_iters: int = 500, seed: int = DEFAULT_SEED
):
    """Krylov steady states of a walk of nearby chains, each warm-started.

    Returns ``solve(p)``, which builds the chain's operator and finds its
    steady state as :func:`steady_state_krylov` does.  The first call starts
    ARPACK from the vector that ``default_rng(seed)`` draws; each later call
    starts from the previous call's steady-state vector, which lies close to
    the next one when the chains differ by a small step.
    """
    _check_solver_args(tol, max_iters)
    start = None

    def solve(p: ChainParams) -> SteadyState:
        nonlocal start
        H = build_total(p)
        if start is None:
            start = _seeded_start(H.dim, seed)
        ss = _arpack_steady_state(H, p, start, tol, max_iters)
        start = ss.vector
        return ss

    return solve


def steady_state_krylov(
    H: SparseOperator,
    p: ChainParams,
    tol: float = 1e-9,
    max_iters: int = 500,
    seed: int = DEFAULT_SEED,
) -> SteadyState:
    """Steady state from one ARPACK eigenpair, identified by its free-fermion value.

    A ``tol`` that is not finite and > 0, a ``max_iters`` that is not an
    integer >= 1, or an operator whose dimension is not ``p.dim``, raises
    ValueError before anything is built or solved.  A closed gap is refused
    before ARPACK runs, where many eigenvalues share the top imaginary part
    and ARPACK could spend its restart budget failing to choose among them;
    the gap, lambda_0 and the identification follow :class:`SteadyState`.
    ``eigs(k=1, which="LI", ncv=min(ARPACK_NCV, dim))`` computes the one
    eigenpair of largest imaginary part, matrix-free through ``H.matvec``,
    from a start vector drawn from ``default_rng(seed)``, within at most
    ``max_iters`` implicit restarts of its ``ncv``-vector Krylov subspace.
    The pair must also pass a residual gate: its eigen-residual
    ``||H v - lambda v||`` at most ``tol * max(1, |lambda|)``.  A failed
    gate, or a restart budget that runs out, raises ``ConvergenceError``
    with the residual (``inf`` when no pair converged at all).
    """
    _check_solver_args(tol, max_iters)
    _check_operator_size(H, p)
    return _arpack_steady_state(H, p, _seeded_start(H.dim, seed), tol, max_iters)


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
    override.  Without ``H``, the dense path assembles the generator as a
    numpy array (``build_dense``, bit-identical to ``build_total(p).dense()``)
    and loads no scipy; a dimension above ``DENSE_MAX_DIM`` raises
    ``DenseSizeError`` before anything is allocated.  ``tol``, ``max_iters``
    (the ARPACK restart budget) and ``seed`` (of ARPACK's start vector; a
    Krylov QFI estimate draws it for its first solve only) reach only the
    Krylov path (:func:`steady_state_krylov`).  A ``tol`` that is not
    finite and > 0 or a ``max_iters`` that is not an integer >= 1 raises
    ValueError on either path, as does an ``H`` whose dimension is not
    ``p.dim``, before anything is built or solved.  Both paths identify
    the steady state, and refuse an exceptional point before any 2^N
    eigensolve, as :class:`SteadyState` states.
    """
    _check_solver_args(tol, max_iters)
    if method == "auto":
        method = "dense" if p.dim <= AUTO_DENSE_MAX_DIM else "krylov"
    if method == "dense":
        if H is not None:
            return steady_state_dense(H, p)
        _check_dense_size(p.dim)
        return _eig_steady_state(p)
    if method == "krylov":
        if H is None:
            H = build_total(p)
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
