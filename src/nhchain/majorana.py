"""Free-fermion (Majorana) solution of the chain generator at any N.

The chain is quadratic in fermions once an ancilla spin 0 is added and the
edge field is rewritten as ``h sx_0 (cos(theta) sx_1 + sin(theta) sy_1)``:
``sx_0`` commutes with this generator, and each of its two sectors has the
spectrum of the original chain.  The Jordan-Wigner Majoranas
``g_{2n} = S_n sx_n``, ``g_{2n+1} = S_n sy_n`` with ``S_n = prod_{m<n} sz_m``
(Lieb, Schultz and Mattis 1961; Prosen, New J. Phys. 10, 043026, 2008) turn it
into ``-i gamma N / 4 + sum_{j<k} A_jk g_j g_k`` with, for j < k,

    A[2n+1, 2n+2] = A[2n, 2n+3] = -i J / 2     for each bond (n, n+1),
    A[2n, 2n+1]                 = -gamma / 4    for each site n = 1..N,
    A[1, 2] = -i h cos(theta),  A[1, 3] = -i h sin(theta).

``g_0`` never appears, so its row and column are dropped.  The remaining
matrix ``B = 2 A[1:, 1:]`` is antisymmetric of odd size 2N+1: its eigenvalues
are one structural zero and N pairs ``+-eps_k``, and the many-body spectrum
is ``-i gamma N / 4 + 1/2 sum_k s_k eps_k`` over all sign choices s_k = +-1.

B itself is never built: :func:`_real_form` writes the real matrix
``R = D B D^-1``, D a diagonal unitary, whose one real eigensolve,
numpy.linalg (LAPACK ``dgeev``), gives the modes, the gap and, with right
vectors (B's are ``D^-1`` times R's), the QFI.

The steady state is the fermionic Gaussian state annihilated by the N modes
of B with ``Im eps > 0`` and by the zero mode ``g_0 + i z.g`` (z the null
vector of B, ``z^T z = 1``); :func:`majorana_qfi_matrix` differentiates the
projector onto that annihilator space exactly, which gives the steady-state
QFI matrix about (h, theta) at any N from (2N+1)-dimensional matrices.

Only the edge entries ``R[0, 1:3]`` (and their mirror) move with h or
theta, so the derivative of the projector is linear in that 2-vector: one
eigendecomposition of R per parameter point gives a 2x2 Gram matrix from
which both diagonal entries and the off-diagonal ``F_h,theta`` follow (the
latter vanishes to rounding).  Past the eigensolve that takes one QR
factorisation of the full eigenvector matrix ``V = QU`` and one solve with
its triangular factor U: Q splits the space into the annihilator space and
its complement, and U holds both the basis change of the annihilator space
and, through ``V^-1 = U^-1 Q^H``, the rows of V^-1 that the perturbation
needs (:func:`_gram`).  :func:`majorana_qfi` reads one diagonal entry.  The
Gram matrix of the last point is kept (a memo of size one), so asking for
``h`` and then ``theta`` at the same point factorises once.
"""

import cmath
import functools
import math

import numpy as np
from numpy.linalg import eig, eigvals, qr, solve

from .errors import EPProximityError
from .hamiltonian import ChainParams

# the order of the rows and columns of the QFI matrix
TARGETS = ("h", "theta")
TOL_GAP_FACTOR = 1e-6


def default_tol_gap(gamma: float) -> float:
    """Gap threshold at or below which every path refuses an exceptional point."""
    return TOL_GAP_FACTOR * (gamma if gamma > 0 else 1.0)


@functools.lru_cache(maxsize=16)
def _bands(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions in R (size 2N+1) of its loss and bond entries, and
    which of ``(-gamma/2, gamma/2, J, -J)`` each one holds."""
    n = 2 * N + 1
    code = np.zeros(n * n, dtype=np.int8)
    # element r of `sup1` and `sup3` is R[r, r+1] and R[r, r+3], and of `sub1`
    # and `sub3` R[r+1, r] and R[r+3, r]: strided views of the flat matrix
    # (the third bands stop at r = n-4, where the stride would wrap a row)
    sup1, sub1 = code[1 :: n + 1], code[n :: n + 1]
    sup3, sub3 = code[3 : (n - 3) * (n + 1) : n + 1], code[3 * n :: n + 1]
    sup1[1::2], sub1[1::2] = 1, 2  # g_{2k} g_{2k+1}: -gamma/2 and gamma/2
    # g_{2k+1} g_{2k+2} and g_{2k} g_{2k+3}, bond (k, k+1): (-1)^(k-1) J
    sup1[2::2] = sub1[2::2] = sup3[1::2] = sub3[1::2] = 3
    sup1[4::4] = sub1[4::4] = sup3[3::4] = sub3[3::4] = 4
    where = np.flatnonzero(code)
    which = code[where] - 1
    where.setflags(write=False)
    which.setflags(write=False)
    return where, which


def _real_form(p: ChainParams) -> np.ndarray:
    """The real single-particle matrix ``R = D B D^-1`` of size 2N+1.

    ``D = diag(i^m_r)``, m_r the parity of the site of the Majorana in row r
    (row 0, the ancilla's g_1, takes parity 0, opposite to site 1).  With row
    r holding g_{r+1}, R's nonzero entries are

        R[2k-1, 2k] = -R[2k, 2k-1] = -gamma / 2      site k = 1..N,
        R[2k, 2k+1] = R[2k-1, 2k+2] = (-1)^(k-1) J   bond (k, k+1),
        R[0, 1] = -2 h cos(theta),  R[0, 2] = -2 h sin(theta),

    with the bond and edge entries mirrored: R[c, r] = R[r, c].  The
    positions of the loss and bond entries depend on N only and are kept
    (:func:`_bands`), so one fancy assignment writes them.  A finite
    ``ChainParams`` can overflow only 2 h, which raises ValueError.
    """
    if not math.isfinite(2.0 * p.h):
        raise ValueError(
            "Majorana matrix B would contain infs or NaNs: its entries "
            f"gamma/2, J and 2h must be finite, got h = {p.h:g}"
        )
    n = 2 * p.N + 1
    where, which = _bands(p.N)
    R = np.zeros(n * n)
    R[where] = np.array((-0.5 * p.gamma, 0.5 * p.gamma, p.J, -p.J))[which]
    R = R.reshape(n, n)
    R[0, 1] = R[1, 0] = -2.0 * p.h * np.cos(p.theta)
    R[0, 2] = R[2, 0] = -2.0 * p.h * np.sin(p.theta)
    return R


def majorana_modes(p: ChainParams) -> np.ndarray:
    """Single-particle energies eps_k, k = 1..N, one per +-eps pair.

    Each eps_k is taken with ``Im eps_k >= 0`` and the array is sorted by
    ascending imaginary part.  The many-body spectrum is
    ``-i gamma N / 4 + 1/2 sum_k s_k eps_k`` over the 2^N sign choices, the
    steady state takes every s_k = +1, and the imaginary-part gap is
    ``Im eps_0``.  The eigenvalues come from one real eigensolve,
    numpy.linalg (LAPACK ``dgeev``), of the matrix R of :func:`_real_form`.
    """
    eps = _modes(eigvals(_real_form(p)))
    return eps[np.argsort(eps.imag, kind="stable")]


def _modes(c: np.ndarray) -> np.ndarray:
    """The N modes, unsorted, with ``Im >= 0`` from the 2N+1 eigenvalues of B."""
    # numpy returns a real array when every eigenvalue is real, as at gamma = 0
    c = c.astype(complex, copy=False)
    c = c[np.abs(c).argsort()]
    # c[:3] are the structural zero and the smallest pair.  At an exceptional
    # point the three form a 3x3 Jordan block whose eigenvalues scatter by
    # eps_machine^(1/3), but the sum of their squares, 2 eps^2, stays well
    # conditioned.  The other pairs are adjacent in this order because both
    # members of a pair have the same modulus up to rounding (exactly, for
    # the conjugate pair +-i y that a real eigensolve returns).
    eps = c[1::2]
    eps[0] = cmath.sqrt((c[:3] ** 2).sum() / 2.0)
    eps[eps.imag < 0] *= -1
    return eps


def majorana_gap(p: ChainParams) -> float:
    """Imaginary-part gap ``min_k Im eps_k`` of the many-body spectrum, >= 0.

    Flipping the sign of the slowest mode is the cheapest step down from the
    steady state.  At an exact exceptional point the result is 0 to ~2e-8,
    the rounding floor of a double-precision eigensolve there.
    """
    return float(_modes(eigvals(_real_form(p))).imag.min())


@functools.lru_cache(maxsize=1)
def _gram(p: ChainParams, tol_gap: float) -> np.ndarray:
    """Read-only Gram matrix ``G_ab = <W_a, W_b>`` of the two unit responses.

    ``W = (I - P) dL T^-1`` for ``L = [V_S, z] = Q_1 T`` and
    ``P = Q_1 Q_1^H`` is linear in the edge derivative of R, so one
    eigendecomposition with right vectors, numpy.linalg (LAPACK ``dgeev``),
    serves every direction: ``W_0`` is the response to ``d/dh`` and ``W_1``
    to ``d/dtheta / h``.  That basis keeps each diagonal entry of the QFI a
    squared norm, with no cancellation at small h.

    The rest is one QR and one solve.  Take the eigenvectors
    ``V = [V_S, z, C] = QU``, C the conjugate modes, Q unitary and U upper
    triangular.  Q's first k+1 columns Q_1 span L, so ``T = U_11`` and
    ``I - P = Q_2 Q_2^H``, and the rows of ``V^-1 = U^-1 Q^H`` past L are
    ``U_22^-1 Q_2^H``.  First-order perturbation gives ``dL = C X``, and
    ``Q_2^H C = U_22``, so ``W = Q_2 W'`` with ``W' = U_22 X T^-1``: both
    have the Gram matrix G, and neither dL nor its projection is formed.
    The QR factorises ``[V, e_0, e_1, e_2]``: its triangular factor is
    ``[U, Q^H[:, :3]]``, so Q itself is never formed.  One
    ``solve(U, [e_0 .. e_k, Q^H[:, :3]])`` then returns T^-1, in its top
    left block, and ``V^-1[:, :3]``, whose rows past L are the three
    columns of ``U_22^-1 Q_2^H`` that X reads.

    The memo holds the last point only, so the one reuse is a second target
    at the same point; ``EPProximityError`` is raised on every call and
    never stored.
    """
    lam, vr = eig(_real_form(p))
    gap = float(_modes(lam).imag.min())
    S = np.flatnonzero(lam.imag > 0.5 * tol_gap)
    k = S.size
    if gap <= tol_gap or k != p.N:
        raise EPProximityError(gap, tol_gap)
    # D is unitary, so the response is taken in R's basis.  The columns of V
    # are the annihilated modes, the zero mode and the conjugate modes.
    vs = vr[:, S]
    V = np.hstack((vs, vr[:, np.argmin(np.abs(lam)), None], vs.conj()))
    lam = np.concatenate((lam[S], [0.0], lam[S].conj()))
    # only R[:3, :3] moves with h or theta: E_0 is its derivative in h and
    # E_1 in theta over h, and three columns of V^-1 give M_a = V^-1 dR_a V
    c, s = 2.0 * np.cos(p.theta), 2.0 * np.sin(p.theta)
    E = np.array(
        [[[0, -c, -s], [-c, 0, 0], [-s, 0, 0]], [[0, s, -c], [s, 0, 0], [-c, 0, 0]]]
    )
    # Z's top left block is T^-1, and its right block past L is
    # U_22^-1 Q_2^H[:, :3]
    n = V.shape[0]
    UQ = qr(np.hstack((V, np.eye(n, 3))), mode="r")
    U = UQ[:, :n]
    Z = solve(U, np.hstack((np.eye(n, k + 1), UQ[:, n:])))
    # dv_k = sum_j v_j M_jk / (lam_k - lam_j) for the columns k of L, with j
    # over the conjugate modes only: components along L vanish under I - P,
    # and no denominator does, even for clustered or degenerate modes.  So
    # dL = C X, and W' = U_22 X T^-1 has the Gram matrix of W = Q_2 W'.
    X = Z[k + 1 :, k + 1 :] @ (E @ V[:3, : k + 1])
    X /= lam[: k + 1] - lam[k + 1 :, None]
    W = (U[k + 1 :, k + 1 :] @ X @ Z[: k + 1, : k + 1]).reshape(2, -1)
    G = W.conj() @ W.T
    G = (G + G.conj().T) / 2.0
    G.setflags(write=False)
    return G


def majorana_qfi_matrix(p: ChainParams) -> np.ndarray:
    """Exact steady-state QFI matrix about (h, theta) at any N, shape (2, 2).

    ``F_ab = 1/4 Tr(d_a Gamma^T d_b Gamma)`` for the real covariance
    ``Gamma = -i(I - 2P)``, P the projector onto the annihilator space
    ``[V_S, e_0 + i z]`` padded with the g_0 row (V_S the k = N modes with
    ``Im eps > 0``); in (h, theta) order, real and symmetric.  F is the
    metric of that subspace: ``F_ab = 2 Re <W_a, W_b>`` with
    ``W = (I - P) dL T^-1`` for any smooth basis ``L = Q_1 T`` of it.  The
    metric does not depend on the weight of e_0.  The part of z orthogonal
    to V_S is a fixed real vector u, orthogonal to V_S and its conjugate,
    and a weight beta on e_0 splits the response along u between the mode
    columns, ``1 / (1 + |beta|^2)``, and the zero-mode column,
    ``|beta|^2 / (1 + |beta|^2)``.  So F is the metric of ``L = [V_S, z]``
    in B's own 2N+1 dimensions, with z at any scale; that basis stays well
    conditioned where ``z^T z -> 0`` at an EP.  One real eigensolve of R
    (:func:`_real_form`), numpy.linalg (LAPACK ``dgeev``), gives the gap and
    B's eigenvectors, ``D^-1`` times R's, and first-order perturbation,
    ``dv_k = sum_j v_j (V^-1 dB V)_jk / (lam_k - lam_j)``, gives dL; only
    the modes outside L enter the sum, so clustered or degenerate modes
    cost no accuracy.  One QR of B's eigenvector matrix, ``V = QU``, and one
    solve with U give the basis change T, the complement of L and the rows
    of V^-1 that the sum reads, so W is taken in that complement's
    coordinates (see :func:`_gram`).  In the basis of :func:`_gram` the two
    targets are the directions (1, 0) and (0, h), so
    ``F = 2 Re(G) * outer((1, h), (1, h))`` for its Gram matrix G.  Raises
    ``EPProximityError`` when the gap is at or below
    ``default_tol_gap(gamma)``, as the steady-state solvers do.
    """
    G = _gram(p, default_tol_gap(p.gamma))
    s = np.array([1.0, p.h])
    return 2.0 * G.real * np.outer(s, s)


def majorana_qfi(p: ChainParams, target: str) -> float:
    """Exact steady-state QFI about ``h`` or ``theta`` at any N.

    The diagonal entry of :func:`majorana_qfi_matrix` for ``target``, bit
    for bit, read from the Gram matrix of :func:`_gram` without forming the
    2x2 matrix.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    G = _gram(p, default_tol_gap(p.gamma))
    if target == "h":
        return float(2.0 * G[0, 0].real)
    return float(2.0 * G[1, 1].real * (p.h * p.h))
