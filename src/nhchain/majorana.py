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
``R = D B D^-1``, D a diagonal unitary, whose one real eigensolve with
right vectors, numpy.linalg (LAPACK ``dgeev``), gives the QFI (B's vectors
are ``D^-1`` times R's).

The modes need less.  R = [[0, b^T], [b, R_0]], with ``b = -2h (cos(theta),
sin(theta))`` on site 1's two Majoranas.  A diagonal +-1 gauge makes every
bond +J, and the sine transform ``q_k = pi k / (N+1)`` then splits R_0 into
2x2 blocks ``(gamma/2) [[0, -1], [1, 0]] + 2J cos(q_k) sx`` of square
``mu_k^2 = 4 J^2 cos^2(q_k) - gamma^2 / 4``.  The Schur complement on row 0
gives the secular equation ``1 = 4 h^2 sum_k w_k / (eps^2 - mu_k^2)``, with
``w_k = (2 / (N+1)) sin^2(q_k)``: the terms odd in cos(q_k), the only ones
that carry theta, cancel between k and N+1-k.  That is the secular equation
of ``diag(mu^2) + 4 h^2 u u^T``, ``u_k = sqrt(w_k)`` (Golub, SIAM Rev. 15,
318, 1973), which the sine transform takes to the real symmetric N x N

    S = J^2 A^2 - (gamma^2 / 4) I + 4 h^2 e_1 e_1^T,

A the adjacency matrix of the open path.  Its eigenvalues are the eps_k^2,
so every mode is real or purely imaginary, and :func:`_secular` builds S
for one symmetric eigensolve, numpy.linalg (LAPACK ``dsyevd``).  As R is
written from a per-N table of its bands (:func:`_bands`), S is written from
one of its own (:func:`_secular_bands`): building S then costs a fraction
of the eigensolve, not as much again.

Theta is a staggered rotation, ``H(theta) = U H(0) U^dag`` with
``U = exp(-i theta G)``, ``G = 1/2 sum_n (-1)^(n-1) sz_n``: the loss term is
diagonal, the phases of ``sp_n sp_{n+1}`` cancel on every bond, and the
field turns by theta.  So no spectrum, gap or exceptional point depends on
theta at any N, the steady state is ``U psi(0)``, and the QFI about theta
is ``4 Var(G)`` in the normalised steady state.

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

import functools
import math

import numpy as np
from numpy.linalg import eig, eigvalsh, qr, solve

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
    (:func:`_bands`), so one fancy assignment writes them.  Its caller
    :func:`_gram` first refuses any chain whose S overflows
    (:func:`_secular`), so R's entries are finite.
    """
    n = 2 * p.N + 1
    where, which = _bands(p.N)
    R = np.zeros(n * n)
    R[where] = np.array((-0.5 * p.gamma, 0.5 * p.gamma, p.J, -p.J))[which]
    R = R.reshape(n, n)
    R[0, 1] = R[1, 0] = -2.0 * p.h * np.cos(p.theta)
    R[0, 2] = R[2, 0] = -2.0 * p.h * np.sin(p.theta)
    return R


@functools.lru_cache(maxsize=16)
def _secular_bands(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions in S (size N) of its nonzero entries, and which of
    ``(2 J^2 - gamma^2/4, J^2 - gamma^2/4, J^2)`` each one holds."""
    code = np.zeros(N * N, dtype=np.int8)
    # the diagonal, then S[k, k+2] and S[k+2, k] (k = 0..N-3): strided views
    # of the flat matrix, the first stopped where its stride would wrap a row
    code[:: N + 1] = 1
    code[0] = code[-1] = 2
    code[2 : (N - 2) * (N + 1) : N + 1] = code[2 * N :: N + 1] = 3
    where = np.flatnonzero(code)
    which = code[where] - 1
    where.setflags(write=False)
    which.setflags(write=False)
    return where, which


def _secular(p: ChainParams) -> np.ndarray:
    """The real symmetric N x N matrix S whose eigenvalues are the eps_k^2.

    ``S = J^2 A^2 - (gamma^2 / 4) I + 4 h^2 e_1 e_1^T``: A^2 has 2 on the
    diagonal, 1 at both ends, where a site has one neighbour, and 1 two
    sites apart.  Every entry and every eigenvalue of S is at most
    ``4 J^2 + gamma^2 / 4 + 4 h^2`` in modulus, so a chain that overflows
    that bound raises ValueError.  The positions of the nonzero entries
    depend on N only and are kept (:func:`_secular_bands`), as R's are
    (:func:`_bands`), so one fancy assignment writes them.
    """
    J2, g, f = p.J * p.J, 0.25 * p.gamma * p.gamma, 4.0 * p.h * p.h
    if not math.isfinite(4.0 * J2 + g + f):
        raise ValueError(
            "S or its eigenvalues would contain infs or NaNs: 4 J^2 + gamma^2/4 "
            f"+ 4 h^2 must be finite, got J = {p.J:g}, gamma = {p.gamma:g}, h = {p.h:g}"
        )
    where, which = _secular_bands(p.N)
    S = np.zeros(p.N * p.N)
    S[where] = np.array((2.0 * J2 - g, J2 - g, J2))[which]
    S[0] += f
    return S.reshape(p.N, p.N)


def majorana_modes(p: ChainParams) -> np.ndarray:
    """Single-particle energies eps_k, k = 1..N, one per +-eps pair.

    Each eps_k is ``sqrt(eps_k^2)`` with ``Im eps_k >= 0``, so a real mode
    is positive and an imaginary one ``i sqrt(-eps_k^2)``, and the array is
    sorted by ascending imaginary part.  The many-body spectrum is
    ``-i gamma N / 4 + 1/2 sum_k s_k eps_k`` over the 2^N sign choices, the
    steady state takes every s_k = +1, and the imaginary-part gap is
    ``Im eps_0``.  The eps_k^2 are the eigenvalues of S (:func:`_secular`).
    """
    return np.sqrt(eigvalsh(_secular(p))[::-1].astype(complex))


def majorana_gap(p: ChainParams) -> float:
    """Imaginary-part gap ``min_k Im eps_k = sqrt(max(0, -lambda_max(S)))``, >= 0.

    Flipping the sign of the slowest mode is the cheapest step down from the
    steady state.  At an exact exceptional point lambda_max(S) is 0 to the
    rounding of a symmetric eigensolve, so the result is its square root:
    at most 1.1e-8 gamma at the exact two-site and zero-field EPs up to
    N = 400.
    """
    return math.sqrt(max(0.0, -eigvalsh(_secular(p))[-1]))


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

    A gap (:func:`majorana_gap`) at or below ``tol_gap`` is refused before R
    is factorised, and so is a factorisation that rounds a mode below it.
    The memo holds the last point only, so the one reuse is a second target
    at the same point; ``EPProximityError`` is raised on every call and
    never stored.
    """
    gap = majorana_gap(p)
    if gap <= tol_gap:
        raise EPProximityError(gap, tol_gap)
    lam, vr = eig(_real_form(p))
    S = np.flatnonzero(lam.imag > 0.5 * tol_gap)
    k = S.size
    if k != p.N:
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
    (:func:`_real_form`), numpy.linalg (LAPACK ``dgeev``), gives
    B's eigenvectors, ``D^-1`` times R's, and first-order perturbation,
    ``dv_k = sum_j v_j (V^-1 dB V)_jk / (lam_k - lam_j)``, gives dL; only
    the modes outside L enter the sum, so clustered or degenerate modes
    cost no accuracy.  One QR of B's eigenvector matrix, ``V = QU``, and one
    solve with U give the basis change T, the complement of L and the rows
    of V^-1 that the sum reads, so W is taken in that complement's
    coordinates (see :func:`_gram`).  In the basis of :func:`_gram` the two
    targets are the directions (1, 0) and (0, h), so
    ``F = 2 Re(G) * outer((1, h), (1, h))`` for its Gram matrix G.  Raises
    ``EPProximityError`` when the gap (:func:`majorana_gap`) is at or below
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
