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

B itself is never built.  ``D = diag(i^m_r)``, m_r the parity of the site
of g_{r+1} (row 0, the ancilla's g_1, takes parity 0), makes it real:
``R = D B D^-1`` has the entries

    R[2k-1, 2k] = -R[2k, 2k-1] = -gamma / 2      site k = 1..N,
    R[2k, 2k+1] = R[2k-1, 2k+2] = (-1)^(k-1) J   bond (k, k+1),
    R[0, 1] = -2 h cos(theta),  R[0, 2] = -2 h sin(theta),

mirrored but for the loss, and B's vectors are ``D^-1`` times R's.

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
for one symmetric eigensolve, numpy.linalg (LAPACK ``dsyevd``), from a per-N
table of its bands (:func:`_secular_bands`) that makes the build cheap.

Theta is a staggered rotation, ``H(theta) = U H(0) U^dag`` with
``U = exp(-i theta G)``, ``G = 1/2 sum_n (-1)^(n-1) sz_n``: the loss term is
diagonal, the phases of ``sp_n sp_{n+1}`` cancel on every bond, and the
field turns by theta.  So no spectrum, gap or exceptional point depends on
theta at any N, the steady state is ``U psi(0)``, and the QFI about theta
is ``4 Var(G)`` in the normalised steady state.  On the Majoranas the same
rotation is orthogonal: ``R(theta) = O R(0) O^T``, where O is the identity
on row 0 and turns the rows (2k-1, 2k) of site k by ``(-1)^(k-1) theta``.

The steady state is the fermionic Gaussian state annihilated by the N modes
of B with ``Im eps > 0`` and by the zero mode ``g_0 + i z.g`` (z the null
vector of B, ``z^T z = 1``); :func:`majorana_qfi_matrix` differentiates the
projector onto that annihilator space exactly, which gives the steady-state
QFI matrix about (h, theta) at any N from (2N+1)-dimensional matrices.

In the order even rows (0, 2, .., 2N), then odd, ``R(0) = [[0, K], [L, 0]]``
with the (N+1) x N ``K[0, 0] = -2h``, ``K[k, k-1] = gamma/2`` and
``K[k, k] = K[k+1, k-1] = (-1)^(k-1) J`` (:func:`_coupling`); L is its
transpose with gamma negated, and ``L K = D' S D'`` for
``D' = diag((-1)^floor(k/2))``.  So the eigensolve ``S U = U diag(mu)`` of
the gap gives every eigenvector of R(0): with ``u = D' U``, mode k is
``K u_k`` on the even rows and ``eps_k u_k`` on the odd ones,
``eps_k = i sqrt(-mu_k)``, annihilated as every mu is negative in the
gapped phase, and its conjugate belongs to ``-eps_k``.  The zero mode is
``(I - K (L K)^-1 L) e_0`` on the even rows and 0 on the odd ones, or, as
``L e_0 = -2h e_0``, ``e_0 + 2h K u (U[0] / mu)``.

Only the edge entries ``R[0, 1:3]`` (and their mirror) move with h or
theta, so the derivative of the projector is linear in that 2-vector, and O
carries R, its eigenvectors and that derivative to theta = 0 and leaves the
result as it is.  One eigensolve of S, one QR of the eigenvector matrix and
one solve per parameter point give a 2x2 Gram matrix from which both
diagonal entries and the off-diagonal ``F_h,theta`` follow (the latter
vanishes to rounding; :func:`_gram`).  :func:`majorana_qfi` reads one
diagonal entry.  The Gram matrix of the last point is kept (a memo of size
one), so asking for ``h`` and then ``theta`` at the same point factorises once.
"""

import functools
import math

import numpy as np
from numpy.linalg import eigh, eigvalsh, norm, qr, solve

from .errors import EPProximityError
from .hamiltonian import ChainParams

# the order of the rows and columns of the QFI matrix
TARGETS = ("h", "theta")
TOL_GAP_FACTOR = 1e-6


def default_tol_gap(gamma: float) -> float:
    """Gap threshold at or below which every path refuses an exceptional point."""
    return TOL_GAP_FACTOR * (gamma if gamma > 0 else 1.0)


def _table(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat positions of the nonzero codes, and code - 1 at each."""
    where = np.flatnonzero(code)
    which = code[where] - 1
    where.setflags(write=False)
    which.setflags(write=False)
    return where, which


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
    return _table(code)


def _secular(p: ChainParams) -> np.ndarray:
    """The real symmetric N x N matrix S whose eigenvalues are the eps_k^2.

    ``S = J^2 A^2 - (gamma^2 / 4) I + 4 h^2 e_1 e_1^T``: A^2 has 2 on the
    diagonal, 1 at both ends, where a site has one neighbour, and 1 two
    sites apart.  Every entry and every eigenvalue of S is at most
    ``4 J^2 + gamma^2 / 4 + 4 h^2`` in modulus, so a chain that overflows
    that bound raises ValueError.  The positions of the nonzero entries
    depend on N only and are kept (:func:`_secular_bands`), so one fancy
    assignment writes them.
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


# the derivative of R[:3, :3] at theta = 0: in h, and in theta over h
_EDGE = np.zeros((2, 3, 3))
_EDGE[0, 0, 1] = _EDGE[0, 1, 0] = _EDGE[1, 0, 2] = _EDGE[1, 2, 0] = -2.0
_EDGE.setflags(write=False)


@functools.lru_cache(maxsize=16)
def _coupling_bands(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions in K ((N+1) x N) of its loss and bond entries, and
    which of ``(gamma/2, J, -J)`` each one holds."""
    code = np.zeros((N + 1) * N, dtype=np.int8)
    # K[k, k-1] (k = 1..N), then K[k, k] and K[k+1, k-1] (k = 1..N-1):
    # strided views of the flat matrix, none of which wraps a row
    code[N :: N + 1] = 1
    diag, low = code[N + 1 :: N + 1], code[2 * N :: N + 1]
    diag[::2] = low[::2] = 2
    diag[1::2] = low[1::2] = 3
    return _table(code)


def _coupling(p: ChainParams) -> np.ndarray:
    """The (N+1) x N ``K = R(0)[0::2, 1::2]``, finite once S is (:func:`_gram`)."""
    where, which = _coupling_bands(p.N)
    K = np.zeros((p.N + 1) * p.N)
    K[where] = np.array((0.5 * p.gamma, p.J, -p.J))[which]
    K[0] = -2.0 * p.h
    return K.reshape(p.N + 1, p.N)


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


def _steady_reference(p: ChainParams) -> tuple[complex, float]:
    """``(lambda_0, gap)`` of the steady state, refused at an exceptional point.

    One eigensolve of S gives both.  The gap is :func:`majorana_gap`, bit
    for bit, and one at or below ``default_tol_gap(gamma)`` raises
    ``EPProximityError``.  Above it,
    ``lambda_0 = -i gamma N / 4 + 1/2 sum_k eps_k`` (:func:`majorana_modes`)
    and every other eigenvalue lies at least the gap from it, so the one
    eigenvalue within half the gap of lambda_0 is the steady state's.
    """
    mu = eigvalsh(_secular(p))
    gap = math.sqrt(max(0.0, -mu[-1]))
    tol_gap = default_tol_gap(p.gamma)
    if gap <= tol_gap:
        raise EPProximityError(gap, tol_gap)
    eps = np.sqrt(mu[::-1].astype(complex))
    return -0.25j * p.gamma * p.N + 0.5 * eps.sum(), gap


@functools.lru_cache(maxsize=1)
def _gram(p: ChainParams, tol_gap: float) -> np.ndarray:
    """Read-only Gram matrix ``G_ab = <W_a, W_b>`` of the two unit responses.

    ``W = (I - P) dL T^-1`` for ``L = [V_S, z] = Q_1 T`` and
    ``P = Q_1 Q_1^H`` is linear in the edge derivative of R, so one
    eigendecomposition serves every direction: ``W_0`` is the response to
    ``d/dh`` and ``W_1`` to ``d/dtheta / h``.  That basis keeps each diagonal
    entry of the QFI a squared norm, with no cancellation at small h.

    The eigenvectors are R(0)'s, from one eigensolve of S, numpy.linalg
    (LAPACK ``dsyevd``), as the module docstring derives; the rotation O
    leaves G as it is, so theta is not read.

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

    A gap ``sqrt(max(0, -mu_max))`` at or below ``tol_gap`` is refused
    before any vector is formed; above it every mu is negative.  The memo
    holds the last point only, for a second target at the same point, and
    ``EPProximityError`` is raised on every call and never stored.
    """
    mu, u = eigh(_secular(p))
    gap = math.sqrt(max(0.0, -mu[-1]))
    if gap <= tol_gap:
        raise EPProximityError(gap, tol_gap)
    k = p.N
    n = 2 * k + 1
    # u = D' U, the eigenvectors of L K; row 0, which the zero mode reads,
    # keeps its sign
    u[2::4] *= -1.0
    u[3::4] *= -1.0
    Ku = _coupling(p) @ u
    kappa = np.sqrt(-mu)
    # V's columns: the annihilated modes, the zero mode, the conjugate modes
    V = np.zeros((n, n), dtype=complex)
    V[0::2, :k] = Ku
    V[1::2, :k] = 1j * kappa * u
    V[0::2, k] = Ku @ (2.0 * p.h * u[0] / mu)
    V[0, k] += 1.0
    V[:, : k + 1] /= norm(V[:, : k + 1], axis=0)
    V[:, k + 1 :] = V[:, :k].conj()
    lam = np.concatenate((1j * kappa, [0.0], -1j * kappa))
    # Z's top left block is T^-1, and its right block past L is
    # U_22^-1 Q_2^H[:, :3]
    UQ = qr(np.hstack((V, np.eye(n, 3))), mode="r")
    U = UQ[:, :n]
    Z = solve(U, np.hstack((np.eye(n, k + 1), UQ[:, n:])))
    # dv_k = sum_j v_j M_jk / (lam_k - lam_j) for the columns k of L, with
    # M_a = V^-1 dR_a V read from three columns of V^-1 and j over the
    # conjugate modes only: components along L vanish under I - P, and no
    # denominator does, even for clustered or degenerate modes.  So
    # dL = C X, and W' = U_22 X T^-1 has the Gram matrix of W = Q_2 W'.
    X = Z[k + 1 :, k + 1 :] @ (_EDGE @ V[:3, : k + 1])
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
    conditioned where ``z^T z -> 0`` at an EP.  D is unitary and O
    orthogonal, so F is that metric for R(0)'s eigenvectors, from one
    eigensolve of S, and does not depend on theta.  First-order perturbation
    gives dL, and one QR and one solve give W in the coordinates of the
    complement of L (:func:`_gram`).  In the basis of :func:`_gram` the two
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
