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
B is similar to a real matrix (:func:`majorana_modes`), whose one real
eigensolve gives the modes and the gap.

The steady state is the fermionic Gaussian state annihilated by the N modes
of B with ``Im eps > 0`` and by the zero mode ``g_0 + i z.g`` (z the null
vector of B, ``z^T z = 1``); :func:`majorana_qfi_matrix` differentiates the
projector onto that annihilator space exactly, which gives the steady-state
QFI matrix about (h, theta) at any N from (2N+2)-dimensional matrices.

Only ``B[0, 1:3]`` moves with h or theta, so the derivative of the projector
is linear in that 2-vector: one Schur form per parameter point gives a 2x2
Gram matrix from which both diagonal entries and the off-diagonal
``F_h,theta`` follow (the latter vanishes to rounding).
:func:`majorana_qfi` reads one diagonal entry.  The Gram matrix of the last
point is kept (a memo of size one), so asking for ``h`` and then ``theta``
at the same point factorises once.
"""

import functools
import math

import numpy as np
import scipy.linalg as la
from scipy.linalg.lapack import dgeev, zgesv, ztrsyl, ztrtrs

from .errors import EPProximityError
from .hamiltonian import ChainParams
from .spectral import default_tol_gap

# the order of the rows and columns of the QFI matrix
TARGETS = ("h", "theta")


def _majorana_matrix(p: ChainParams) -> np.ndarray:
    """The (2N+1)-dimensional antisymmetric single-particle matrix B.

    Its entries are at most gamma / 2, J and 2 h in modulus; a finite
    ``ChainParams`` can overflow only the last, which raises ValueError.
    """
    if not math.isfinite(2.0 * p.h):
        raise ValueError(
            "Majorana matrix B would contain infs or NaNs: its entries "
            f"gamma/2, J and 2h must be finite, got h = {p.h:g}"
        )
    n = 2 * p.N + 1
    B = np.zeros((n, n), dtype=complex)
    # row r holds g_{r+1}; element r of `sup1` and `sup3` is B[r, r+1] and
    # B[r, r+3], strided views of the flat matrix (`sup3` stops at row n-4,
    # where its stride would wrap into column 0)
    flat = B.reshape(-1)
    sup1, sup3 = flat[1 :: n + 1], flat[3 : (n - 3) * (n + 1) : n + 1]
    sup1[1::2] = -0.5 * p.gamma  # g_{2k} g_{2k+1}, site k
    sup1[2::2] = -1j * p.J  # g_{2k+1} g_{2k+2}, bond (k, k+1)
    sup3[1::2] = -1j * p.J  # g_{2k} g_{2k+3}, bond (k, k+1)
    B[0, 1] = -2j * p.h * np.cos(p.theta)
    B[0, 2] = -2j * p.h * np.sin(p.theta)
    # antisymmetrise: every entry above the diagonal is on those two bands
    # or is B[0, 2]
    flat[n :: n + 1] = -sup1
    flat[3 * n :: n + 1] = -sup3
    B[2, 0] = -B[0, 2]
    return B


def majorana_modes(p: ChainParams) -> np.ndarray:
    """Single-particle energies eps_k, k = 1..N, one per +-eps pair.

    Each eps_k is taken with ``Im eps_k >= 0`` and the array is sorted by
    ascending imaginary part.  The many-body spectrum is
    ``-i gamma N / 4 + 1/2 sum_k s_k eps_k`` over the 2^N sign choices, the
    steady state takes every s_k = +1, and the imaginary-part gap is
    ``Im eps_0``.

    The eigenvalues come from one real ``dgeev`` on ``R = D B D^-1``, with
    ``D = diag(i^m_r)`` and m_r the parity of the site of the Majorana in
    row r (row 0, the ancilla's g_1, takes parity 0, opposite to site 1).
    Every imaginary entry of B couples neighbouring sites and picks up a
    factor +-i, every real one couples a site to itself, so R is real.
    """
    B = _majorana_matrix(p)
    # rows 0, 1, 2, ... hold Majoranas of sites 0, 1, 1, 2, 2, ...
    d = np.ones(B.shape[0], dtype=complex)
    d[1::4] = d[2::4] = 1j
    # B is finite by construction, so no check_finite pass
    wr, wi, _, _, info = dgeev(
        (B * np.outer(d, d.conj())).real, compute_vl=0, compute_vr=0, overwrite_a=1
    )
    if info != 0:
        raise la.LinAlgError("dgeev failed to converge")
    return _modes(wr + 1j * wi)


def _modes(c: np.ndarray) -> np.ndarray:
    """``majorana_modes`` from the 2N+1 eigenvalues ``c`` of B."""
    c = c[np.argsort(np.abs(c))]
    # c[:3] are the structural zero and the smallest pair.  At an exceptional
    # point the three form a 3x3 Jordan block whose eigenvalues scatter by
    # eps_machine^(1/3), but the sum of their squares, 2 eps^2, stays well
    # conditioned.  The other pairs are adjacent in this order because both
    # members of a pair have the same modulus up to rounding (exactly, for
    # the conjugate pair +-i y that a real eigensolve returns).
    eps = np.concatenate(([np.sqrt(np.sum(c[:3] ** 2) / 2.0)], c[3::2]))
    eps = np.where(eps.imag < 0, -eps, eps)
    return eps[np.argsort(eps.imag, kind="stable")]


def majorana_gap(p: ChainParams) -> float:
    """Imaginary-part gap ``min_k Im eps_k`` of the many-body spectrum, >= 0.

    Flipping the sign of the slowest mode is the cheapest step down from the
    steady state.  At an exact exceptional point the result is 0 to ~2e-8,
    the rounding floor of a double-precision eigensolve there.
    """
    return float(majorana_modes(p)[0].imag)


@functools.lru_cache(maxsize=1)
def _gram(p: ChainParams, tol_gap: float) -> np.ndarray:
    """Read-only Gram matrix ``G_ab = <W_a, W_b>`` of the two unit responses.

    ``W = (I - P) dL R^-1`` is linear in the edge derivative
    ``d = dB[0, 1:3]``, so one factorisation serves every direction:
    ``W_0`` is the response to ``d = dB[0, 1:3] / dh`` and ``W_1`` to
    ``dB[0, 1:3] / dtheta / h``.  That basis keeps each diagonal entry of
    the QFI a squared norm, with no cancellation at small h.  The memo holds
    the last point only, so the one reuse is a second target at the same
    point; ``EPProximityError`` is raised on every call and never stored.
    """
    B = _majorana_matrix(p)
    n = B.shape[0]
    T, Z, k = la.schur(B, output="complex", sort=lambda x: x.imag > 0.5 * tol_gap)
    t = np.diag(T)
    gap = float(_modes(t)[0].imag)
    if gap <= tol_gap or k != p.N:
        raise EPProximityError(gap, tol_gap)
    # the columns of D are the two directions: orthogonal, of equal length,
    # and the only entries above B's diagonal that move with h or theta
    c, s = np.cos(p.theta), np.sin(p.theta)
    D = 2j * np.array([[-c, s], [-s, -c]])
    Z1, Z2 = Z[:, :k], Z[:, k:]
    # dB = e_0 dv^T - dv e_0^T with dv = (0, d_0, d_1, 0, ...) has rank two;
    # both columns of D go through one Sylvester solve against diag(T11, T11)
    E21 = np.einsum("i,aj->iaj", Z2[0].conj(), D.T @ Z1[1:3])
    E21 -= np.einsum("ia,j->iaj", Z2[1:3].conj().T @ D, Z1[0])
    T11 = np.zeros((2 * k, 2 * k), dtype=complex)
    T11[:k, :k] = T11[k:, k:] = T[:k, :k]
    X, scale, _ = ztrsyl(T[k:, k:], T11, -E21.reshape(n - k, 2 * k), isgn=-1)
    # null vector: the eigenvector of T for its zero diagonal entry
    j = k + int(np.argmin(np.abs(t[k:])))
    y = np.zeros(n, dtype=complex)
    y[j] = 1.0
    y[:j], info = ztrtrs(T[:j, :j], -T[:j, j])
    if info != 0:
        raise la.LinAlgError("singular Schur factor")
    z = Z @ y
    z /= np.sqrt(z @ z)
    K = np.zeros((n + 1, n + 1), dtype=complex)
    K[:n, :n] = B
    K[:n, n] = K[n, :n] = z
    rhs = np.zeros((n + 1, 2), dtype=complex)
    rhs[0] = -z[1:3] @ D
    rhs[1:3] = D * z[0]
    *_, dz, info = zgesv(K, rhs, overwrite_a=True, overwrite_b=True)
    if info != 0:
        raise la.LinAlgError("singular bordered system")
    # L = [Z1, e_0 + i z] padded with the g_0 row.  Z1's columns are
    # orthonormal, so L = QR is one Gram-Schmidt step on the last column:
    # R = [[I, r], [0, rho]] and Q = [Z1, q].
    r = 1j * (Z1.conj().T @ z)
    q = np.empty(n + 1, dtype=complex)
    q[0] = 1.0
    q[1:] = 1j * z - Z1 @ r
    rho = np.sqrt(np.vdot(q, q).real)
    q /= rho
    Q = np.zeros((n + 1, k + 1), dtype=complex)
    Q[1:, :k] = Z1
    Q[:, k] = q
    # W = dL R^-1 for both columns, dL = [Z2 X, i dz] padded
    W = np.zeros((2, n + 1, k + 1), dtype=complex)
    W[:, 1:, :k] = (Z2 @ (X / scale)).reshape(n, 2, k).transpose(1, 0, 2)
    W[:, 1:, k] = (1j * dz[:n].T - W[:, 1:, :k] @ r) / rho
    W -= Q @ (Q.conj().T @ W)
    W = W.reshape(2, -1)
    G = W.conj() @ W.T
    G = (G + G.conj().T) / 2.0
    G.setflags(write=False)
    return G


def majorana_qfi_matrix(p: ChainParams) -> np.ndarray:
    """Exact steady-state QFI matrix about (h, theta) at any N, shape (2, 2).

    ``F_ab = 1/4 Tr(d_a Gamma^T d_b Gamma)`` for the real covariance
    ``Gamma = -i(I - 2P)``, in (h, theta) order; real and symmetric.  One
    sorted complex Schur form ``B = Z T Z^H`` (the k = N modes with
    ``Im eps > 0`` first) gives the gap, the annihilator space
    ``L = [Z_1, e_0 + i z]`` padded with the g_0 row, and the null vector z
    (from a triangular solve on T).  The derivative of the invariant
    subspace is ``Z_2 X`` with ``T_22 X - X T_11 = -(Z_2^H dB Z_1)``
    (Stewart and Sun, Matrix Perturbation Theory, 1990), and dz solves the
    bordered system
    ``[[B, z], [z^T, 0]] [dz; mu] = [-dB z; 0]``.  With ``L = QR`` and
    ``P = QQ^H``, ``W = (I - P) dL R^-1`` and, as ``Q^H (I - P) = 0``,
    ``F_ab = 2 Re <W_a, W_b>``.  In the basis of :func:`_gram` the two
    targets are the directions (1, 0) and (0, h), so
    ``F = 2 Re(G) * outer((1, h), (1, h))`` for the Gram matrix G of
    :func:`_gram`.  Raises ``EPProximityError`` when the gap is at or below
    ``default_tol_gap(gamma)``, as the steady-state solvers do.
    """
    G = _gram(p, default_tol_gap(p.gamma))
    s = np.array([1.0, p.h])
    return 2.0 * G.real * np.outer(s, s)


def majorana_qfi(p: ChainParams, target: str) -> float:
    """Exact steady-state QFI about ``h`` or ``theta`` at any N.

    The diagonal entry of :func:`majorana_qfi_matrix` for ``target``.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    i = TARGETS.index(target)
    return float(majorana_qfi_matrix(p)[i, i])
