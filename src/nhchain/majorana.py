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

The steady state is the fermionic Gaussian state annihilated by the N modes
of B with ``Im eps > 0`` and by the zero mode ``g_0 + i z.g`` (z the null
vector of B, ``z^T z = 1``); :func:`majorana_qfi` differentiates the
projector onto that annihilator space exactly, which gives the steady-state
QFI at any N from (2N+2)-dimensional matrices.
"""

import numpy as np
import scipy.linalg as la
from scipy.linalg.lapack import ztrsyl

from .errors import EPProximityError
from .hamiltonian import ChainParams
from .spectral import default_tol_gap


def _majorana_matrix(p: ChainParams) -> np.ndarray:
    """The (2N+1)-dimensional antisymmetric single-particle matrix B."""
    A = np.zeros((2 * p.N + 2, 2 * p.N + 2), dtype=complex)
    site = np.arange(1, p.N + 1)
    bond = site[:-1]
    A[2 * site, 2 * site + 1] = -0.25 * p.gamma
    A[2 * bond + 1, 2 * bond + 2] = -0.5j * p.J
    A[2 * bond, 2 * bond + 3] = -0.5j * p.J
    A[1, 2] = -1j * p.h * np.cos(p.theta)
    A[1, 3] = -1j * p.h * np.sin(p.theta)
    return 2.0 * (A - A.T)[1:, 1:]


def majorana_modes(p: ChainParams) -> np.ndarray:
    """Single-particle energies eps_k, k = 1..N, one per +-eps pair.

    Each eps_k is taken with ``Im eps_k >= 0`` and the array is sorted by
    ascending imaginary part.  The many-body spectrum is
    ``-i gamma N / 4 + 1/2 sum_k s_k eps_k`` over the 2^N sign choices, the
    steady state takes every s_k = +1, and the imaginary-part gap is
    ``Im eps_0``.
    """
    return _modes(la.eigvals(_majorana_matrix(p)))


def _modes(c: np.ndarray) -> np.ndarray:
    """``majorana_modes`` from the 2N+1 eigenvalues ``c`` of B."""
    c = c[np.argsort(np.abs(c))]
    # c[:3] are the structural zero and the smallest pair.  At an exceptional
    # point the three form a 3x3 Jordan block whose eigenvalues scatter by
    # eps_machine^(1/3), but the sum of their squares, 2 eps^2, stays well
    # conditioned.  The other pairs are adjacent in this order because both
    # members of a pair have the same computed modulus.
    eps = np.concatenate(([np.sqrt(np.sum(c[:3] ** 2) / 2.0)], c[3::2]))
    eps = np.where(eps.imag < 0, -eps, eps)
    return eps[np.argsort(eps.imag, kind="stable")]


def majorana_gap(p: ChainParams) -> float:
    """Imaginary-part gap ``min_k Im eps_k`` of the many-body spectrum, >= 0.

    Flipping the sign of the slowest mode is the cheapest step down from the
    steady state.  At an exact exceptional point the result is ~1e-9 to
    1e-8, the rounding floor of a double-precision eigensolve there.
    """
    return float(majorana_modes(p)[0].imag)


def _edge_derivative(p: ChainParams, target: str) -> np.ndarray:
    """d B[0, 1:3] / d target; no other entry above the diagonal moves."""
    c, s = np.cos(p.theta), np.sin(p.theta)
    if target == "h":
        return -2j * np.array([c, s])
    if target == "theta":
        return 2j * p.h * np.array([s, -c])
    raise ValueError(f"target must be 'h' or 'theta', got {target!r}")


def majorana_qfi(p: ChainParams, target: str) -> float:
    """Exact steady-state QFI about ``h`` or ``theta`` at any N.

    One sorted complex Schur form ``B = Z T Z^H`` (the k = N modes with
    ``Im eps > 0`` first) gives the gap, the annihilator space
    ``L = [Z_1, e_0 + i z]`` padded with the g_0 row, and the null vector z
    (from a triangular solve on T).  The derivative of the invariant
    subspace is ``Z_2 X`` with ``T_22 X - X T_11 = -(Z_2^H dB Z_1)``
    (Stewart and Sun, Matrix Perturbation Theory, 1990), and dz solves the
    bordered system ``[[B, z], [z^T, 0]] [dz; mu] = [-dB z; 0]``.  With
    ``L = QR`` and ``P = QQ^H``, ``G = (I - P) dL R^-1 Q^H`` and
    ``F = 1/4 Tr(dGamma^T dGamma) = 2 ||G||_F^2`` for the real covariance
    ``Gamma = -i(I - 2P)``.  Raises ``EPProximityError`` when the gap is at
    or below ``default_tol_gap(gamma)``, as the steady-state solvers do.
    """
    d = _edge_derivative(p, target)
    B = _majorana_matrix(p)
    n = B.shape[0]
    tol_gap = default_tol_gap(p.gamma)
    T, Z, k = la.schur(B, output="complex", sort=lambda x: x.imag > 0.5 * tol_gap)
    t = np.diag(T)
    gap = float(_modes(t)[0].imag)
    if gap <= tol_gap or k != p.N:
        raise EPProximityError(gap, tol_gap)
    Z1, Z2 = Z[:, :k], Z[:, k:]
    # dB = e_0 dv^T - dv e_0^T with dv = (0, d_0, d_1, 0, ...): rank two
    E21 = np.outer(Z2[0].conj(), d @ Z1[1:3])
    E21 -= np.outer(Z2[1:3].conj().T @ d, Z1[0])
    X, scale, _ = ztrsyl(T[k:, k:], T[:k, :k], -E21, isgn=-1)
    # null vector: the eigenvector of T for its zero diagonal entry
    j = k + int(np.argmin(np.abs(t[k:])))
    y = np.zeros(n, dtype=complex)
    y[j] = 1.0
    y[:j] = la.solve_triangular(T[:j, :j], -T[:j, j])
    z = Z @ y
    z /= np.sqrt(z @ z)
    K = np.zeros((n + 1, n + 1), dtype=complex)
    K[:n, :n] = B
    K[:n, n] = K[n, :n] = z
    rhs = np.zeros(n + 1, dtype=complex)
    rhs[0] = -d @ z[1:3]
    rhs[1:3] = d * z[0]
    dz = la.solve(K, rhs)[:n]
    L = np.zeros((n + 1, k + 1), dtype=complex)
    L[1:, :k] = Z1
    L[0, k] = 1.0
    L[1:, k] = 1j * z
    dL = np.zeros_like(L)
    dL[1:, :k] = Z2 @ (X / scale)
    dL[1:, k] = 1j * dz
    Q, R = la.qr(L, mode="economic")
    # ||G||_F = ||(I - P) dL R^-1||_F, as Q has orthonormal columns
    W = la.solve_triangular(R, dL.T, trans="T").T
    W -= Q @ (Q.conj().T @ W)
    return 2.0 * float(np.vdot(W, W).real)
