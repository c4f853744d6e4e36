"""Independent constructions and oracles of the free-fermion layer for the tests."""

import cmath
import functools

import numpy as np
from numpy.linalg import eig, qr, solve

from nhchain.errors import EPProximityError
from nhchain.hamiltonian import ChainParams
from nhchain.majorana import majorana_gap
from nhchain.operators import kron_chain, pauli


def padded_majorana_matrix(p: ChainParams) -> np.ndarray:
    """B = 2 (A - A^T)[1:, 1:] from the coefficients A_jk of g_j g_k, j < k."""
    A = np.zeros((2 * p.N + 2, 2 * p.N + 2), dtype=complex)
    site = np.arange(1, p.N + 1)
    bond = site[:-1]
    A[2 * site, 2 * site + 1] = -0.25 * p.gamma
    A[2 * bond + 1, 2 * bond + 2] = -0.5j * p.J
    A[2 * bond, 2 * bond + 3] = -0.5j * p.J
    A[1, 2] = -1j * p.h * np.cos(p.theta)
    A[1, 3] = -1j * p.h * np.sin(p.theta)
    return 2.0 * (A - A.T)[1:, 1:]


def parity_phases(n: int) -> np.ndarray:
    """diag(D) = i^m_r, m_r the parity of the site of the Majorana in row r."""
    site = (np.arange(n) + 1) // 2
    return np.where(site % 2, 1j, 1.0)


def pair_modes(c: np.ndarray) -> np.ndarray:
    """The N modes, unsorted, with ``Im >= 0``, from the 2N+1 eigenvalues of B.

    The nonsymmetric (``dgeev``) oracle for ``majorana_modes``.  c[:3],
    after sorting by modulus, are the structural zero and the smallest pair;
    at an exceptional point the three form a 3x3 Jordan block whose
    eigenvalues scatter by eps_machine^(1/3), but the sum of their squares,
    2 eps^2, stays well conditioned.  The other pairs are adjacent in this
    order because both members of a pair have the same modulus up to
    rounding.  A second small mode is outside that rule and loses digits.
    """
    # numpy returns a real array when every eigenvalue is real, as at gamma = 0
    c = c.astype(complex, copy=False)
    c = c[np.abs(c).argsort()]
    eps = c[1::2]
    eps[0] = cmath.sqrt((c[:3] ** 2).sum() / 2.0)
    eps[eps.imag < 0] *= -1
    return eps


def secular_explicit(p: ChainParams) -> np.ndarray:
    """S = J^2 A^2 - (gamma^2 / 4) I + 4 h^2 e_1 e_1^T, written entry by entry.

    The oracle for ``majorana._secular``, which writes the same values
    through a per-N band table.
    """
    J2, g, f = p.J * p.J, 0.25 * p.gamma * p.gamma, 4.0 * p.h * p.h
    S = np.diag(np.full(p.N, 2.0 * J2 - g))
    S[0, 0] = J2 - g + f
    S[-1, -1] = J2 - g
    k = np.arange(p.N - 2)
    S[k, k + 2] = S[k + 2, k] = J2
    return S


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


def real_form(p: ChainParams) -> np.ndarray:
    """The real single-particle matrix ``R = D B D^-1`` of size 2N+1.

    ``D = diag(i^m_r)``, m_r the parity of the site of the Majorana in row r
    (row 0, the ancilla's g_1, takes parity 0, opposite to site 1).  With row
    r holding g_{r+1}, R's nonzero entries are

        R[2k-1, 2k] = -R[2k, 2k-1] = -gamma / 2      site k = 1..N,
        R[2k, 2k+1] = R[2k-1, 2k+2] = (-1)^(k-1) J   bond (k, k+1),
        R[0, 1] = -2 h cos(theta),  R[0, 2] = -2 h sin(theta),

    with the bond and edge entries mirrored: R[c, r] = R[r, c].  The
    positions of the loss and bond entries depend on N only and are kept
    (:func:`_bands`), so one fancy assignment writes them.  The oracle of
    the whole-matrix route, which ``majorana`` replaces by its blocks S and
    K; it does not check for overflow.
    """
    n = 2 * p.N + 1
    where, which = _bands(p.N)
    R = np.zeros(n * n)
    R[where] = np.array((-0.5 * p.gamma, 0.5 * p.gamma, p.J, -p.J))[which]
    R = R.reshape(n, n)
    R[0, 1] = R[1, 0] = -2.0 * p.h * np.cos(p.theta)
    R[0, 2] = R[2, 0] = -2.0 * p.h * np.sin(p.theta)
    return R


def gram_dgeev(p: ChainParams, tol_gap: float) -> np.ndarray:
    """Read-only Gram matrix ``G_ab = <W_a, W_b>`` of the two unit responses,
    from the nonsymmetric eigensolve of R at theta.

    The oracle for ``majorana._gram``, which takes the eigenvectors of R(0)
    from the symmetric S instead.

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
    """
    gap = majorana_gap(p)
    if gap <= tol_gap:
        raise EPProximityError(gap, tol_gap)
    lam, vr = eig(real_form(p))
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


def staggered_generator(N: int) -> np.ndarray:
    """diag(G) for G = 1/2 sum_n (-1)^(n-1) sz_n, from literal Pauli kron."""
    z, eye = pauli("z"), np.eye(2)
    sites = (kron_chain([z if m == n else eye for m in range(N)]) for n in range(N))
    return 0.5 * np.diag(sum((-1) ** n * zn for n, zn in enumerate(sites))).real
