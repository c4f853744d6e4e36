"""Independent constructions and oracles of the free-fermion layer for the tests."""

import cmath

import numpy as np

from nhchain.hamiltonian import ChainParams
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


def staggered_generator(N: int) -> np.ndarray:
    """diag(G) for G = 1/2 sum_n (-1)^(n-1) sz_n, from literal Pauli kron."""
    z, eye = pauli("z"), np.eye(2)
    sites = (kron_chain([z if m == n else eye for m in range(N)]) for n in range(N))
    return 0.5 * np.diag(sum((-1) ** n * zn for n, zn in enumerate(sites))).real
