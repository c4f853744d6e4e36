"""Independent constructions of the free-fermion matrices for the tests."""

import numpy as np

from nhchain.hamiltonian import ChainParams


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
