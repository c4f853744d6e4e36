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
"""

import numpy as np
import scipy.linalg as la

from .hamiltonian import ChainParams


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
    c = la.eigvals(_majorana_matrix(p))
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
