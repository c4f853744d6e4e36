"""Hamiltonian of the lossy spin-1/2 chain with a field on site 1.

The chain couples nearest neighbors through pair creation/annihilation and
loses excitations at rate gamma on every site; a transverse field of
amplitude h and azimuthal angle theta acts on the first site only::

    H0 = J * sum_{n=1}^{N-1} (sp_n sp_{n+1} + sm_n sm_{n+1})
         - i (gamma/4) * sum_{n=1}^{N} (sz_n + 1)
    H1 = h * (cos(theta) sx_1 + sin(theta) sy_1)

Open boundary conditions throughout.  J and h are quoted in units of gamma;
the default gamma is 1.  The anti-Hermitian part of H0 + H1 is the loss term
alone, so every eigenvalue has non-positive imaginary part.
"""

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import MemoryLimitError
from .operators import FlipTerms, SparseOperator, flip_sum, flip_sum_dense, spins_up


@dataclass(frozen=True)
class ChainParams:
    """Parameters of one chain instance.

    N is the number of sites (>= 2), J >= 0 the pair coupling, gamma >= 0 the
    loss rate, h >= 0 the field amplitude and theta its azimuthal angle in
    radians (stored as given, not reduced mod 2*pi).  All four real
    parameters must be finite.

    gamma = 0 is the Hermitian limit.  Spectra and gaps are defined there
    (the gap is 0), but no steady state is isolated, so every steady-state
    solve raises ``EPProximityError``.
    """

    N: int
    J: float
    gamma: float = 1.0
    h: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise ValueError("N must be an integer >= 2")
        for name in ("J", "gamma", "h", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.J < 0:
            raise ValueError("J must be >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.h < 0:
            raise ValueError("h must be >= 0")
        object.__setattr__(self, "N", int(self.N))

    @property
    def dim(self) -> int:
        return 1 << self.N


# Peak bytes per candidate entry while the generator is assembled (the term
# values, the (2^N, N + 1) values and columns scipy sorts and prunes in
# place, then the owned copies of the kept entries); tracemalloc measured
# 41.3-42.8 for build_total at N = 10..16.
_BUILD_BYTES_PER_ENTRY = 46


def memory_estimate(N: int) -> int:
    """Estimated peak bytes to build the generator and run a Krylov solver.

    Assembly lays out (N + 1) * 2^N candidate entries (the diagonal, N - 1
    bond flips and the site-1 flip of every row) before dropping zeros; the
    solvers add the larger of their two Krylov bases, ARPACK's
    ``spectral.ARPACK_NCV`` vectors and ``evolve``'s ``spectral.KRYLOV_DIM``,
    with the operator held.  Below N = 10, fixed-size arrays dominate and a
    measured peak can exceed the estimate (``evolve`` at N = 8: 0.29 MiB
    against 0.18); memory never binds there.
    """
    from .spectral import ARPACK_NCV, KRYLOV_DIM

    dim = 1 << N
    vectors = max(ARPACK_NCV, KRYLOV_DIM)
    return dim * ((N + 1) * _BUILD_BYTES_PER_ENTRY + vectors * 16)


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return None


@functools.lru_cache(maxsize=16)
def _spin_patterns(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only patterns of the 2^N basis states that the generator's terms
    scale: the number of up spins, whether the two spins of bond (n, n+1)
    agree (row n - 1) and whether site 1 is up, one byte per entry."""
    up = spins_up(N)
    patterns = (
        np.count_nonzero(up, axis=1).astype(np.uint8),
        np.ascontiguousarray((up[:, :-1] == up[:, 1:]).T),
        up[:, 0].copy(),
    )
    for a in patterns:
        a.setflags(write=False)
    return patterns


def _terms(p: ChainParams) -> FlipTerms:
    """The generator's matrix elements as spin-flip terms (see ``flip_sum``).

    The spin patterns depend on N only and are kept (:func:`_spin_patterns`);
    the values are computed on every call.
    """
    n_up, agree, up1 = _spin_patterns(p.N)
    # -i (gamma/4) (sz_n + 1) is -i gamma/2 on every up spin
    terms = [((), -0.5j * p.gamma * n_up)]
    # sp sp + sm sm flips both spins of a bond when they agree
    terms += [((n, n + 1), p.J * agree[n - 1]) for n in range(1, p.N)]
    # h (cos(theta) sx_1 + sin(theta) sy_1) flips site 1; <u|.|d> = h e^{-i theta}
    phase = np.exp(-1j * p.theta)
    terms.append(((1,), p.h * np.where(up1, phase, phase.conjugate())))
    return terms


def build_total(p: ChainParams) -> SparseOperator:
    """Chain generator H0 + H1, assembled in one pass from its matrix elements.

    H0 alone is ``build_total`` at h = 0, and H1 alone at J = gamma = 0.
    Raises ``MemoryLimitError`` before allocating anything when
    :func:`memory_estimate` exceeds the machine's physical memory.
    """
    available = _physical_memory()
    required = memory_estimate(p.N)
    if available is not None and required > available:
        raise MemoryLimitError(p.N, required, available)
    return flip_sum(p.N, _terms(p))


def build_dense(p: ChainParams) -> np.ndarray:
    """``build_total(p).dense()``, bit for bit, assembled by numpy alone.

    It allocates the full 2^N x 2^N array: the dense solvers bound N first
    (``spectral.DENSE_MAX_DIM``).
    """
    return flip_sum_dense(p.N, _terms(p))
