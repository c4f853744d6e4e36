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

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import MemoryLimitError
from .operators import SparseOperator, embed, embed_pair, op_add, op_sum, pauli


@dataclass(frozen=True)
class ChainParams:
    """Parameters of one chain instance.

    N is the number of sites (>= 2), J >= 0 the pair coupling, gamma >= 0 the
    loss rate, h >= 0 the field amplitude and theta its azimuthal angle in
    radians (stored as given, not reduced mod 2*pi).  All four real
    parameters must be finite.
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


_PAIR_COUPLING = np.kron(pauli("plus"), pauli("plus")) + np.kron(
    pauli("minus"), pauli("minus")
)
_LOSS_SITE = pauli("z") + pauli("identity")


def build_h0(p: ChainParams) -> SparseOperator:
    """Pair-coupling plus on-site loss part of the Hamiltonian."""
    terms = [
        embed_pair(p.J * _PAIR_COUPLING, n, n + 1, p.N) for n in range(1, p.N)
    ]
    terms += [
        embed(-0.25j * p.gamma * _LOSS_SITE, n, p.N) for n in range(1, p.N + 1)
    ]
    return op_sum(terms)


def build_h1(p: ChainParams) -> SparseOperator:
    """Transverse field on site 1, Hermitian."""
    field = p.h * (np.cos(p.theta) * pauli("x") + np.sin(p.theta) * pauli("y"))
    return embed(field, 1, p.N)


# Peak bytes per COO entry while the generator is assembled (int64 row and
# column, complex128 value, and the copies canonicalization sorts into);
# tracemalloc measured 104-108 at N = 10..16.
_BUILD_BYTES_PER_ENTRY = 112
# Complex vectors of length 2^N that ARPACK keeps (scipy's default ncv).
_ARPACK_VECTORS = 20


def memory_estimate(N: int) -> int:
    """Estimated peak bytes to build the generator and solve it by ARPACK.

    Assembly concatenates about (N + 1) * 2^N COO entries before merging
    duplicates; the eigensolver adds its Krylov basis.
    """
    dim = 1 << N
    return dim * ((N + 1) * _BUILD_BYTES_PER_ENTRY + _ARPACK_VECTORS * 16)


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return None


def build_total(p: ChainParams) -> SparseOperator:
    """Full chain generator H0 + H1.

    Raises ``MemoryLimitError`` before allocating anything when
    :func:`memory_estimate` exceeds the machine's physical memory.
    """
    available = _physical_memory()
    required = memory_estimate(p.N)
    if available is not None and required > available:
        raise MemoryLimitError(p.N, required, available)
    return op_add(build_h0(p), build_h1(p))
