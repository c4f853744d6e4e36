"""Pauli matrices, the chain's sparse operators, and single-site actions on
state vectors of the 2**N chain space.

Basis convention
----------------
Basis index ``i`` carries bits ``b_{N-1} ... b_0``; chain site ``n``
(1-based) maps to bit position ``N - n``, so site 1 is the most significant
bit.  Spin up is bit value 0 and spin down is bit value 1.  For N = 2 the
ordering is therefore ``(uu, ud, du, dd)``.  This module is the only one
that knows the convention: other modules describe operators and actions
through sites and spins (:func:`on_site`, :func:`site_density`,
:func:`spins_up`, :func:`flip_sum`).

The raising/lowering operators carry the conventional 1/2 normalization,
``plus = (x + i y) / 2``, so that a pair coupling of strength J contributes
matrix elements equal to J.

State vectors are plain 1-D complex numpy arrays of length ``2**N``.
:func:`on_site` applies a 2x2 matrix to one site of such a vector without
building an operator, and :func:`site_density` reduces it to one site.
Operators are built by :func:`flip_sum`, which lays out the same number of
candidate entries in every row and leaves scipy to drop the zeros and sort
the rows; :func:`flip_sum_dense` adds the same
entries into a zero numpy array instead.  Each operator wraps a canonical
``scipy.sparse.csr_array`` and exposes ``csr``, ``dim``, ``nnz``,
``dense()`` and ``matvec()``; it is immutable after construction and safe
to share.  ``scipy.sparse`` is imported only by :func:`flip_sum`, so
importing the package does not load it, and neither the dense path nor the
free-fermion layer (numpy.linalg alone) loads any scipy.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "plus": np.array([[0, 1], [0, 0]], dtype=np.complex128),
    "minus": np.array([[0, 0], [1, 0]], dtype=np.complex128),
    "identity": np.eye(2, dtype=np.complex128),
}

for _m in PAULI.values():
    _m.setflags(write=False)


def pauli(label: str) -> np.ndarray:
    """Return the 2x2 matrix for a label in {x, y, z, plus, minus, identity}."""
    try:
        return PAULI[label]
    except KeyError:
        raise ValueError(
            f"unknown operator label {label!r}; expected one of {sorted(PAULI)}"
        ) from None


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """Complex square matrix held as a canonical scipy CSR array.

    Column indices are sorted within each row, entries are unique, no zero
    is stored, the data and index arrays hold exactly ``nnz`` entries each,
    and the data, index and pointer arrays are read-only.  A matrix given in
    another form is copied and canonicalised; a canonical one is kept, and
    its arrays are made read-only in place.
    """

    csr: "scipy.sparse.csr_array"

    def __post_init__(self):
        data = self.csr.data
        if not self.csr.has_canonical_format or np.count_nonzero(data) < data.size:
            csr = self.csr.copy()
            csr.sum_duplicates()
            csr.eliminate_zeros()
            # not views of the longer arrays (see flip_sum)
            csr.data, csr.indices = csr.data.copy(), csr.indices.copy()
            object.__setattr__(self, "csr", csr)
        for arr in (self.csr.data, self.csr.indices, self.csr.indptr):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def dense(self) -> np.ndarray:
        return self.csr.toarray()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return op_matvec(self, v)


def _index_dtype(n: int) -> type:
    """The CSR index type scipy keeps for arrays of up to ``n`` entries."""
    return np.int32 if n < 1 << 31 else np.int64


def on_site(op: np.ndarray, site: int, psi: np.ndarray) -> np.ndarray:
    """The 2x2 matrix ``op`` applied to ``site`` of the state vector ``psi``
    (the identity elsewhere).

    The site's bit splits the basis index into the higher sites, the site
    itself and the lower sites, so the vector reshapes to that 3-index form.
    """
    x = psi.reshape(1 << (site - 1), 2, -1)
    return np.einsum("ab,ibj->iaj", op, x).reshape(-1)


def site_density(site: int, psi: np.ndarray) -> np.ndarray:
    """The 2x2 reduced density matrix ``rho[a, b] = sum psi_a conj(psi_b)``
    of ``site`` in the state vector ``psi``, traced over the other sites.

    One contraction of the 3-index form that :func:`on_site` uses.
    """
    x = psi.reshape(1 << (site - 1), 2, -1)
    return np.einsum("iaj,ibj->ab", x, x.conj())


def spins_up(N: int) -> np.ndarray:
    """Boolean (2^N, N) table: ``[i, n - 1]`` is True when site n of basis
    state i is spin up."""
    i = np.arange(1 << N)[:, None]
    return (i >> np.arange(N - 1, -1, -1)) & 1 == 0


FlipTerms = list[tuple[tuple[int, ...], np.ndarray]]


@lru_cache(maxsize=16)
def _flip_masks(N: int, sites: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Read-only bit masks of the site sets, in the CSR index type of
    ``2^N len(sites)`` entries."""
    idx = _index_dtype((1 << N) * len(sites))
    masks = np.array([sum(1 << (N - s) for s in flip) for flip in sites], dtype=idx)
    masks.setflags(write=False)
    return masks


def _flip_layout(N: int, terms: FlipTerms) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values, both (2^N, len(terms)), of the candidate entries:
    row i, slot j is basis state i with the spins at ``terms[j]``'s sites
    flipped."""
    masks = _flip_masks(N, tuple(sites for sites, _ in terms))
    cols = np.arange(1 << N, dtype=masks.dtype)[:, None] ^ masks
    vals = np.empty(cols.shape, dtype=np.complex128)
    for j, (_, values) in enumerate(terms):
        vals[:, j] = values
    return cols, vals


def flip_sum(N: int, terms: FlipTerms) -> SparseOperator:
    """Operator given row by row through spin flips.

    For each ``(sites, values)`` in ``terms``, row i holds ``values[i]`` at
    the column of basis state i with the spins at ``sites`` flipped (no flip
    for ``()``: the diagonal).  The site sets must be distinct, so no two
    terms share a column; zero values are dropped.
    """
    from scipy.sparse import csr_array

    cols, vals = _flip_layout(N, terms)
    dim, k = cols.shape
    indptr = np.arange(0, dim * k + 1, k, dtype=cols.dtype)
    csr = csr_array((vals.reshape(-1), cols.reshape(-1), indptr), shape=(dim, dim))
    csr.eliminate_zeros()
    csr.sort_indices()
    # scipy's prune keeps views of the full (dim, k) buffers when it drops
    # fewer than half of the entries; the operator owns just its nnz
    csr.data, csr.indices = csr.data.copy(), csr.indices.copy()
    return SparseOperator(csr)


def flip_sum_dense(N: int, terms: FlipTerms) -> np.ndarray:
    """``flip_sum(N, terms).dense()`` without scipy: the same candidate
    entries added into a zero (2^N, 2^N) array.

    Adding, as scipy's ``toarray`` does, rather than assigning turns a
    value's -0.0 parts into +0.0, so the two arrays are bit-identical.
    """
    dim = 1 << N
    cols, vals = _flip_layout(N, terms)
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[np.arange(dim)[:, None], cols] += vals
    return out


def op_matvec(a: SparseOperator, v: np.ndarray) -> np.ndarray:
    """``a @ v`` by scipy's CSR matvec."""
    v = np.ascontiguousarray(v, dtype=np.complex128)
    if v.shape != (a.dim,):
        raise ValueError(f"vector shape {v.shape} does not match dimension {a.dim}")
    return a.csr @ v


def kron_chain(mats: list[np.ndarray]) -> np.ndarray:
    """Dense Kronecker product of a list of matrices (site 1 first)."""
    return reduce(np.kron, mats)
