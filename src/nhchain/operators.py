"""Pauli matrices, the chain's sparse operators, and single-site actions on
state vectors of the 2**N chain space.

Basis convention
----------------
Basis index ``i`` carries bits ``b_{N-1} ... b_0``; chain site ``n``
(1-based) maps to bit position ``N - n``, so site 1 is the most significant
bit.  Spin up is bit value 0 and spin down is bit value 1.  For N = 2 the
ordering is therefore ``(uu, ud, du, dd)``.  This module is the only one
that knows the convention: other modules describe operators and actions
through sites and spins (:func:`on_site`, :func:`spins_up`,
:func:`flip_sum`).

The raising/lowering operators carry the conventional 1/2 normalization,
``plus = (x + i y) / 2``, so that a pair coupling of strength J contributes
matrix elements equal to J.

State vectors are plain 1-D complex numpy arrays of length ``2**N``.
:func:`on_site` applies a 2x2 matrix to one site of such a vector without
building an operator.  Operators are built by :func:`flip_sum`; each wraps a
canonical ``scipy.sparse.csr_array`` and exposes ``csr``, ``dim``, ``nnz``,
``dense()`` and ``matvec()``; it is immutable after construction and safe
to share.  ``scipy.sparse`` is imported on the first operator built, so
importing the package does not load it; the free-fermion layer runs on
numpy.linalg (LAPACK ``dgeev``) and loads no scipy at all.
"""

from dataclasses import dataclass
from functools import reduce

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
    is stored, and the data, index and pointer arrays are read-only.  A
    matrix given in another form is copied and canonicalised; a canonical
    one is kept, and its arrays are made read-only in place.
    """

    csr: "scipy.sparse.csr_array"

    def __post_init__(self):
        data = self.csr.data
        if not self.csr.has_canonical_format or np.count_nonzero(data) < data.size:
            csr = self.csr.copy()
            csr.sum_duplicates()
            csr.eliminate_zeros()
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


def _from_rows(vals: np.ndarray, cols: np.ndarray) -> SparseOperator:
    """Operator whose row i holds ``vals[i]`` at the strictly ascending
    columns ``cols[i]`` (both of shape (dim, k)); zero values are dropped."""
    from scipy.sparse import csr_array

    dim, k = vals.shape
    kept = np.flatnonzero(vals != 0)
    indptr = np.zeros(dim + 1, dtype=cols.dtype)
    np.cumsum(np.bincount(kept // k, minlength=dim), out=indptr[1:])
    csr = csr_array((vals.take(kept), cols.take(kept), indptr), shape=(dim, dim))
    csr.has_canonical_format = True  # canonical by construction; spares scipy's scan
    return SparseOperator(csr)


def on_site(op: np.ndarray, site: int, psi: np.ndarray) -> np.ndarray:
    """The 2x2 matrix ``op`` applied to ``site`` of the state vector ``psi``
    (the identity elsewhere).

    The site's bit splits the basis index into the higher sites, the site
    itself and the lower sites, so the vector reshapes to that 3-index form.
    """
    x = psi.reshape(1 << (site - 1), 2, -1)
    return np.einsum("ab,ibj->iaj", op, x).reshape(-1)


def spins_up(N: int) -> np.ndarray:
    """Boolean (2^N, N) table: ``[i, n - 1]`` is True when site n of basis
    state i is spin up."""
    i = np.arange(1 << N)[:, None]
    return (i >> np.arange(N - 1, -1, -1)) & 1 == 0


def flip_sum(N: int, terms: list[tuple[tuple[int, ...], np.ndarray]]) -> SparseOperator:
    """Operator given row by row through spin flips.

    For each ``(sites, values)`` in ``terms``, row i holds ``values[i]`` at
    the column of basis state i with the spins at ``sites`` flipped (no flip
    for ``()``: the diagonal).  The site sets must be distinct, so no two
    terms share a column; zero values are dropped.
    """
    dim = 1 << N
    idx = _index_dtype(dim * len(terms))
    masks = np.array(
        [sum(1 << (N - s) for s in sites) for sites, _ in terms], dtype=idx
    )
    cols = np.arange(dim, dtype=idx)[:, None] ^ masks
    vals = np.empty(cols.shape, dtype=np.complex128)
    for k, (_, values) in enumerate(terms):
        vals[:, k] = values
    # sort each row by column; take() reads the flattened arrays
    order = np.argsort(cols, axis=1)
    order += np.arange(0, cols.size, len(terms), dtype=order.dtype)[:, None]
    vals = vals.take(order)
    cols = cols.take(order)
    del order  # not held while _from_rows compacts; lowers the peak memory
    return _from_rows(vals, cols)


def op_matvec(a: SparseOperator, v: np.ndarray) -> np.ndarray:
    """``a @ v`` by scipy's CSR matvec."""
    v = np.ascontiguousarray(v, dtype=np.complex128)
    if v.shape != (a.dim,):
        raise ValueError(f"vector shape {v.shape} does not match dimension {a.dim}")
    return a.csr @ v


def kron_chain(mats: list[np.ndarray]) -> np.ndarray:
    """Dense Kronecker product of a list of matrices (site 1 first)."""
    return reduce(np.kron, mats)
