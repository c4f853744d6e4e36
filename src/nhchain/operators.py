"""Pauli matrices and site-embedded sparse operators on the 2**N chain space.

Basis convention
----------------
Basis index ``i`` carries bits ``b_{N-1} ... b_0``; chain site ``n``
(1-based) maps to bit position ``N - n``, so site 1 is the most significant
bit.  Spin up is bit value 0 and spin down is bit value 1.  For N = 2 the
ordering is therefore ``(uu, ud, du, dd)``.  This module is the only one
that knows the convention: other modules describe operators through sites
and spins (:func:`embed`, :func:`spins_up`, :func:`flip_sum`).

The raising/lowering operators carry the conventional 1/2 normalization,
``plus = (x + i y) / 2``, so that a pair coupling of strength J contributes
matrix elements equal to J.

State vectors are plain 1-D complex numpy arrays of length ``2**N``.
Operators are built by :func:`embed`, :func:`embed_pair` and
:func:`flip_sum`.  Each wraps a canonical ``scipy.sparse.csr_array`` and
exposes ``csr``, ``dim``, ``nnz``, ``dense()`` and ``matvec()``; it is
immutable after construction and safe to share.  ``scipy.sparse`` is
imported on the first operator built, so importing the package does not
load it.
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


def _check_site(site: int, N: int) -> None:
    if not 1 <= site <= N:
        raise ValueError(f"site {site} outside chain of {N} sites")


def _on_sites(op: np.ndarray, sites: tuple[int, ...], N: int) -> SparseOperator:
    """``op`` (2^k x 2^k, first site on the highest local bit) acting on
    ``sites`` (ascending) and the identity elsewhere.

    Row i, whose spins at ``sites`` form local state a, holds ``op[a, b]``
    at column i with those spins set to b.  b ascending gives ascending
    columns, so the rows need no sorting.
    """
    dim = 1 << N
    k = len(sites)
    i = np.arange(dim, dtype=_index_dtype(dim << k))
    b = np.arange(1 << k, dtype=i.dtype)
    a, spread, rest = 0, 0, i
    for j, site in enumerate(sites):
        bit, shift = N - site, k - 1 - j  # the site's place in i and in a, b
        a = a | ((i >> bit) & 1) << shift
        spread = spread | ((b >> shift) & 1) << bit
        rest = rest & ~(1 << bit)
    return _from_rows(op.take(a, axis=0), rest[:, None] | spread)


def embed(op: np.ndarray, site: int, N: int) -> SparseOperator:
    """Embed a 2x2 matrix at a tensor slot: I (x) ... (x) op (x) ... (x) I.

    ``site`` follows the 1-based convention of the module docstring: site 1
    occupies the most significant bit of the basis index.
    """
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (2, 2):
        raise ValueError("embed expects a 2x2 matrix")
    _check_site(site, N)
    return _on_sites(op, (site,), N)


def embed_pair(op4: np.ndarray, site_a: int, site_b: int, N: int) -> SparseOperator:
    """Embed a 4x4 two-site matrix at sites ``site_a < site_b``.

    The 4x4 index convention is ``kron(A, B)`` with A acting on ``site_a``
    (the higher bit of the two-site index) and B on ``site_b``.
    """
    op4 = np.asarray(op4, dtype=np.complex128)
    if op4.shape != (4, 4):
        raise ValueError("embed_pair expects a 4x4 matrix")
    _check_site(site_a, N)
    _check_site(site_b, N)
    if site_a >= site_b:
        raise ValueError("embed_pair requires site_a < site_b")
    return _on_sites(op4, (site_a, site_b), N)


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
