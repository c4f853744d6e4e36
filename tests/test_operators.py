"""Paulis, single-site actions and the chain operators against a brute-force
dense Kronecker oracle."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from nhchain.hamiltonian import ChainParams, build_total
from nhchain.operators import SparseOperator, kron_chain, on_site, op_matvec, pauli

LABELS = ("x", "y", "z", "plus", "minus", "identity")


def dense_embed_oracle(op, site, N):
    """Independent reference: explicit Kronecker chain of 2x2 factors."""
    mats = [np.eye(2, dtype=complex)] * N
    mats[site - 1] = op
    return kron_chain(mats)


def on_site_matrix(op, site, N):
    """Matrix of the site-embedded action: ``on_site`` on each basis vector."""
    basis = np.eye(1 << N, dtype=complex)
    return np.column_stack([on_site(op, site, e) for e in basis])


def basis_state(bits: str) -> np.ndarray:
    """Basis vector from a spin string, 'u' up / 'd' down, site 1 first."""
    idx = int(bits.replace("u", "0").replace("d", "1"), 2)
    v = np.zeros(1 << len(bits), dtype=complex)
    v[idx] = 1.0
    return v


def test_pauli_z_is_diag():
    assert np.array_equal(pauli("z"), np.diag([1.0, -1.0]))


def test_pauli_plus_is_raising():
    assert np.array_equal(pauli("plus"), np.array([[0, 1], [0, 0]]))


def test_pauli_x_squares_to_identity():
    assert np.array_equal(pauli("x") @ pauli("x"), np.eye(2))


def test_pauli_ladder_convention():
    assert np.allclose(pauli("plus"), (pauli("x") + 1j * pauli("y")) / 2)
    assert np.allclose(pauli("minus"), (pauli("x") - 1j * pauli("y")) / 2)


def test_pauli_unknown_label():
    with pytest.raises(ValueError, match="unknown operator label"):
        pauli("w")


def test_embed_z_site1_two_sites():
    assert np.array_equal(on_site_matrix(pauli("z"), 1, 2), np.diag([1, 1, -1, -1]))


def test_embed_z_site2_two_sites():
    assert np.array_equal(on_site_matrix(pauli("z"), 2, 2), np.diag([1, -1, 1, -1]))


def test_embed_single_site_chain():
    assert np.array_equal(on_site_matrix(pauli("x"), 1, 1), pauli("x"))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("label", LABELS)
def test_embed_matches_kron_oracle(N, label):
    for site in range(1, N + 1):
        got = on_site_matrix(pauli(label), site, N)
        assert np.allclose(got, dense_embed_oracle(pauli(label), site, N), atol=0)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_embed_pair_matches_kron_oracle(N):
    rng = np.random.default_rng(3)
    for sa in range(1, N):
        for sb in range(sa + 1, N + 1):
            A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            got = on_site_matrix(A, sa, N) @ on_site_matrix(B, sb, N)
            mats = [np.eye(2, dtype=complex)] * N
            mats[sa - 1] = A
            mats[sb - 1] = B
            assert np.allclose(got, kron_chain(mats), atol=1e-15)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_distinct_sites_commute(N):
    for la in ("x", "plus", "z"):
        for lb in ("y", "minus", "z"):
            for n in range(1, N + 1):
                for m in range(1, N + 1):
                    if n == m:
                        continue
                    A = on_site_matrix(pauli(la), n, N)
                    B = on_site_matrix(pauli(lb), m, N)
                    assert np.allclose(A @ B, B @ A, atol=1e-15)


def test_plus_on_site1_raises_all_down():
    got = on_site(pauli("plus"), 1, basis_state("dd"))
    assert np.array_equal(got, basis_state("ud"))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(N=st.integers(2, 6), data=st.data())
def test_on_site_matches_kron_oracle(N, data):
    op = data.draw(local_matrix())
    site = data.draw(st.integers(1, N))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psi = rng.standard_normal(1 << N) + 1j * rng.standard_normal(1 << N)
    got = on_site(op, site, psi)
    assert np.allclose(got, dense_embed_oracle(op, site, N) @ psi, rtol=0, atol=1e-14)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_matvec_agrees_with_dense(N):
    rng = np.random.default_rng(N)
    dim = 1 << N
    rows = rng.integers(0, dim, size=3 * dim)
    cols = rng.integers(0, dim, size=3 * dim)
    vals = rng.standard_normal(3 * dim) + 1j * rng.standard_normal(3 * dim)
    op = SparseOperator(csr_array((vals, (rows, cols)), shape=(dim, dim)))
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    assert np.allclose(op_matvec(op, v), op.dense() @ v, atol=1e-12)


def test_matvec_empty_operator():
    op = SparseOperator(csr_array((4, 4), dtype=np.complex128))
    out = op_matvec(op, np.ones(4, dtype=np.complex128))
    assert op.nnz == 0
    assert np.array_equal(out, np.zeros(4, dtype=np.complex128))


def test_hamiltonian_matvec_matches_dense():
    H = build_total(ChainParams(N=6, J=0.3, h=0.2, theta=0.4))
    rng = np.random.default_rng(2)
    v = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    assert np.allclose(H.matvec(v), H.dense() @ v, rtol=1e-13, atol=1e-13)


def test_matvec_linearity():
    rng = np.random.default_rng(11)
    dim = 16
    rows, cols = rng.integers(0, dim, 40), rng.integers(0, dim, 40)
    vals = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    op = SparseOperator(csr_array((vals, (rows, cols)), shape=(dim, dim)))
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    a, b = 0.3 - 1.1j, -0.7 + 0.2j
    lhs = op_matvec(op, a * u + b * v)
    rhs = a * op_matvec(op, u) + b * op_matvec(op, v)
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_dimension_mismatch_errors():
    a = build_total(ChainParams(N=2, J=0.3, h=0.1))
    with pytest.raises(ValueError, match="does not match"):
        op_matvec(a, np.zeros(8, dtype=complex))


def test_operators_are_immutable():
    op = build_total(ChainParams(N=2, J=0.3, h=0.1))
    with pytest.raises(ValueError):
        op.csr.data[0] = 5.0


def buffer_entries(arr):
    """Entries in the buffer that ``arr`` keeps alive (a view keeps its base)."""
    base = arr if arr.base is None else arr.base
    return base.nbytes // arr.itemsize


def assert_canonical(op):
    """Sorted unique columns per row, no stored zeros, data and indices that
    own exactly nnz entries, read-only arrays."""
    c = op.csr
    # scipy scans a fresh array, not a flag cached on the operator's
    assert csr_array((c.data, c.indices, c.indptr), shape=c.shape).has_canonical_format
    assert np.all(op.csr.data != 0)
    assert buffer_entries(c.data) == buffer_entries(c.indices) == c.nnz
    for arr in (op.csr.data, op.csr.indices, op.csr.indptr):
        assert not arr.flags.writeable


def test_constructor_canonicalises_and_freezes():
    # a duplicate pair that cancels leaves a stored zero in scipy's CSR
    raw = csr_array(([1.0, -1.0, 2.0], ([0, 0, 1], [1, 1, 0])), shape=(4, 4))
    op = SparseOperator(raw)
    assert op.nnz == 1
    assert_canonical(op)
    assert np.array_equal(op.dense(), raw.toarray())
    # a canonical matrix is kept as given, not copied
    assert SparseOperator(op.csr).csr is op.csr


def chain_oracle(p):
    """H0 and H1 of the chain as literal Pauli Kronecker chains."""
    N = p.N
    eye = np.eye(2, dtype=complex)

    def at(ops):
        mats = [eye] * N
        for site, m in ops.items():
            mats[site - 1] = m
        return kron_chain(mats)

    sp, sm = pauli("plus"), pauli("minus")
    h0 = sum(p.J * (at({n: sp, n + 1: sp}) + at({n: sm, n + 1: sm})) for n in range(1, N))
    h0 = h0 + sum(-0.25j * p.gamma * at({n: pauli("z") + eye}) for n in range(1, N + 1))
    h1 = p.h * at({1: np.cos(p.theta) * pauli("x") + np.sin(p.theta) * pauli("y")})
    return h0, h1


def zero_or(strategy):
    return st.one_of(st.just(0.0), strategy)


def local_matrix():
    """2x2 complex matrices with some entries exactly zero."""
    entry = st.one_of(
        st.just(0j), st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)
    )
    return st.lists(entry, min_size=4, max_size=4).map(
        lambda xs: np.array(xs, dtype=complex).reshape(2, 2)
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    N=st.integers(2, 6),
    J=zero_or(st.floats(0.0, 1.0)),
    gamma=zero_or(st.floats(0.0, 2.0)),
    h=zero_or(st.floats(0.0, 1.0)),
    theta=st.floats(-7.0, 7.0),
)
def test_builders_match_kron_oracle(N, J, gamma, h, theta):
    p = ChainParams(N=N, J=J, gamma=gamma, h=h, theta=theta)
    h0, h1 = chain_oracle(p)
    # H0 alone is the generator at h = 0, H1 alone at J = gamma = 0
    for op, oracle in (
        (build_total(replace(p, h=0.0)), h0),
        (build_total(replace(p, J=0.0, gamma=0.0)), h1),
        (build_total(p), h0 + h1),
    ):
        assert_canonical(op)
        assert np.allclose(op.dense(), oracle, rtol=0, atol=1e-14)
