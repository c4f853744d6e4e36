"""Free-fermion modes and gap against dense diagonalization and closed forms."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import nhchain.critical as critical
import nhchain.majorana as majorana
from nhchain.critical import find_ep_J, gap_at
from nhchain.hamiltonian import ChainParams, build_total
from nhchain.majorana import (
    _modes,
    _real_form,
    default_tol_gap,
    majorana_gap,
    majorana_modes,
)
from nhchain.spectral import dense_eigenvalues
from reference import padded_majorana_matrix, parity_phases


def size_boundary(n: int, gamma: float = 1.0) -> float:
    """Exact h = 0 gap closure J_c(N) = gamma / (4 cos(pi / (N + 1)))."""
    return gamma / (4.0 * math.cos(math.pi / (n + 1)))


def dense_gap(p: ChainParams) -> float:
    """Top-two imaginary-part difference of the dense 2^N spectrum."""
    w = dense_eigenvalues(build_total(p))
    return w[0].imag - w[1].imag


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 8),
    j=st.floats(0.0, 0.6),
    h=st.floats(0.0, 0.4),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_gap_matches_dense(n, j, h, theta):
    p = ChainParams(N=n, J=j, h=h, theta=theta)
    eps = majorana_modes(p)
    # a mode near zero is an exceptional point, where the dense eigenvalues
    # themselves lose half their digits
    assume(np.abs(eps).min() > 1e-2)
    assert majorana_gap(p) == pytest.approx(dense_gap(p), abs=1e-10)


@pytest.mark.parametrize(
    "n, j, h, theta, gamma",
    [
        (2, 0.3, 0.1, 0.0, 1.0),
        (3, 0.2, 0.15, 0.7, 1.0),
        (3, 0.1, 0.0, 0.0, 1.0),
        (4, 0.4, 0.05, 2.0, 1.0),
        (4, 0.3, 0.2, 0.5, 2.0),
        (5, 0.23, 0.2, 1.1, 1.0),
        (10, 0.23, 0.2, 0.7, 1.0),
        # no loss: R is symmetric, and numpy returns its spectrum as reals
        (4, 0.3, 0.2, 0.5, 0.0),
    ],
)
def test_many_body_spectrum_from_modes(n, j, h, theta, gamma, multiset_distance):
    p = ChainParams(N=n, J=j, gamma=gamma, h=h, theta=theta)
    eps = majorana_modes(p)
    assert eps.shape == (n,) and eps.dtype == np.complex128
    if gamma == 0:
        assert majorana_gap(p) == 0.0
    assert np.all(eps.imag >= 0) and np.all(np.diff(eps.imag) >= 0)
    offset = -0.25j * gamma * n
    rebuilt = [
        offset + 0.5 * np.dot(signs, eps)
        for signs in itertools.product((1.0, -1.0), repeat=n)
    ]
    dense = dense_eigenvalues(build_total(p))
    assert multiset_distance(rebuilt, dense) < 1e-12
    # the steady state takes every mode with its upper-half-plane sign
    assert (offset + 0.5 * eps.sum()).imag == pytest.approx(dense[0].imag, abs=1e-12)


@pytest.mark.parametrize("j", [0.1, 0.2, 0.3, 0.4, 0.45])
@pytest.mark.parametrize("theta", [0.0, 0.7, 2.1, 4.0])
def test_gap_at_exact_two_site_exceptional_points(j, theta):
    # h = sqrt(gamma^2 - 4 J^2) / 4 is an exact EP: one pair merges with the
    # structural zero into a 3x3 Jordan block.  Scoring the pair by the sum
    # of squares of the three leaves ~1e-8 (the rounding floor); reading
    # |Im| off the split eigenvalues directly gives 2e-7 to 3e-6.
    h = math.sqrt(1.0 - 4.0 * j * j) / 4.0
    assert majorana_gap(ChainParams(N=2, J=j, h=h, theta=theta)) < 5e-8


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_gap_at_exact_zero_field_exceptional_points(n, theta):
    # at h = 0 the slowest pair closes at J_c(N) for every N; the real form
    # keeps the gap at the same rounding floor as the two-site EPs above
    p = ChainParams(N=n, J=size_boundary(n), h=0.0, theta=theta)
    assert majorana_gap(p) < 5e-8


def test_modes_make_one_real_eigensolve(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].dtype)
        return eigvals(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("eigenvectors on the gap path")

    eigvals = majorana.eigvals
    monkeypatch.setattr(majorana, "eigvals", counted)
    monkeypatch.setattr(majorana, "eig", refused)
    majorana_gap(ChainParams(N=7, J=0.23, h=0.2, theta=0.7))
    assert calls == [np.float64]


def test_auto_gap_builds_no_many_body_operator():
    # the gap module does not import the 2^N generator, and at
    # N = 200 the memory guard would refuse to build it
    assert not hasattr(critical, "build_total")
    # at J = 0 the sites decouple; the driven first site has the smallest
    # gap, sqrt(gamma^2 / 4 - 4 h^2)
    p = ChainParams(N=200, J=0.0, h=0.1, theta=0.4)
    assert gap_at(p) == pytest.approx(math.sqrt(0.25 - 4 * 0.1**2), abs=1e-12)


@pytest.mark.parametrize("n, gamma", [(20, 1.0), (50, 1.0), (100, 1.0), (20, 2.0)])
def test_zero_field_boundary_at_large_size(n, gamma):
    tol_J = 1e-4
    j_c = find_ep_J(n, 0.0, gamma=gamma, bracket=(0.0, 0.6 * gamma), tol_J=tol_J)
    assert abs(j_c - size_boundary(n, gamma)) <= tol_J


def test_dense_gap_closes_at_the_bisected_boundary():
    # the dense spectrum, an oracle independent of the free-fermion modes, is
    # gapped just below the bisected J_c and gapless just above it
    tol_J = 1e-4
    tol_gap = default_tol_gap(1.0)
    for n in range(3, 7):
        for h in (0.0, 0.1):
            j_c = find_ep_J(n, h, tol_J=tol_J)
            assert dense_gap(ChainParams(N=n, J=j_c - tol_J, h=h)) > tol_gap, (n, h)
            assert dense_gap(ChainParams(N=n, J=j_c + tol_J, h=h)) <= tol_gap, (n, h)
    assert abs(find_ep_J(6, 0.0, tol_J=tol_J) - size_boundary(6)) <= tol_J


@pytest.mark.parametrize("n", range(2, 10))
def test_majorana_matrix_matches_the_padded_construction(n):
    # R is built directly; D B D^-1 of the independently padded B is
    # exactly real and equal to it
    p = ChainParams(N=n, J=0.37, gamma=1.3, h=0.21, theta=0.7)
    B = padded_majorana_matrix(p)
    d = parity_phases(B.shape[0])
    DBD = d[:, None] * B * d.conj()
    assert np.all(DBD.imag == 0)
    assert np.array_equal(_real_form(p), DBD.real)


# the fixture is a pure function, so sharing it across examples is safe
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n=st.integers(2, 64),
    j=st.floats(0.0, 0.6),
    gamma=st.floats(0.05, 2.0),
    h=st.floats(0.0, 0.4),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_modes_from_the_real_form_match_the_complex_eigensolve(
    n, j, gamma, h, theta, multiset_distance
):
    # with J up to 0.6 and gamma down to 0.05 most draws are past the
    # boundary (J_c -> gamma / 4 at large N), where real modes tie in Im
    p = ChainParams(N=n, J=j, gamma=gamma, h=h, theta=theta)
    B = padded_majorana_matrix(p)
    d = parity_phases(B.shape[0])
    assert np.all((d[:, None] * B * d.conj()).imag == 0)
    eps = majorana_modes(p)
    # near an exceptional point (a mode near zero) both eigensolves lose
    # digits, and a second small mode is outside the sum-of-squares rule
    assume(np.abs(eps).min() > 1e-2)
    ref = _modes(scipy.linalg.eigvals(B))
    assert np.sort(eps.imag) == pytest.approx(np.sort(ref.imag), abs=1e-12)
    # a real mode is +-eps either way, and ties in Im leave the order open:
    # compare the multisets of +-eps, each value relative to max(1, |eps|)
    scaled = [np.concatenate((e, -e)) for e in (eps, ref)]
    scaled = [z / np.maximum(1.0, np.abs(z)) for z in scaled]
    assert multiset_distance(*scaled) < 1e-12
