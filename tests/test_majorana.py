"""Free-fermion modes and gap against dense diagonalization and closed forms."""

import itertools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import nhchain.critical as critical
import nhchain.majorana as majorana
from nhchain.critical import ep_curve, find_ep_J, gap_at
from nhchain.hamiltonian import ChainParams, build_total
from nhchain.majorana import (
    _coupling,
    _secular,
    _secular_bands,
    default_tol_gap,
    majorana_gap,
    majorana_modes,
)
from nhchain.spectral import dense_eigenvalues
from reference import (
    padded_majorana_matrix,
    pair_modes,
    parity_phases,
    real_form,
    secular_explicit,
)


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
    # the gap, the modes and the EP search each make symmetric N x N
    # eigensolves only: no dgeev, with or without vectors, anywhere in numpy
    calls = []

    def counted(a):
        calls.append(a.shape)
        assert a.dtype == np.float64 and np.array_equal(a, a.T)
        return eigvalsh(a)

    def refused(*args, **kwargs):
        raise AssertionError("nonsymmetric eigensolve on the gap path")

    eigvalsh = majorana.eigvalsh
    assert not hasattr(majorana, "eigvals")
    assert not hasattr(majorana, "eig")
    monkeypatch.setattr(majorana, "eigvalsh", counted)
    monkeypatch.setattr(np.linalg, "eig", refused)
    monkeypatch.setattr(np.linalg, "eigvals", refused)
    p = ChainParams(N=7, J=0.23, h=0.2, theta=0.7)
    majorana_gap(p)
    assert calls == [(7, 7)]
    majorana_modes(p)
    assert calls == [(7, 7)] * 2
    find_ep_J(7, 0.2)
    assert len(calls) > 2 and set(calls) == {(7, 7)}


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
    j_c = find_ep_J(n, 0.0, gamma=gamma, tol_J=tol_J)
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
    assert np.array_equal(real_form(p), DBD.real)


@pytest.mark.parametrize("n", range(2, 10))
def test_theta_is_an_orthogonal_rotation_of_the_real_form(n):
    # R(theta) = O R(0) O^T, O turning the rows (2k-1, 2k) of site k by
    # (-1)^(k-1) theta: the premise of a Gram matrix taken at theta = 0
    # (1.1e-16 at worst here)
    p = ChainParams(N=n, J=0.37, gamma=1.3, h=0.21, theta=0.7)
    O = np.eye(2 * n + 1)
    for k in range(1, n + 1):
        a = (-1) ** (k - 1) * p.theta
        O[2 * k - 1 : 2 * k + 1, 2 * k - 1 : 2 * k + 1] = [
            [math.cos(a), -math.sin(a)],
            [math.sin(a), math.cos(a)],
        ]
    R, R0 = real_form(p), real_form(replace(p, theta=0.0))
    assert np.abs(R - O @ R0 @ O.T).max() <= 1e-15


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
    ref = pair_modes(scipy.linalg.eigvals(B))
    assert np.sort(eps.imag) == pytest.approx(np.sort(ref.imag), abs=1e-12)
    # a real mode is +-eps either way, and ties in Im leave the order open:
    # compare the multisets of +-eps, each value relative to max(1, |eps|)
    scaled = [np.concatenate((e, -e)) for e in (eps, ref)]
    scaled = [z / np.maximum(1.0, np.abs(z)) for z in scaled]
    assert multiset_distance(*scaled) < 1e-12


def _zero_or(x):
    """A float in [0, x], exactly 0 in some draws."""
    return st.one_of(st.just(0.0), st.floats(0.0, x))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 40),
    j=_zero_or(0.6),
    gamma=_zero_or(2.0),
    h=_zero_or(0.4),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_secular_matrix_has_the_squared_modes_of_the_real_form(n, j, gamma, h, theta):
    # the eigenvalues of S are eps_k^2, from the dgeev of R at any theta:
    # 1.8e-14 of max(1, ||S||) at worst over 3000 random draws of this kind
    p = ChainParams(N=n, J=j, gamma=gamma, h=h, theta=theta)
    ref = pair_modes(np.linalg.eigvals(real_form(p)))
    lam = np.linalg.eigvalsh(_secular(p))
    scale = max(1.0, np.abs(lam).max())
    assert np.abs(lam - np.sort((ref**2).real)).max() <= 5e-14 * scale
    assert np.abs((ref**2).imag).max() <= 5e-14 * scale
    eps = majorana_modes(p)
    assert np.array_equal(eps, np.sqrt(lam[::-1].astype(complex)))
    assert np.all(eps.imag >= 0) and np.all(eps[eps.imag == 0].real >= 0)
    assert majorana_gap(p) == math.sqrt(max(0.0, -lam[-1]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 40),
    j=_zero_or(0.6),
    gamma=_zero_or(2.0),
    h=_zero_or(0.4),
)
def test_secular_matrix_from_its_band_table_is_the_explicit_one(n, j, gamma, h):
    # the same values in the same places, bit for bit, signs of zero included
    p = ChainParams(N=n, J=j, gamma=gamma, h=h)
    S, ref = _secular(p), secular_explicit(p)
    assert S.shape == ref.shape == (n, n)
    assert np.array_equal(S, ref)
    assert np.array_equal(np.signbit(S), np.signbit(ref))


def test_secular_band_table_is_read_only_and_each_matrix_fresh():
    where, which = _secular_bands(5)
    assert not where.flags.writeable and not which.flags.writeable
    p = ChainParams(N=5, J=0.23, h=0.2)
    first = _secular(p)
    first[:] = np.nan
    assert np.array_equal(_secular(p), secular_explicit(p))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 40),
    j=_zero_or(0.6),
    gamma=_zero_or(2.0),
    h=_zero_or(0.4),
)
def test_coupling_block_is_the_even_odd_block_of_the_real_form(n, j, gamma, h):
    # K = R(0)[0::2, 1::2] bit for bit; R(0) has no other even-even or odd-odd
    # entry, and L K = D' S D' with L = R(0)[1::2, 0::2], D' = (-1)^floor(k/2)
    # (2.2e-16 of max(1, ||S||) at worst over 2000 random draws of this kind)
    p = ChainParams(N=n, J=j, gamma=gamma, h=h)
    R = real_form(p)
    K = _coupling(p)
    assert K.shape == (n + 1, n)
    assert np.array_equal(K, R[0::2, 1::2])
    assert not R[0::2, 0::2].any() and not R[1::2, 1::2].any()
    d = np.where(np.arange(n) // 2 % 2, -1.0, 1.0)
    S = _secular(p)
    LK = R[1::2, 0::2] @ K
    assert np.abs(LK - d[:, None] * S * d).max() <= 1e-15 * max(1.0, np.abs(S).max())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 40), theta=st.floats(0.0, 2.0 * math.pi))
def test_modes_do_not_depend_on_theta(n, theta):
    # R moves with theta, its spectrum does not: the dgeev oracle agrees at
    # theta and at 0, and the modes, read from S, never see theta (4.9e-15
    # and 3.4e-15 at worst over 1000 random draws)
    p = ChainParams(N=n, J=0.23, gamma=1.0, h=0.2, theta=theta)
    p0 = replace(p, theta=0.0)
    ref, ref0 = (
        np.sort((pair_modes(np.linalg.eigvals(real_form(q))) ** 2).real)
        for q in (p, p0)
    )
    assert np.abs(ref - ref0).max() <= 2e-14
    assert np.array_equal(majorana_modes(p), majorana_modes(p0))
    assert np.abs(np.sort((majorana_modes(p) ** 2).real) - ref).max() <= 2e-14


def test_modes_where_two_are_small_match_forty_digits():
    # two modes of modulus 0.0034 and 0.0041: the dgeev of R, which scores
    # only the smallest pair by a sum of squares, is 4.8e-15 off in eps^2
    # and 1.5e-13 in the smallest |eps|; S is 7.8e-16 and 4.4e-14 off
    p = ChainParams(N=45, J=0.50035, gamma=1.9272, h=0.033186)
    mpmath.mp.dps = 40
    J, gamma, h = (mpmath.mpf(x) for x in (p.J, p.gamma, p.h))
    A = mpmath.matrix(p.N, p.N)
    for n in range(p.N - 1):
        A[n, n + 1] = A[n + 1, n] = 1
    S = J**2 * A * A - gamma**2 / 4 * mpmath.eye(p.N)
    S[0, 0] += 4 * h**2
    ref = sorted(mpmath.eigsy(S, eigvals_only=True))
    eps2 = np.sort((majorana_modes(p) ** 2).real)
    assert np.abs(eps2 - np.array([float(x) for x in ref])).max() <= 2e-15
    small = np.sort(np.abs(majorana_modes(p)))[:2]
    exact = sorted(float(mpmath.sqrt(abs(x))) for x in ref)[:2]
    assert exact[0] < 0.0035 and exact[1] < 0.0042
    assert np.abs(small - exact).max() <= 1e-13


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 40),
    gamma=st.floats(0.05, 3.0),
    h_frac=st.floats(0.0, 0.5),
    dj=st.floats(1e-3, 0.5),
    dh=st.floats(1e-3, 0.5),
)
def test_top_of_the_secular_spectrum_grows_with_j_and_h(n, gamma, h_frac, dj, dh):
    # S = J^2 A^2 + 4 h^2 e_1 e_1^T + const with both terms positive
    # semidefinite: the gapped set in J is one interval and J_c(h) falls.
    # tol is a few roundings of ||S|| <= 5 gamma^2 here
    def top(J, h):
        return np.linalg.eigvalsh(_secular(ChainParams(N=n, J=J, gamma=gamma, h=h)))[-1]

    h = h_frac * gamma
    for J in np.linspace(0.0, 0.6 * gamma, 7):
        tol = 1e-14 * max(1.0, gamma**2)
        assert top(J + dj * gamma, h) >= top(J, h) - tol
        assert top(J, h + dh * gamma) >= top(J, h) - tol


@pytest.mark.parametrize("n", [2, 3, 10, 64])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_no_gapped_coupling_at_or_above_a_quarter_of_the_loss(n, gamma):
    # at h >= gamma / 4 the field's entry 4 h^2 - gamma^2 / 4 of S is >= 0,
    # so the chain is gapless already at J = 0: J_c = 0
    for h in (gamma / 4, 0.3 * gamma, gamma):
        p = ChainParams(N=n, J=0.0, gamma=gamma, h=h)
        assert np.linalg.eigvalsh(_secular(p))[-1] >= -1e-15 * gamma**2
        assert majorana_gap(p) <= default_tol_gap(gamma)
        (point,) = ep_curve(n, [h], gamma=gamma).points
        assert point.j_c == 0.0
        with pytest.raises(ValueError, match="does not enclose"):
            find_ep_J(n, h, gamma=gamma)


@pytest.mark.parametrize(
    "params",
    [
        dict(N=3, J=1e200, h=0.1),
        dict(N=2, J=1e154),
        dict(N=5, J=0.2, gamma=3e154),
        dict(N=4, J=0.2, h=1e154),
        dict(N=2, J=9e153),
    ],
)
def test_an_overflowing_secular_matrix_is_refused(params, recwarn):
    # J^2, gamma^2/4 or 4 h^2 past the doubles: an inf in S made a nan gap,
    # or a LinAlgError in eigvalsh, with numpy warnings on the way
    p = ChainParams(**params)
    for fn in (_secular, majorana_gap, majorana_modes):
        with pytest.raises(ValueError, match=r"infs or NaNs.*J = .*gamma = .*h = "):
            fn(p)
    assert not recwarn.list
