"""Steady-state observables against the dense solver and closed forms."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nhchain.hamiltonian import ChainParams, build_total
from nhchain.majorana import majorana_gap
from nhchain.observables import (
    correlation_profile,
    correlations_two_site,
    magnetizations_two_site,
    site_magnetizations,
)
from nhchain.operators import kron_chain, pauli
from nhchain.spectral import SteadyState, solve_steady_state, steady_state_dense

P_REF = ChainParams(N=2, J=0.3, h=0.1)


@pytest.fixture(scope="module")
def ss_ref():
    return steady_state_dense(build_total(P_REF), P_REF)


def pauli_string(factors, N):
    """Literal Kronecker product: ``factors[n]`` on site n, identity elsewhere."""
    return kron_chain([pauli(factors.get(n, "identity")) for n in range(1, N + 1)])


def magnetization(ss, name):
    return {r.name: r.value for r in site_magnetizations(ss)}[name]


def test_identity_expectation_is_one(ss_ref):
    identity = pauli_string({}, 2)
    val = np.vdot(ss_ref.vector, identity @ ss_ref.vector)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_sy1_expectation(ss_ref):
    val = magnetization(ss_ref, "sy_1")
    assert val == pytest.approx(0.4, abs=1e-10)


def test_sz2_expectation(ss_ref):
    val = magnetization(ss_ref, "sz_2")
    assert val == pytest.approx(-0.8, abs=1e-10)


def test_magnetizations_reference_point():
    got = magnetizations_two_site(P_REF)
    expected = (0.0, 0.4, -0.6928203230275509, 0.0, 0.0, -0.8)
    assert got == pytest.approx(expected, abs=1e-12)


def test_magnetizations_zero_field():
    p = ChainParams(N=2, J=0.3, h=0.0)
    a = np.sqrt(1 - 4 * 0.3**2)
    got = magnetizations_two_site(p)
    assert got == pytest.approx((0.0, 0.0, -a, 0.0, 0.0, -a), abs=1e-12)


def test_magnetizations_field_angle_flip():
    p1 = ChainParams(N=2, J=0.2, h=0.1, theta=0.6)
    p2 = ChainParams(N=2, J=0.2, h=0.1, theta=0.6 + np.pi)
    m1, m2 = magnetizations_two_site(p1), magnetizations_two_site(p2)
    assert m2[0] == pytest.approx(-m1[0], abs=1e-12)
    assert m2[1] == pytest.approx(-m1[1], abs=1e-12)
    assert m2[2:] == pytest.approx(m1[2:], abs=1e-12)


def test_magnetizations_outside_gapped_region():
    with pytest.raises(ValueError, match="gapped"):
        magnetizations_two_site(ChainParams(N=2, J=0.3, h=0.25))


@pytest.mark.parametrize("theta", np.linspace(0.0, 2 * np.pi, 9))
@pytest.mark.parametrize("J,h", [(0.3, 0.1), (0.15, 0.2), (0.45, 0.05)])
def test_closed_forms_match_dense_solver(J, h, theta):
    # the mandated cross-check of both magnetizations and correlations
    # against the dense 4x4 solver across the field angle
    p = ChainParams(N=2, J=J, h=h, theta=theta)
    ss = steady_state_dense(build_total(p), p)
    mags = [r.value for r in site_magnetizations(ss)]
    expected = magnetizations_two_site(p)
    got = (mags[0], mags[1], mags[2], mags[3], mags[4], mags[5])
    assert got == pytest.approx(expected, abs=1e-10)

    (xx,), (yy,), (zz,) = (correlation_profile(ss, ax) for ax in ("x", "y", "z"))
    assert (xx, yy, zz) == pytest.approx(correlations_two_site(p), abs=1e-10)


def test_correlations_reference_point():
    p = ChainParams(N=2, J=0.3, h=0.1, theta=np.pi / 4)
    xx, yy, zz = correlations_two_site(p)
    assert xx == pytest.approx(0.040192378864668415, abs=1e-12)
    assert yy == xx
    assert zz == pytest.approx(0.8660254037844386, abs=1e-12)


def test_correlations_vanish_at_zero_angle():
    xx, yy, zz = correlations_two_site(ChainParams(N=2, J=0.3, h=0.1, theta=0.0))
    assert xx == 0.0 and yy == 0.0
    assert zz == pytest.approx(0.8660254037844386, abs=1e-12)


def test_correlations_zero_field_limit():
    xx, yy, zz = correlations_two_site(ChainParams(N=2, J=0.3, h=0.0, theta=0.7))
    assert zz == pytest.approx(1.0, abs=1e-12)
    assert xx == pytest.approx(0.0, abs=1e-12)


def test_profile_two_site_z(ss_ref):
    prof = correlation_profile(ss_ref, "z")
    assert prof.shape == (1,)
    assert prof[0] == pytest.approx(0.8660254037844386, abs=1e-10)


def test_profile_two_site_y_zero_field():
    p = ChainParams(N=2, J=0.3, h=0.0)
    ss = steady_state_dense(build_total(p), p)
    prof = correlation_profile(ss, "y")
    assert abs(prof[0]) < 1e-10


def test_profile_envelope_decays_six_sites():
    p = ChainParams(N=6, J=0.23, h=0.2, theta=0.0)
    ss = solve_steady_state(p)
    prof = correlation_profile(ss, "y")
    assert abs(prof[-1]) < abs(prof[0 + 1])  # n=6 vs n=3 (odd-distance pair)
    assert abs(prof[-1]) < 0.05


def test_profile_rejects_bad_axis(ss_ref):
    with pytest.raises(ValueError, match="axis"):
        correlation_profile(ss_ref, "q")


def test_hermitian_expectations_have_real_values():
    p = ChainParams(N=4, J=0.22, h=0.18, theta=1.2)
    ss = solve_steady_state(p)
    for rec in site_magnetizations(ss):
        assert isinstance(rec.value, float)
    for value in correlation_profile(ss, "x"):
        assert isinstance(value, float)


def test_site2_transverse_magnetizations_vanish():
    rng = np.random.default_rng(8)
    for _ in range(5):
        J = rng.uniform(0.05, 0.4)
        h = rng.uniform(0.02, 0.15)
        p = ChainParams(N=2, J=J, h=h, theta=rng.uniform(0, 2 * np.pi))
        if p.gamma**2 - 4 * J**2 - 16 * h**2 <= 0.01:
            continue
        ss = steady_state_dense(build_total(p), p)
        assert abs(magnetization(ss, "sx_2")) < 1e-10
        assert abs(magnetization(ss, "sy_2")) < 1e-10


def test_record_names_and_sites():
    p = ChainParams(N=3, J=0.2, h=0.1)
    ss = solve_steady_state(p)
    mags = site_magnetizations(ss)
    assert [r.name for r in mags[:3]] == ["sx_1", "sy_1", "sz_1"]
    assert [r.sites for r in mags] == [(n,) for n in (1, 2, 3) for _ in "xyz"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    N=st.integers(2, 6),
    J=st.floats(0.0, 0.4),
    h=st.floats(0.0, 0.3),
    theta=st.floats(-7.0, 7.0),
)
def test_observables_match_kron_oracle(N, J, h, theta):
    # every magnetization and every x/y/z profile at N > 2 against literal
    # Pauli Kronecker products on the dense steady state
    p = ChainParams(N=N, J=J, h=h, theta=theta)
    assume(majorana_gap(p) > 1e-2)
    ss = steady_state_dense(build_total(p), p)
    v = ss.vector

    def oracle(factors):
        return np.vdot(v, pauli_string(factors, N) @ v)

    mags = site_magnetizations(ss)
    assert len(mags) == 3 * N
    for rec in mags:
        (n,) = rec.sites
        assert abs(rec.value - oracle({n: rec.name[1]})) < 1e-12
    for ax in ("x", "y", "z"):
        expected = [oracle({1: ax, n: ax}) for n in range(2, N + 1)]
        assert np.abs(correlation_profile(ss, ax) - expected).max() < 1e-12


@settings(max_examples=35, deadline=None, derandomize=True, database=None)
@given(N=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_site_magnetizations_match_literal_pauli_expectations(N, seed):
    # each site's 2x2 reduced density matrix against <v| s_n |v> with s_n a
    # literal Kronecker product, on a random unit vector: every amplitude is
    # nonzero and complex, so no site's contraction can drop a term unseen
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << N) + 1j * rng.standard_normal(1 << N)
    v /= np.linalg.norm(v)
    p = ChainParams(N=N, J=0.23, h=0.2)
    ss = SteadyState(params=p, eigenvalue=0j, vector=v, gap=1.0, method="dense")
    mags = site_magnetizations(ss)
    assert [r.name for r in mags] == [
        f"s{ax}_{n}" for n in range(1, N + 1) for ax in ("x", "y", "z")
    ]
    for rec in mags:
        (n,) = rec.sites
        expected = np.vdot(v, pauli_string({n: rec.name[1]}, N) @ v)
        assert abs(rec.value - expected) <= 1e-14, (rec.name, rec.value, expected)
