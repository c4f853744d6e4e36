"""Steady-state observables against the dense solver and closed forms."""

import numpy as np
import pytest

from nhchain.hamiltonian import ChainParams, build_total
from nhchain.observables import (
    correlation_profile,
    correlations_two_site,
    expectation,
    magnetizations_two_site,
    pair_correlation_op,
    site_magnetizations,
)
from nhchain.operators import embed, pauli
from nhchain.spectral import solve_steady_state, steady_state_dense

P_REF = ChainParams(N=2, J=0.3, h=0.1)


@pytest.fixture(scope="module")
def ss_ref():
    return steady_state_dense(build_total(P_REF), P_REF)


def test_identity_expectation_is_one(ss_ref):
    identity = embed(pauli("identity"), 1, 2)
    assert expectation(ss_ref, identity) == pytest.approx(1.0, abs=1e-12)


def test_sy1_expectation(ss_ref):
    val = expectation(ss_ref, embed(pauli("y"), 1, 2))
    assert val == pytest.approx(0.4, abs=1e-10)


def test_sz2_expectation(ss_ref):
    val = expectation(ss_ref, embed(pauli("z"), 2, 2))
    assert val == pytest.approx(-0.8, abs=1e-10)


def test_expectation_dimension_mismatch(ss_ref):
    with pytest.raises(ValueError, match="does not match"):
        expectation(ss_ref, embed(pauli("identity"), 1, 3))


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
    mags = [
        expectation(ss, embed(pauli(ax), site, 2)).real
        for site in (1, 2)
        for ax in ("x", "y", "z")
    ]
    expected = magnetizations_two_site(p)
    got = (mags[0], mags[1], mags[2], mags[3], mags[4], mags[5])
    assert got == pytest.approx(expected, abs=1e-10)

    xx = expectation(ss, pair_correlation_op("x", 1, 2, 2)).real
    yy = expectation(ss, pair_correlation_op("y", 1, 2, 2)).real
    zz = expectation(ss, pair_correlation_op("z", 1, 2, 2)).real
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
        assert abs(expectation(ss, embed(pauli("x"), 2, 2))) < 1e-10
        assert abs(expectation(ss, embed(pauli("y"), 2, 2))) < 1e-10


def test_record_names_and_sites():
    p = ChainParams(N=3, J=0.2, h=0.1)
    ss = solve_steady_state(p)
    mags = site_magnetizations(ss)
    assert [r.name for r in mags[:3]] == ["sx_1", "sy_1", "sz_1"]
    assert [r.sites for r in mags] == [(n,) for n in (1, 2, 3) for _ in "xyz"]
