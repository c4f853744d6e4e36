"""Gap closure location and inverse-size scaling fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhchain import critical
from nhchain.critical import ep_curve, find_ep_J, fit_inverse_poly, gap_at
from nhchain.hamiltonian import ChainParams, build_total
from nhchain.majorana import default_tol_gap
from nhchain.spectral import dense_eigenvalues, steady_state_krylov

GAP_REF = 0.34641016151377546  # b/2 at J=0.3, h=0.1, gamma=1


def test_gap_reference_point():
    assert gap_at(ChainParams(N=2, J=0.3, h=0.1)) == pytest.approx(GAP_REF, abs=1e-10)


def test_gap_closes_on_the_boundary():
    # b = 0 along h = sqrt(gamma^2 - 4 J^2) / 4
    J = 0.3
    h = np.sqrt(1 - 4 * J**2) / 4.0
    assert gap_at(ChainParams(N=2, J=J, h=h)) <= 1e-8


def test_gap_decoupled_chain():
    assert gap_at(ChainParams(N=2, J=0.0, h=0.0)) == pytest.approx(0.5, abs=1e-12)


def test_gap_krylov_matches_dense():
    p = ChainParams(N=4, J=0.2, h=0.15, theta=0.4)
    H = build_total(p)
    w = dense_eigenvalues(H)
    kry = steady_state_krylov(H, p, tol=1e-10).gap
    assert kry == pytest.approx(w[0].imag - w[1].imag, abs=1e-7)


def test_gap_continuity_in_coupling():
    # empirical continuity scan away from the closure
    for J in np.linspace(0.05, 0.25, 9):
        g1 = gap_at(ChainParams(N=3, J=float(J), h=0.1))
        g2 = gap_at(ChainParams(N=3, J=float(J) + 1e-5, h=0.1))
        assert abs(g1 - g2) < 1e-3


def test_find_ep_two_site_reference_points():
    # analytic boundary: J_c = sqrt(gamma^2 - 16 h^2) / 2
    assert find_ep_J(N=2, h=0.2, tol_J=2e-5) == pytest.approx(0.3, abs=1e-4)
    assert find_ep_J(N=2, h=0.0, tol_J=2e-5) == pytest.approx(0.5, abs=1e-4)


def test_find_ep_invalid_bracket():
    # at h > gamma / 4 the gap is closed already at J = 0
    with pytest.raises(ValueError, match="does not enclose the gap closure"):
        find_ep_J(N=2, h=0.3)
    with pytest.raises(ValueError, match="does not enclose the gap closure"):
        find_ep_J(N=5, h=0.6, gamma=2.0)


@pytest.mark.parametrize("gamma", [0.05, 0.5, 2.0, 3.0])
def test_find_ep_scales_with_gamma(gamma):
    # the bracket [0, 0.6 gamma] follows gamma: both closed forms hold away
    # from gamma = 1
    tol_J = 1e-5
    h = 0.1 * gamma
    expected = math.sqrt(gamma**2 - 16 * h**2) / 2
    assert abs(find_ep_J(2, h, gamma=gamma, tol_J=tol_J) - expected) <= tol_J
    for n in range(2, 10):
        expected = gamma / (4 * math.cos(math.pi / (n + 1)))
        assert abs(find_ep_J(n, 0.0, gamma=gamma, tol_J=tol_J) - expected) <= tol_J, n


# 25 draws, most of them at N > 20, take under 1 s: a gap at N = 40 is an
# 81-dimensional eigensolve of ~3 ms on a 2-core Xeon
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 40),
    gamma=st.floats(0.05, 3.0),
    h_frac=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2 * math.pi),
)
def test_gap_closes_once_inside_the_bracket(n, gamma, h_frac, theta):
    # the premise of the bracket [0, 0.6 gamma]: its upper edge is gapless,
    # and the gapped set in J is one interval [0, J_c), so the indicator
    # gap > tol_gap turns off at most once on the way up
    h = h_frac * gamma
    tol_gap = default_tol_gap(gamma)
    gapped = [
        gap_at(ChainParams(N=n, J=float(J), gamma=gamma, h=h, theta=theta)) > tol_gap
        for J in np.linspace(0.0, 0.6 * gamma, 41)
    ]
    assert not gapped[-1]
    assert not any(gapped[gapped.index(False) :])


def _bounded_gap_at(monkeypatch, limit=200):
    """Make ``critical.gap_at`` raise after ``limit`` calls, so that a
    bisection that does not stop fails instead of hanging."""
    calls = []
    real_gap_at = critical.gap_at

    def spy(p):
        calls.append(p)
        if len(calls) > limit:
            raise RuntimeError(f"bisection did not stop after {limit} gaps")
        return real_gap_at(p)

    monkeypatch.setattr(critical, "gap_at", spy)
    return calls


@pytest.mark.parametrize("tol_J", [0.0, -1.0, float("nan"), float("inf")])
def test_invalid_tol_j_is_refused_before_any_gap(tol_J, monkeypatch):
    # tol_J <= 0 would bisect forever and nan or inf would stop at once
    calls = _bounded_gap_at(monkeypatch)
    with pytest.raises(ValueError, match="tol_J"):
        find_ep_J(2, 0.2, tol_J=tol_J)
    with pytest.raises(ValueError, match="tol_J"):
        ep_curve(2, [0.0, 0.1], tol_J=tol_J)
    assert calls == []


def test_bisection_below_the_spacing_of_doubles_stops(monkeypatch):
    # near J_c ~ 0.458 the doubles are 5.6e-17 apart, so the midpoint stops
    # moving long before hi - lo <= 1e-300; the bisection then ends on two
    # adjacent doubles, and the indicator closes ~1e-12 before the EP
    _bounded_gap_at(monkeypatch)
    exact = math.sqrt(1.0 - 16.0 * 0.1**2) / 2.0
    assert find_ep_J(2, 0.1, tol_J=1e-300) == pytest.approx(exact, abs=1e-9)
    (point,) = ep_curve(2, [0.1], tol_J=1e-300).points
    lo, hi = point.bracket
    assert hi == np.nextafter(lo, np.inf)
    assert abs(point.j_c - exact) <= 1e-9


def test_ep_curve_two_site_matches_analytic_boundary():
    h_grid = np.linspace(0.0, 0.24, 7)
    curve = ep_curve(N=2, h_grid=h_grid, tol_J=1e-4)
    assert not curve.failures
    assert len(curve.points) == 7
    for pt in curve.points:
        expected = np.sqrt(1 - 16 * pt.h**2) / 2.0
        assert pt.j_c == pytest.approx(expected, abs=1e-4)
        assert pt.bracket[1] - pt.bracket[0] <= curve.tol_J
    # monotone decreasing boundary
    jcs = [pt.j_c for pt in curve.points]
    assert all(b < a for a, b in zip(jcs, jcs[1:]))


def test_ep_curve_gapless_edge_point():
    # at h = 0.25 the gapped region has closed entirely: J_c collapses to
    # the lower bracket edge
    curve = ep_curve(N=2, h_grid=[0.25], tol_J=1e-4)
    assert not curve.failures
    assert curve.points[0].j_c == pytest.approx(0.0, abs=1e-4)


def test_ep_curve_evaluates_each_coupling_once(monkeypatch):
    seen = []
    real_gap_at = critical.gap_at

    def spy(p):
        seen.append(p.J)
        return real_gap_at(p)

    monkeypatch.setattr(critical, "gap_at", spy)
    curve = ep_curve(2, [0.1], tol_J=1e-4)
    assert len(seen) == len(set(seen)) == 15
    # the same bisection as before the lower-edge gap was reused
    assert curve.points[0].j_c == 0.45823974609374996
    assert curve.points[0].j_c == find_ep_J(2, 0.1, tol_J=1e-4)


def test_ep_curve_bracket_indicator_consistency():
    curve = ep_curve(N=2, h_grid=[0.1], tol_J=1e-4)
    (pt,) = curve.points
    lo, hi = pt.bracket
    assert gap_at(ChainParams(N=2, J=lo, h=0.1)) > curve.tol_gap
    assert gap_at(ChainParams(N=2, J=hi, h=0.1)) <= curve.tol_gap


def test_ep_curve_records_per_point_failures(monkeypatch):
    # a gap still open at the upper bracket edge cannot be bisected; the
    # point is recorded as a failure and the curve keeps going
    monkeypatch.setattr(critical, "gap_at", lambda p: 1.0)
    curve = ep_curve(N=2, h_grid=[0.0, 0.2], tol_J=1e-3)
    assert len(curve.failures) == 2
    assert all("bracket" in msg for _, msg in curve.failures)
    assert not curve.points


def test_boundary_shrinks_with_size():
    j2 = find_ep_J(N=2, h=0.2, tol_J=1e-4)
    j4 = find_ep_J(N=4, h=0.2, tol_J=1e-4)
    assert j4 < j2


def test_fit_recovers_exact_model():
    sizes = [2, 3, 4, 6, 8, 10]
    pts = [(n, 0.8 / n**2 + 0.05 / n + 0.25) for n in sizes]
    fit = fit_inverse_poly(pts, degree=2)
    assert fit.coefficients == pytest.approx((0.8, 0.05, 0.25), abs=1e-10)
    assert fit.residual_norm < 1e-12
    assert fit.extrapolated == pytest.approx(0.25, abs=1e-10)


def test_fit_residual_orthogonal_to_design():
    rng = np.random.default_rng(9)
    sizes = np.arange(2, 11)
    values = 0.9 / sizes**2 + 0.02 / sizes + 0.25 + 0.001 * rng.standard_normal(9)
    fit = fit_inverse_poly(list(zip(sizes, values)), degree=2)
    design = np.column_stack([sizes**-2.0, sizes**-1.0, np.ones(9)])
    resid = values - design @ np.array(fit.coefficients)
    assert np.abs(design.T @ resid).max() < 1e-10


def test_fit_residual_improves_with_degree():
    sizes = np.arange(2, 11)
    values = 1.1 / sizes**2 + 0.01 / sizes + 0.24
    pts = list(zip(sizes, values))
    r1 = fit_inverse_poly(pts, degree=1).residual_norm
    r2 = fit_inverse_poly(pts, degree=2).residual_norm
    assert r2 <= r1 + 1e-15


def test_fit_requires_four_distinct_sizes():
    with pytest.raises(ValueError, match="4 distinct"):
        fit_inverse_poly([(2, 0.5), (2, 0.5), (3, 0.35), (4, 0.31)])


def test_fit_refuses_a_point_that_is_not_finite():
    # a NaN J_c would give a fit of NaN coefficients
    with pytest.raises(ValueError, match="finite"):
        fit_inverse_poly([(2, 0.5), (3, float("nan")), (4, 0.31), (5, 0.29)])


def test_fit_rejects_bad_degree():
    # True is an int and 2.5 reached range(): they fitted degree 1 and raised
    # TypeError
    for degree in (0, True, 2.5):
        with pytest.raises(ValueError, match="degree"):
            fit_inverse_poly([(2, 0.5), (3, 0.35), (4, 0.31), (5, 0.29)], degree=degree)
