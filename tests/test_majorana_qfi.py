"""The exact Gaussian QFI against the closed forms and the overlap drop."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

from nhchain import majorana
from nhchain.errors import EPProximityError
from nhchain.hamiltonian import ChainParams
from nhchain.majorana import majorana_gap, majorana_qfi, majorana_qfi_matrix
from nhchain.qfi import fidelity_qfi_from_states, qfi_fidelity, qfi_two_site_analytic
from nhchain.spectral import solve_steady_state


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    j=st.floats(0.0, 0.49),
    frac=st.floats(0.0, 0.99),
    theta=st.floats(0.0, 2.0 * math.pi),
    gamma=st.sampled_from([0.5, 1.0, 2.0]),
)
@example(j=0.0, frac=0.0, theta=0.0, gamma=1.0)
@example(j=0.0, frac=0.5, theta=1.0, gamma=1.0)
@example(j=0.3, frac=0.0, theta=2.0, gamma=1.0)
def test_two_site_closed_forms(j, frac, theta, gamma):
    # frac sets h as a fraction of the closure h_c = sqrt(gamma^2 - 4 J^2) / 4
    J = j * gamma
    h = frac * math.sqrt(gamma**2 - 4.0 * J**2) / 4.0
    p = ChainParams(N=2, J=J, gamma=gamma, h=h, theta=theta)
    assume(gamma**2 - 4.0 * J**2 - 16.0 * h**2 > 1e-2 * gamma**2)
    for target in ("h", "theta"):
        ref = qfi_two_site_analytic(p, target)
        got = qfi_fidelity(p, target)
        assert got.method == "majorana"
        assert abs(got.value - ref) <= 1e-12 * abs(ref), (target, got.value, ref)


def test_exact_estimate_has_no_step():
    est = qfi_fidelity(ChainParams(N=2, J=0.3, h=0.1), "h")
    assert est.method == "majorana" and est.reliable
    assert np.isnan(est.step) and np.isnan(est.richardson_diff)
    assert est.value == majorana_qfi(est.params, "h")


@pytest.mark.parametrize("target", ["h", "theta"])
@pytest.mark.parametrize("n", range(2, 9))
def test_overlap_drop_agrees_within_its_step_bias(n, target):
    # the delta estimate's O(delta^2) bias is (4/3) richardson_diff, because
    # the delta/2 estimate removes 3/4 of it
    p = ChainParams(N=n, J=0.23, h=0.2, theta=0.4)
    exact = majorana_qfi(p, target)
    drop = qfi_fidelity(p, target, method="dense")
    assert abs(drop.value - exact) <= 1.5 * drop.richardson_diff * exact


@pytest.mark.parametrize(
    "params",
    [dict(N=2, J=0.3, h=0.2), dict(N=2, J=0.3, h=0.1, gamma=0.0), dict(N=6, J=0.3, h=0.1)],
)
def test_exact_path_refuses_an_exceptional_point(params):
    for target in ("h", "theta"):
        with pytest.raises(EPProximityError):
            qfi_fidelity(ChainParams(**params), target)


def test_exact_path_rejects_bad_target():
    with pytest.raises(ValueError, match="target"):
        majorana_qfi(ChainParams(N=2, J=0.3, h=0.1), "J")


def test_large_chain_builds_no_many_body_operator(monkeypatch):
    def no_build(p):
        raise AssertionError("many-body operator built for the exact QFI")

    monkeypatch.setattr("nhchain.spectral.build_total", no_build)
    p = ChainParams(N=200, J=0.23, h=0.2)
    est = qfi_fidelity(p, "h")
    assert est.value == pytest.approx(311.5232550643, rel=1e-9)
    F = majorana_qfi_matrix(p)
    assert F[0, 0] == est.value
    assert majorana_qfi(p, "theta") == F[1, 1] == pytest.approx(1.13348689, rel=1e-8)


def _random_points(n, seed, far=20):
    """Gapped points until ``far`` of them have a gap of at least gamma / 20."""
    rng = np.random.default_rng(seed)
    points, count = [], 0
    for _ in range(50 * far):
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        p = ChainParams(
            N=n,
            J=gamma * rng.uniform(0.0, 0.4),
            gamma=gamma,
            h=gamma * rng.uniform(0.0, 0.3),
            theta=rng.uniform(0.0, 2.0 * math.pi),
        )
        try:
            points.append((p, majorana_qfi_matrix(p)))
        except EPProximityError:
            continue
        count += majorana_gap(p) >= p.gamma / 20
        if count == far:
            return points
    raise AssertionError(f"fewer than {far} well-gapped points at N = {n}")


@pytest.mark.parametrize("n", [2, 3, 4, 8, 32])
def test_qfi_matrix_is_symmetric_psd_and_diagonal(n):
    for p, F in _random_points(n, seed=n):
        assert F.shape == (2, 2) and F.dtype == np.float64
        assert F[0, 1] == F[1, 0]
        assert F[0, 0] >= 0 and F[1, 1] >= 0
        assert F[0, 0] * F[1, 1] - F[0, 1] ** 2 >= -1e-12 * F[0, 0] * F[1, 1]
        assert [F[0, 0], F[1, 1]] == [qfi_fidelity(p, t).value for t in ("h", "theta")]
        # h and theta are uncorrelated: F_h,theta vanishes to rounding.  Near
        # the EP, F_hh grows as 1/gap^2 and so does the rounding floor of the
        # entries, so the bound against sqrt(F_hh F_theta,theta) holds away
        # from it.
        assert abs(F[0, 1]) <= 1e-12 * F.max(), p
        if majorana_gap(p) >= p.gamma / 20:
            assert abs(F[0, 1]) <= 1e-12 * math.sqrt(F[0, 0] * F[1, 1]), p


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", range(3, 7))
def test_off_diagonal_against_a_joint_shift(n, sign):
    # shift h and theta together by (a, b) delta, with a and b scaled so both
    # diagonal terms contribute 1: a wrong F_h,theta shows at O(1)
    p = ChainParams(N=n, J=0.23, h=0.2, theta=0.4)
    F = majorana_qfi_matrix(p)
    a, b = 1.0 / math.sqrt(F[0, 0]), sign / math.sqrt(F[1, 1])
    exact = a * a * F[0, 0] + 2.0 * a * b * F[0, 1] + b * b * F[1, 1]

    def drop(delta):
        v = [
            solve_steady_state(
                replace(p, h=p.h + s * a * delta, theta=p.theta + s * b * delta),
                method="dense",
            ).vector
            for s in (-1.0, 1.0)
        ]
        return fidelity_qfi_from_states(*v, delta)

    value, value_half = drop(1e-3), drop(5e-4)
    richardson_diff = abs(value - value_half) / value_half
    assert abs(value - exact) <= 1.5 * richardson_diff * exact


def _count_schur(monkeypatch):
    calls = []
    schur = majorana.la.schur

    def spy(*args, **kw):
        calls.append(1)
        return schur(*args, **kw)

    monkeypatch.setattr(majorana.la, "schur", spy)
    majorana._gram.cache_clear()
    return calls


def test_both_targets_share_one_factorisation(monkeypatch):
    calls = _count_schur(monkeypatch)
    p1 = ChainParams(N=4, J=0.23, h=0.2, theta=0.4)
    p2 = replace(p1, h=0.1)
    majorana_qfi(p1, "h")
    majorana_qfi(p1, "theta")
    assert len(calls) == 1
    # the memo keeps one point: nothing is reused across points
    majorana._gram.cache_clear()
    majorana_qfi(p1, "h")
    majorana_qfi(p2, "h")
    majorana_qfi(p1, "theta")
    assert len(calls) == 4


def test_memo_is_read_only(monkeypatch):
    _count_schur(monkeypatch)
    p = ChainParams(N=4, J=0.23, h=0.2, theta=0.4)
    F = majorana_qfi_matrix(p)
    F[0, 0] = 0.0
    assert majorana_qfi(p, "h") > 0
    G = majorana._gram(p, majorana.default_tol_gap(p.gamma))
    assert not G.flags.writeable


def test_exceptional_point_is_refused_on_every_call(monkeypatch):
    calls = _count_schur(monkeypatch)
    p = ChainParams(N=2, J=0.3, h=0.2)
    for _ in range(2):
        with pytest.raises(EPProximityError):
            majorana_qfi(p, "h")
    assert len(calls) == 2


def test_a_raised_gap_tolerance_is_a_new_key(monkeypatch):
    calls = _count_schur(monkeypatch)
    p = ChainParams(N=4, J=0.23, h=0.2, theta=0.4)
    majorana_qfi(p, "h")
    monkeypatch.setattr("nhchain.spectral.TOL_GAP_FACTOR", 1.0)
    with pytest.raises(EPProximityError):
        majorana_qfi(p, "theta")
    assert len(calls) == 2


def test_non_finite_matrix_is_refused():
    # h = 1e308 is finite, but B's edge entry 2h is not; _majorana_matrix
    # refuses it, naming h, before numpy overflows or LAPACK sees it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"infs or NaNs.*h = 1e\+308") as info:
            majorana_qfi(ChainParams(N=3, J=0.1, h=1e308), "h")
    assert not isinstance(info.value, LinAlgError)
