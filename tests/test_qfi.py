"""The overlap-drop QFI estimator against the two-site closed forms."""

import logging

import numpy as np
import pytest

from nhchain import qfi
from nhchain.errors import EPProximityError
from nhchain.hamiltonian import ChainParams
from nhchain.qfi import (
    NEGATIVE_TOL,
    cramer_rao,
    fidelity_qfi_from_states,
    qfi_fidelity,
    qfi_two_site_analytic,
)

P_REF = ChainParams(N=2, J=0.3, h=0.1)
I_H_REF = 16.0 / 0.48
I_THETA_REF = 0.25646170927520423


def test_analytic_field_amplitude_reference():
    assert qfi_two_site_analytic(P_REF, "h") == pytest.approx(I_H_REF, rel=1e-14)


def test_analytic_angle_reference():
    assert qfi_two_site_analytic(P_REF, "theta") == pytest.approx(
        I_THETA_REF, rel=1e-12
    )


def test_analytic_angle_saturates_near_coalescence():
    # b -> 0 drives I_theta toward 1 + 4 J^2 / gamma^2
    J = 0.3
    h = np.sqrt((1 - 4 * J**2) - 0.01**2) / 4.0  # b = 0.01
    val = qfi_two_site_analytic(ChainParams(N=2, J=J, h=h), "theta")
    assert val == pytest.approx(1.0 + 4 * J**2, rel=0.02)


def test_analytic_angle_vanishes_without_field():
    assert qfi_two_site_analytic(ChainParams(N=2, J=0.3, h=0.0), "theta") == 0.0


def test_analytic_outside_gapped_region():
    with pytest.raises(ValueError, match="gapped"):
        qfi_two_site_analytic(ChainParams(N=2, J=0.3, h=0.2), "h")


def test_analytic_requires_two_sites():
    with pytest.raises(ValueError, match="N = 2"):
        qfi_two_site_analytic(ChainParams(N=3, J=0.1), "h")


def test_analytic_rejects_bad_target():
    with pytest.raises(ValueError, match="target"):
        qfi_two_site_analytic(P_REF, "J")


def test_fidelity_estimator_field_amplitude():
    est = qfi_fidelity(P_REF, "h", delta=1e-3, method="dense")
    assert est.value == pytest.approx(I_H_REF, rel=1e-3)
    assert est.method == "fidelity"
    assert est.reliable and est.richardson_diff < 0.05


def test_fidelity_estimator_angle():
    est = qfi_fidelity(
        ChainParams(N=2, J=0.3, h=0.1, theta=0.0), "theta", delta=1e-3, method="dense"
    )
    assert est.value == pytest.approx(I_THETA_REF, rel=1e-3)


def test_fidelity_estimator_angle_without_field():
    est = qfi_fidelity(
        ChainParams(N=2, J=0.3, h=0.0), "theta", delta=1e-3, method="dense"
    )
    assert est.value < 1e-6


@pytest.mark.parametrize("target,delta", [("h", 1e-3), ("theta", 1e-2)])
def test_oracle_match_on_gapped_grid(target, delta):
    # far from the coalescence (b >= 0.4) the default-scale steps meet the
    # closed forms within 0.1 %
    for J in np.linspace(0.05, 0.4, 4):
        a2 = 1 - 4 * J**2
        for frac in (0.3, 0.8):
            h = frac * np.sqrt(max(a2 - 0.4**2, 0.0)) / 4.0
            if h <= 0:
                continue
            p = ChainParams(N=2, J=float(J), h=float(h), theta=0.3)
            ref = qfi_two_site_analytic(p, target)
            est = qfi_fidelity(p, target, delta=delta, method="dense")
            assert est.value == pytest.approx(ref, rel=1e-3, abs=1e-9)


def test_gauge_invariance_of_estimator_cores():
    rng = np.random.default_rng(4)
    dim = 8
    vs = []
    for _ in range(3):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vs.append(v / np.linalg.norm(v))
    vm, _, vp = vs
    delta = 1e-3
    base_f = fidelity_qfi_from_states(vm, vp, delta)
    for _ in range(5):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
        got_f = fidelity_qfi_from_states(vm * phases[0], vp * phases[2], delta)
        assert got_f == pytest.approx(base_f, abs=1e-12 * max(1.0, abs(base_f)))


def test_monotone_growth_toward_coalescence():
    h = 0.1
    js = np.linspace(0.05, 0.42, 6)
    numeric = [
        qfi_fidelity(ChainParams(N=2, J=float(J), h=h), "h", delta=1e-4, method="dense").value
        for J in js
    ]
    analytic = [qfi_two_site_analytic(ChainParams(N=2, J=float(J), h=h), "h")
                for J in js]
    assert all(b > a for a, b in zip(numeric, numeric[1:]))
    assert all(b > a for a, b in zip(analytic, analytic[1:]))


def test_richardson_retry_near_coalescence(caplog):
    # b = 0.1: delta = 1e-3 is far out of the asymptotic regime, so the
    # first Richardson check fails and the step is retried at delta / 4
    J = 0.3
    h = np.sqrt((1 - 4 * J**2) - 0.1**2) / 4.0
    with caplog.at_level(logging.INFO, logger="nhchain"):
        est = qfi_fidelity(ChainParams(N=2, J=J, h=h), "h", delta=1e-3, method="dense")
    assert est.step == pytest.approx(2.5e-4)
    assert est.richardson_diff > 0  # recorded for the retried step
    # the retry is logged once, at INFO, with the first Richardson change
    [retry] = caplog.records
    assert retry.levelno == logging.INFO and "retry at delta/4" in retry.message
    assert retry.args[1] > 0.05


def test_unreliable_flag_survives_failed_retry(caplog):
    # an absurdly large angle step stays out of the asymptotic regime even
    # after the single delta/4 retry; the estimate comes back flagged
    with caplog.at_level(logging.INFO, logger="nhchain"):
        est = qfi_fidelity(P_REF, "theta", delta=2.5, method="dense")
    assert not est.reliable
    assert est.step == pytest.approx(0.625)
    assert est.richardson_diff > 0.05
    assert [r.levelno for r in caplog.records] == [logging.INFO, logging.WARNING]
    assert "unreliable" in caplog.records[1].message
    assert caplog.records[1].args[1] == est.richardson_diff


def test_estimates_propagate_ep_errors():
    with pytest.raises(EPProximityError):
        qfi_fidelity(ChainParams(N=2, J=0.3, h=0.2), "h", delta=1e-3, method="dense")


def test_field_step_cannot_cross_zero():
    with pytest.raises(ValueError, match="negative"):
        qfi_fidelity(ChainParams(N=2, J=0.3, h=0.0), "h", delta=1e-3, method="dense")


def test_rejects_nonpositive_step():
    with pytest.raises(ValueError, match="delta"):
        qfi_fidelity(P_REF, "h", delta=0.0, method="dense")


@pytest.mark.parametrize("method", ["auto", "dense"])
@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -1e-3])
def test_rejects_a_step_that_is_not_finite_and_positive(delta, method):
    # the exact path reads no step, but a NaN or infinite one is still a
    # caller's mistake, refused on every path before any solve
    with pytest.raises(ValueError, match="delta must be finite and > 0"):
        qfi_fidelity(P_REF, "h", delta=delta, method=method)


def test_positivity_clamp():
    # identical unit states have no overlap drop; values never come back
    # negative
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    assert fidelity_qfi_from_states(v, v, 1e-3) == 0.0


def test_exactly_zero_qfi_is_not_refused_as_negative(caplog):
    # no field, so the theta QFI is exactly 0 (the exact path returns 0.0);
    # 1 - |overlap| rounds to about -16 ulp, which (2 delta)^2 / 8 turns into
    # -7e-9, beyond the unscaled floor of 1e-10.  Both Richardson estimates
    # are such noise, so their change is measured against that floor: no
    # retry, nothing logged, and the estimate is reliable
    with caplog.at_level(logging.DEBUG, logger="nhchain"):
        est = qfi_fidelity(
            ChainParams(N=4, J=0.1, h=0, theta=0.3), "theta", method="dense"
        )
    floor = NEGATIVE_TOL * 8.0 / (2.0 * est.step) ** 2
    assert 0.0 <= est.value <= floor
    assert est.reliable and est.step == 1e-3
    assert caplog.records == []


def test_exactly_zero_krylov_qfi_from_a_warm_start(caplog):
    # at h = 0 theta leaves the generator unchanged, so every warm start
    # after the first is an exact eigenvector; the estimate is still 0
    with caplog.at_level(logging.DEBUG, logger="nhchain"):
        est = qfi_fidelity(
            ChainParams(N=6, J=0.1, h=0, theta=0.3), "theta", method="krylov"
        )
    floor = NEGATIVE_TOL * 8.0 / (2.0 * est.step) ** 2
    assert 0.0 <= est.value <= floor
    assert est.reliable and est.step == 1e-3
    assert caplog.records == []


@pytest.mark.parametrize("retry", [False, True])
def test_krylov_estimate_warm_starts_each_solve_from_the_last(monkeypatch, retry):
    # the first ARPACK call starts from the seeded draw, and every later one
    # (the delta/4 retry included) from the previous steady-state vector
    import scipy.sparse.linalg as sla

    exact_eigs, starts, found = sla.eigs, [], []

    def spy(*args, **kwargs):
        starts.append(kwargs["v0"].copy())
        w, v = exact_eigs(*args, **kwargs)
        found.append(v[:, 0] / np.linalg.norm(v[:, 0]))
        return w, v

    monkeypatch.setattr(sla, "eigs", spy)
    if retry:
        monkeypatch.setattr(qfi, "RICHARDSON_LIMIT", -1.0)
    p = ChainParams(N=6, J=0.23, h=0.2, theta=0.4)
    qfi_fidelity(p, "h", delta=2e-4, method="krylov", seed=5)
    assert len(starts) == (8 if retry else 4)
    rng = np.random.default_rng(5)
    assert np.array_equal(
        starts[0], rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)
    )
    for v0, previous in zip(starts[1:], found):
        assert np.linalg.norm(v0) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.vdot(v0, previous)) == pytest.approx(1.0, abs=1e-14)


def test_cramer_rao_arithmetic():
    assert cramer_rao(25.0, 100) == pytest.approx(0.02, abs=1e-15)


def test_cramer_rao_from_reference_fisher():
    assert cramer_rao(I_H_REF, 1) == pytest.approx(0.17320508075688773, abs=1e-12)


def test_cramer_rao_rounds_scaling():
    assert cramer_rao(7.3, 400) == pytest.approx(0.5 * cramer_rao(7.3, 100), rel=1e-12)


def test_cramer_rao_validation():
    with pytest.raises(ValueError, match="Fisher"):
        cramer_rao(0.0, 10)
    with pytest.raises(ValueError, match="rounds"):
        cramer_rao(1.0, 0)
    # a NaN or infinite Fisher information would give nan or 0.0, and a
    # fractional number of rounds a floor for no real experiment
    for fisher in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="Fisher"):
            cramer_rao(fisher, 10)
    for rounds in (2.5, 10.0, -3, True, False):
        with pytest.raises(ValueError, match="rounds"):
            cramer_rao(1.0, rounds)
