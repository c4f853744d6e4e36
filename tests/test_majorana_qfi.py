"""The exact Gaussian QFI against the closed forms and the overlap drop."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nhchain.errors import EPProximityError
from nhchain.hamiltonian import ChainParams
from nhchain.majorana import majorana_qfi
from nhchain.qfi import qfi_fidelity, qfi_two_site_analytic


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
    est = qfi_fidelity(ChainParams(N=200, J=0.23, h=0.2), "h")
    assert est.value == pytest.approx(311.5232550643, rel=1e-9)
