"""The exact Gaussian QFI against the closed forms and the overlap drop."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import zgesv, ztrsyl, ztrtrs

from nhchain import majorana
from nhchain.errors import EPProximityError
from nhchain.hamiltonian import ChainParams
from nhchain.majorana import (
    default_tol_gap,
    majorana_gap,
    majorana_qfi,
    majorana_qfi_matrix,
)
from nhchain.qfi import fidelity_qfi_from_states, qfi_fidelity, qfi_two_site_analytic
from nhchain.spectral import solve_steady_state
from reference import padded_majorana_matrix


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


def _count_dgeev(monkeypatch):
    """Count the real eigensolves; a complex one, or a second one for the
    gap alone, raises."""
    calls = []
    eig = majorana.eig

    def spy(a):
        if a.dtype != np.float64:
            raise AssertionError("complex eigensolve on the QFI path")
        calls.append(1)
        return eig(a)

    def refused(*args, **kw):
        raise AssertionError("eigenvalue-only solve on the QFI path")

    monkeypatch.setattr(majorana, "eig", spy)
    monkeypatch.setattr(majorana, "eigvals", refused)
    majorana._gram.cache_clear()
    return calls


def test_both_targets_share_one_factorisation(monkeypatch):
    calls = _count_dgeev(monkeypatch)
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
    _count_dgeev(monkeypatch)
    p = ChainParams(N=4, J=0.23, h=0.2, theta=0.4)
    F = majorana_qfi_matrix(p)
    F[0, 0] = 0.0
    assert majorana_qfi(p, "h") > 0
    G = majorana._gram(p, majorana.default_tol_gap(p.gamma))
    assert not G.flags.writeable


def test_exceptional_point_is_refused_on_every_call(monkeypatch):
    calls = _count_dgeev(monkeypatch)
    p = ChainParams(N=2, J=0.3, h=0.2)
    for _ in range(2):
        with pytest.raises(EPProximityError):
            majorana_qfi(p, "h")
    assert len(calls) == 2


def test_a_raised_gap_tolerance_is_a_new_key(monkeypatch):
    calls = _count_dgeev(monkeypatch)
    p = ChainParams(N=4, J=0.23, h=0.2, theta=0.4)
    majorana_qfi(p, "h")
    monkeypatch.setattr("nhchain.majorana.TOL_GAP_FACTOR", 1.0)
    with pytest.raises(EPProximityError):
        majorana_qfi(p, "theta")
    assert len(calls) == 2


def test_non_finite_matrix_is_refused():
    # h = 1e308 is finite, but R's edge entry 2h is not; _real_form
    # refuses it, naming h, before numpy overflows or LAPACK sees it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"infs or NaNs.*h = 1e\+308") as info:
            majorana_qfi(ChainParams(N=3, J=0.1, h=1e308), "h")
    assert not isinstance(info.value, LinAlgError)


@pytest.mark.parametrize("dJ, rel", [(1e-7, 1e-6), (1e-9, 1e-5)])
@pytest.mark.parametrize("h", [0.05, 0.2])
def test_two_site_closed_forms_just_below_the_exceptional_point(h, dJ, rel):
    # at J_c - J = dJ the slowest pair is about to merge with the structural
    # zero into a 3x3 Jordan block, so the eigenvectors there are ill
    # conditioned (the gap is 2-3e-4 at dJ = 1e-7 and 2-3e-5 at dJ = 1e-9)
    p = ChainParams(N=2, J=math.sqrt(1.0 - 16.0 * h * h) / 2.0 - dJ, h=h, theta=0.7)
    for target in ("h", "theta"):
        ref = qfi_two_site_analytic(p, target)
        assert majorana_qfi(p, target) == pytest.approx(ref, rel=rel), target


def _schur_gram(p: ChainParams, tol_gap: float) -> np.ndarray:
    """The Gram matrix of the two unit responses from a sorted complex Schur
    form of B: a Sylvester solve for the invariant subspace, a bordered
    solve for dz and one Gram-Schmidt step for the padded L = [Z1, e_0 + i z]
    with z^T z = 1.  An oracle for ``majorana._gram``, which takes
    [V_S, z] without the g_0 row from R's eigenvectors."""
    B = padded_majorana_matrix(p)
    n = B.shape[0]
    T, Z, k = la.schur(B, output="complex", sort=lambda x: x.imag > 0.5 * tol_gap)
    t = np.diag(T)
    gap = float(majorana._modes(t)[0].imag)
    if gap <= tol_gap or k != p.N:
        raise EPProximityError(gap, tol_gap)
    # the columns of D are the two directions: orthogonal, of equal length,
    # and the only entries above B's diagonal that move with h or theta
    c, s = np.cos(p.theta), np.sin(p.theta)
    D = 2j * np.array([[-c, s], [-s, -c]])
    Z1, Z2 = Z[:, :k], Z[:, k:]
    # dB = e_0 dv^T - dv e_0^T with dv = (0, d_0, d_1, 0, ...) has rank two;
    # both columns of D go through one Sylvester solve against diag(T11, T11)
    E21 = np.einsum("i,aj->iaj", Z2[0].conj(), D.T @ Z1[1:3])
    E21 -= np.einsum("ia,j->iaj", Z2[1:3].conj().T @ D, Z1[0])
    T11 = np.zeros((2 * k, 2 * k), dtype=complex)
    T11[:k, :k] = T11[k:, k:] = T[:k, :k]
    X, scale, _ = ztrsyl(T[k:, k:], T11, -E21.reshape(n - k, 2 * k), isgn=-1)
    # null vector: the eigenvector of T for its zero diagonal entry
    j = k + int(np.argmin(np.abs(t[k:])))
    y = np.zeros(n, dtype=complex)
    y[j] = 1.0
    y[:j], info = ztrtrs(T[:j, :j], -T[:j, j])
    if info != 0:
        raise la.LinAlgError("singular Schur factor")
    z = Z @ y
    z /= np.sqrt(z @ z)
    K = np.zeros((n + 1, n + 1), dtype=complex)
    K[:n, :n] = B
    K[:n, n] = K[n, :n] = z
    rhs = np.zeros((n + 1, 2), dtype=complex)
    rhs[0] = -z[1:3] @ D
    rhs[1:3] = D * z[0]
    *_, dz, info = zgesv(K, rhs, overwrite_a=True, overwrite_b=True)
    if info != 0:
        raise la.LinAlgError("singular bordered system")
    # L = [Z1, e_0 + i z] padded with the g_0 row.  Z1's columns are
    # orthonormal, so L = QR is one Gram-Schmidt step on the last column:
    # R = [[I, r], [0, rho]] and Q = [Z1, q].
    r = 1j * (Z1.conj().T @ z)
    q = np.empty(n + 1, dtype=complex)
    q[0] = 1.0
    q[1:] = 1j * z - Z1 @ r
    rho = np.sqrt(np.vdot(q, q).real)
    q /= rho
    Q = np.zeros((n + 1, k + 1), dtype=complex)
    Q[1:, :k] = Z1
    Q[:, k] = q
    # W = dL R^-1 for both columns, dL = [Z2 X, i dz] padded
    W = np.zeros((2, n + 1, k + 1), dtype=complex)
    W[:, 1:, :k] = (Z2 @ (X / scale)).reshape(n, 2, k).transpose(1, 0, 2)
    W[:, 1:, k] = (1j * dz[:n].T - W[:, 1:, :k] @ r) / rho
    W -= Q @ (Q.conj().T @ W)
    W = W.reshape(2, -1)
    G = W.conj() @ W.T
    G = (G + G.conj().T) / 2.0
    G.setflags(write=False)
    return G



def _assert_same_gram(p):
    tol_gap = default_tol_gap(p.gamma)
    G, ref = majorana._gram(p, tol_gap), _schur_gram(p, tol_gap)
    assert np.abs(G - ref).max() <= 1e-9 * np.abs(ref).max(), p


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 40),
    j=st.floats(0.0, 0.3),
    gamma=st.floats(0.05, 2.0),
    h=st.floats(0.0, 0.3),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_gram_matches_the_schur_formulation(n, j, gamma, h, theta):
    # J and h in units of gamma: the gap scales with gamma, and past
    # J = gamma / 4 most chains are gapless
    p = ChainParams(N=n, J=j * gamma, gamma=gamma, h=h * gamma, theta=theta)
    assume(majorana_gap(p) >= 1e-2 * gamma)
    _assert_same_gram(p)


@pytest.mark.parametrize("n", [2, 8, 40])
@pytest.mark.parametrize("J, h", [(0.0, 0.2), (0.23, 0.0), (0.0, 0.0)])
def test_decoupled_and_fieldless_chains_match_the_schur_formulation(n, J, h):
    # at J = 0 the sites decouple and the modes of sites 2..N coincide; at
    # h = 0 the ancilla decouples and z = e_0
    _assert_same_gram(ChainParams(N=n, J=J, h=h, theta=0.7))
