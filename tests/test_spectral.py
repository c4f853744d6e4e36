"""Spectra, steady states and Krylov propagation against closed-form oracles."""

import numpy as np
import pytest
from scipy.sparse import csr_array

from nhchain import majorana, spectral
from nhchain.errors import ConvergenceError, DenseSizeError, EPProximityError
from nhchain.hamiltonian import ChainParams, build_total
from nhchain.majorana import majorana_gap
from nhchain.operators import SparseOperator, kron_chain, pauli
from nhchain.qfi import qfi_fidelity
from nhchain.spectral import (
    dense_eigenvalues,
    eigenvalues_two_site,
    evolve,
    phase_gauge,
    solve_steady_state,
    steady_state_dense,
    steady_state_krylov,
    steady_state_two_site,
)

# two-site reference at J=0.3, h=0.1, gamma=1: a=0.8, b=sqrt(0.48)
P_REF = ChainParams(N=2, J=0.3, h=0.1)
IMAG_REF = np.array(
    [
        -0.12679491924311226,
        -0.4732050807568877,
        -0.5267949192431123,
        -0.8732050807568877,
    ]
)
GAP_REF = 0.34641016151377546


def fidelity(u, v):
    return abs(np.vdot(u, v))


def test_two_site_eigenvalues_reference_point():
    w = eigenvalues_two_site(P_REF)
    assert np.allclose(w.real, 0.0, atol=1e-15)
    assert np.allclose(w.imag, IMAG_REF, atol=1e-15)


def test_two_site_eigenvalues_decoupled_chain():
    w = eigenvalues_two_site(ChainParams(N=2, J=0.0, h=0.0, gamma=1.0))
    assert np.allclose(w, [0.0, -0.5j, -0.5j, -1.0j], atol=1e-15)


def test_two_site_eigenvalues_coalescence():
    # b = 0 at J=0.3, h=0.2: the top pair merges at -0.3i
    w = eigenvalues_two_site(ChainParams(N=2, J=0.3, h=0.2))
    assert w[0] == pytest.approx(-0.3j, abs=1e-8)
    assert w[1] == pytest.approx(-0.3j, abs=1e-8)


def test_two_site_eigenvalues_require_two_sites():
    with pytest.raises(ValueError, match="N = 2"):
        eigenvalues_two_site(ChainParams(N=3, J=0.1))


@pytest.mark.parametrize(
    "J,h",
    [(0.3, 0.1), (0.0, 0.0), (0.45, 0.2), (0.4, 0.3), (0.6, 0.1)],
)
def test_dense_matches_two_site_closed_form(J, h, multiset_distance):
    # includes points beyond the coalescence, where the roots turn complex;
    # compared as multisets since degenerate imaginary parts make the
    # spectral sort order sensitive to eigensolver noise
    p = ChainParams(N=2, J=J, h=h, theta=0.6)
    w_dense = dense_eigenvalues(build_total(p))
    w_formula = eigenvalues_two_site(p)
    assert multiset_distance(w_dense, w_formula) < 1e-10


def test_dense_matches_closed_form_at_exact_coalescence(multiset_distance):
    # on the coalescence manifold the matrix is defective and the dense
    # eigenvalues carry the usual sqrt(machine-eps) splitting
    p = ChainParams(N=2, J=0.5, h=0.25)
    w_dense = dense_eigenvalues(build_total(p))
    w_formula = eigenvalues_two_site(p)
    assert multiset_distance(w_dense, w_formula) < 1e-6


def test_dense_eigenvalues_hermitian_limit_real():
    # gamma = 0 removes the loss term entirely
    p = ChainParams(N=2, J=1.0, h=0.2, gamma=0.0)
    w = dense_eigenvalues(build_total(p))
    assert np.abs(w.imag).max() < 1e-10


def test_dense_eigenvalues_diagonal_case():
    w = dense_eigenvalues(build_total(ChainParams(N=2, J=0.0, h=0.0)))
    assert np.allclose(w, [0.0, -0.5j, -0.5j, -1.0j], atol=1e-12)


def test_dense_size_guard():
    with pytest.raises(DenseSizeError):
        dense_eigenvalues(build_total(ChainParams(N=13, J=0.1)))


def test_dense_eigenvalues_sort_and_determinism():
    H = build_total(P_REF)
    w1 = dense_eigenvalues(H)
    w2 = dense_eigenvalues(H)
    assert np.array_equal(w1, w2)
    assert np.all(np.diff(w1.imag) <= 1e-15)
    s1, s2 = steady_state_dense(H, P_REF), steady_state_dense(H, P_REF)
    assert np.array_equal(s1.vector, s2.vector)


def test_steady_state_dense_matches_closed_form_vector():
    ss = steady_state_dense(build_total(P_REF), P_REF)
    assert 1.0 - fidelity(ss.vector, steady_state_two_site(P_REF)) < 1e-10
    assert ss.gap == pytest.approx(GAP_REF, abs=1e-12)
    assert ss.eigenvalue == pytest.approx(1j * IMAG_REF[0], abs=1e-12)
    assert np.linalg.norm(ss.vector) == pytest.approx(1.0, abs=1e-12)


def test_steady_state_dense_at_zero_field():
    # the pair coupling admixes the doubly-excited component: the steady
    # state is not the all-down product state once J > 0
    p = ChainParams(N=2, J=0.3, h=0.0)
    ss = steady_state_dense(build_total(p), p)
    expected = steady_state_two_site(p)
    assert 1.0 - fidelity(ss.vector, expected) < 1e-10
    down = np.zeros(4, dtype=complex)
    down[3] = 1.0
    assert fidelity(ss.vector, down) < 1.0 - 1e-3


def test_steady_state_dense_raises_at_coalescence():
    p = ChainParams(N=2, J=0.3, h=0.2)
    with pytest.raises(EPProximityError) as err:
        steady_state_dense(build_total(p), p)
    assert err.value.gap >= 0


def test_phase_gauge_convention():
    v = np.array([0.1j, -0.7 + 0.2j, 0.05], dtype=complex)
    g = phase_gauge(v)
    k = int(np.argmax(np.abs(g)))
    assert g[k].imag == pytest.approx(0.0, abs=1e-15)
    assert g[k].real > 0
    assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-14)


def test_evolve_zero_time_is_identity():
    H = build_total(P_REF)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.array_equal(evolve(H, v, 0.0), v)


def test_evolve_diagonal_decay():
    # J = h = 0: basis state (ud) decays as exp(-gamma t / 2)
    H = build_total(ChainParams(N=2, J=0.0, h=0.0))
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0
    got = evolve(H, v, 2.5, tol=1e-12)
    assert np.allclose(got, np.exp(-0.5 * 2.5) * v, atol=1e-10)


def test_evolve_eigenvector_invariance():
    p = ChainParams(N=4, J=0.2, h=0.15, theta=0.3)
    H = build_total(p)
    ss = steady_state_dense(H, p)
    got = evolve(H, ss.vector, 4.0, tol=1e-11)
    assert np.linalg.norm(got - np.exp(-1j * ss.eigenvalue * 4.0) * ss.vector) < 1e-8


def test_evolve_norm_monotone_decay():
    p = ChainParams(N=3, J=0.25, h=0.2, theta=1.1)
    H = build_total(p)
    rng = np.random.default_rng(42)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    norms = [np.linalg.norm(evolve(H, v, t, tol=1e-11)) for t in np.linspace(0, 12, 13)]
    assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))


def test_evolve_rejects_negative_time():
    with pytest.raises(ValueError, match=">= 0"):
        evolve(build_total(P_REF), np.ones(4, dtype=complex), -1.0)


@pytest.mark.parametrize(
    "N,J,h,theta,t",
    [(3, 0.2, 0.1, 0.5, 3.7), (5, 0.24, 0.18, 1.2, 8.0), (4, 0.4, 0.3, 2.0, 2.0)],
)
def test_evolve_matches_dense_matrix_exponential(N, J, h, theta, t):
    # independent route: LAPACK expm on the dense matrix
    import scipy.linalg as la

    p = ChainParams(N=N, J=J, h=h, theta=theta)
    H = build_total(p)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)
    v /= np.linalg.norm(v)
    got = evolve(H, v, t, tol=1e-11)
    ref = la.expm(-1j * t * H.dense()) @ v
    assert np.linalg.norm(got - ref) < 1e-10


def test_krylov_matches_dense_two_site():
    H = build_total(P_REF)
    dense = steady_state_dense(H, P_REF)
    kry = steady_state_krylov(H, P_REF, tol=1e-10)
    assert abs(dense.eigenvalue - kry.eigenvalue) < 1e-8
    assert 1.0 - fidelity(dense.vector, kry.vector) < 1e-8
    assert kry.gap == pytest.approx(dense.gap, abs=1e-7)


def test_krylov_matches_dense_six_sites():
    p = ChainParams(N=6, J=0.23, h=0.2, theta=0.0)
    H = build_total(p)
    dense = steady_state_dense(H, p)
    kry = steady_state_krylov(H, p, tol=1e-10)
    assert abs(dense.eigenvalue - kry.eigenvalue) < 1e-8
    assert 1.0 - fidelity(dense.vector, kry.vector) < 1e-8


def test_krylov_zero_field_four_sites():
    # the pair terms act on the all-down state, so the steady state keeps a
    # small doubly-excited admixture; check the residual instead
    p = ChainParams(N=4, J=0.2, h=0.0)
    H = build_total(p)
    kry = steady_state_krylov(H, p, tol=1e-10)
    dense = steady_state_dense(H, p)
    assert 1.0 - fidelity(dense.vector, kry.vector) < 1e-8
    resid = np.linalg.norm(H.matvec(kry.vector) - kry.eigenvalue * kry.vector)
    assert resid < 1e-8 * np.abs(H.dense()).sum(axis=1).max()
    down = np.zeros(16, dtype=complex)
    down[-1] = 1.0
    assert np.linalg.norm(H.matvec(down)) > 0.1  # all-down is not an eigenvector


@pytest.mark.parametrize(
    "p",
    [
        ChainParams(N=2, J=0.1, h=0.05, theta=0.2),
        ChainParams(N=3, J=0.2, h=0.1, theta=1.0),
        ChainParams(N=4, J=0.24, h=0.18, theta=0.5),
        ChainParams(N=6, J=0.2, h=0.12, theta=2.0),
        ChainParams(N=8, J=0.23, h=0.2, theta=0.0),
        ChainParams(N=10, J=0.23, h=0.2, theta=0.0),
    ],
)
def test_dense_krylov_agreement_grid(p):
    H = build_total(p)
    dense = steady_state_dense(H, p)
    kry = steady_state_krylov(H, p, tol=1e-9)
    assert abs(dense.eigenvalue - kry.eigenvalue) < 1e-7
    assert 1.0 - fidelity(dense.vector, kry.vector) < 1e-7


def test_steady_state_residual_bound():
    for p in [P_REF, ChainParams(N=5, J=0.2, h=0.15, theta=0.7)]:
        H = build_total(p)
        scale = np.abs(H.dense()).sum(axis=1).max()
        for ss in [steady_state_dense(H, p), steady_state_krylov(H, p, tol=1e-10)]:
            resid = np.linalg.norm(H.matvec(ss.vector) - ss.eigenvalue * ss.vector)
            assert resid <= 1e-8 * scale


def test_krylov_determinism():
    H = build_total(P_REF)
    a = steady_state_krylov(H, P_REF, tol=1e-10, seed=123)
    b = steady_state_krylov(H, P_REF, tol=1e-10, seed=123)
    assert np.array_equal(a.vector, b.vector)
    assert a.eigenvalue == b.eigenvalue and a.gap == b.gap


def test_krylov_max_iters_exceeded():
    # at N=2 the whole space fits in ARPACK's basis and one pass is exact, so
    # the budget is exercised at N=8, where one restart cannot converge
    p = ChainParams(N=8, J=0.23, h=0.2)
    with pytest.raises(ConvergenceError) as err:
        steady_state_krylov(build_total(p), p, max_iters=1)
    assert err.value.residual > 0


def test_krylov_quasi_degenerate_subdominant_pair():
    # at weak fields the two subdominant modes split only at O(h^2); the
    # steady state and the gap must still come out exact
    p = ChainParams(N=5, J=0.1134, h=0.0228, theta=0.71)
    H = build_total(p)
    dense = steady_state_dense(H, p)
    kry = steady_state_krylov(H, p, tol=1e-10, max_iters=1500)
    assert abs(dense.eigenvalue - kry.eigenvalue) < 1e-9
    assert 1.0 - fidelity(dense.vector, kry.vector) < 1e-9
    assert kry.gap == pytest.approx(dense.gap, abs=1e-9)


@pytest.mark.parametrize("max_iters", range(1, 12))
def test_krylov_budget_never_returns_an_unsettled_gap(max_iters):
    # every restart budget either returns the exact gap or raises; none may
    # return silently with a gap that has not settled
    p = ChainParams(N=3, J=0.1, h=0.0)
    H = build_total(p)
    dense_gap = steady_state_dense(H, p).gap
    try:
        kry = steady_state_krylov(H, p, max_iters=max_iters)
    except ConvergenceError:
        return
    assert kry.gap == pytest.approx(dense_gap, abs=1e-9)


def test_krylov_residual_gate_rejects_an_inaccurate_pair(monkeypatch):
    import scipy.sparse.linalg as sla

    exact_eigs = sla.eigs

    def perturbed_eigs(*args, **kwargs):
        w, v = exact_eigs(*args, **kwargs)
        return w, v + 1e-6 * np.random.default_rng(0).standard_normal(v.shape)

    monkeypatch.setattr(sla, "eigs", perturbed_eigs)
    p = ChainParams(N=6, J=0.23, h=0.2)
    with pytest.raises(ConvergenceError, match="residual gate") as err:
        steady_state_krylov(build_total(p), p, tol=1e-9)
    assert err.value.residual > 1e-9


def test_krylov_raises_at_an_inflated_gap_threshold(monkeypatch):
    # the Krylov solver applies the dense EP rule and reports the gap it found
    monkeypatch.setattr(majorana, "TOL_GAP_FACTOR", 1.0)
    with pytest.raises(EPProximityError) as err:
        steady_state_krylov(build_total(P_REF), P_REF, tol=1e-9)
    assert err.value.gap == pytest.approx(GAP_REF, abs=1e-7)
    assert err.value.tol_gap == 1.0


def test_no_steady_state_at_an_exact_exceptional_point():
    # b = 0 at J=0.3, h=0.2: every steady-state path refuses, and the
    # Krylov refusal carries the closed gap it measured
    p = ChainParams(N=2, J=0.3, h=0.2)
    H = build_total(p)
    with pytest.raises(EPProximityError):
        steady_state_dense(H, p)
    with pytest.raises(EPProximityError) as err:
        steady_state_krylov(H, p)
    assert 0.0 <= err.value.gap <= 1e-6
    with pytest.raises(EPProximityError):
        qfi_fidelity(p, "h", method="krylov")


@pytest.mark.parametrize("N", [2, 4])
def test_hermitian_limit_has_gaps_but_no_steady_state(N):
    # gamma = 0: the spectrum is real, so the gap is 0 on every path and no
    # steady state is isolated
    p = ChainParams(N=N, J=0.3, h=0.2, gamma=0.0)
    H = build_total(p)
    w = dense_eigenvalues(H)
    assert majorana_gap(p) == pytest.approx(0.0, abs=1e-12)
    assert w[0].imag - w[1].imag == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(EPProximityError):
        steady_state_dense(H, p)
    with pytest.raises(EPProximityError) as err:
        steady_state_krylov(H, p)
    assert err.value.gap == pytest.approx(0.0, abs=1e-12)


# gapless points where ARPACK, asked for the top pairs, spent its restart
# budget failing to pick among eigenvalues of one imaginary part
GAPLESS_ARPACK_FAILURES = [
    ChainParams(N=7, J=0.359, h=0.0587, theta=0.39),
    ChainParams(N=7, J=0.3869, h=0.2267, theta=1.8823),
    ChainParams(N=8, J=0.5, h=0.1887, theta=0.9547),
]


@pytest.mark.parametrize("p", GAPLESS_ARPACK_FAILURES)
def test_krylov_refuses_a_gapless_point_from_its_free_fermion_gap(p):
    with pytest.raises(EPProximityError) as err:
        steady_state_krylov(build_total(p), p)
    assert err.value.gap == majorana_gap(p)
    with pytest.raises(EPProximityError):
        solve_steady_state(p, method="krylov")


def test_krylov_refuses_a_gapless_point_before_arpack(monkeypatch):
    import scipy.sparse.linalg as sla

    def no_arpack(*args, **kwargs):
        raise AssertionError("ARPACK called at a gapless point")

    monkeypatch.setattr(sla, "eigs", no_arpack)
    p = GAPLESS_ARPACK_FAILURES[0]
    with pytest.raises(EPProximityError):
        steady_state_krylov(build_total(p), p)


def test_krylov_asks_arpack_for_two_pairs(monkeypatch):
    # the steady state and the gap read only the top two eigenvalues
    import scipy.sparse.linalg as sla

    exact_eigs, asked = sla.eigs, []

    def spy(*args, **kwargs):
        asked.append(kwargs["k"])
        return exact_eigs(*args, **kwargs)

    monkeypatch.setattr(sla, "eigs", spy)
    p = ChainParams(N=6, J=0.23, h=0.2)
    steady_state_krylov(build_total(p), p)
    assert asked == [2]


def test_krylov_and_dense_refuse_and_agree_on_random_points():
    # inside the gapless region many eigenvalues share the top imaginary
    # part; both solvers must refuse there, and agree everywhere else
    rng = np.random.default_rng(11)
    refused = 0
    for _ in range(100):
        N = int(rng.integers(3, 10))
        J = float(rng.uniform(0.0, 0.6))
        h = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.3))
        p = ChainParams(N=N, J=J, h=h, theta=float(rng.uniform(0.0, 2 * np.pi)))
        H = build_total(p)
        try:
            dense = steady_state_dense(H, p)
        except EPProximityError:
            refused += 1
            with pytest.raises(EPProximityError):
                steady_state_krylov(H, p)
            continue
        kry = steady_state_krylov(H, p)
        # below a gap of ~1e-4 the dense eigenvalues are themselves
        # ill-conditioned, so the tight bounds do not apply
        if dense.gap > 1e-4:
            assert abs(dense.eigenvalue - kry.eigenvalue) <= 1e-9, p
            assert abs(dense.gap - kry.gap) <= 1e-9, p
            assert 1.0 - fidelity(dense.vector, kry.vector) ** 2 <= 1e-9, p
    assert 0 < refused < 100


def test_krylov_gauge_convention():
    kry = steady_state_krylov(build_total(P_REF), P_REF, tol=1e-10)
    k = int(np.argmax(np.abs(kry.vector)))
    assert kry.vector[k].imag == pytest.approx(0.0, abs=1e-14)
    assert kry.vector[k].real > 0


def test_solve_steady_state_dispatch():
    ss = solve_steady_state(P_REF)
    assert ss.method == "dense"
    ss_k = solve_steady_state(P_REF, method="krylov", tol=1e-10)
    assert ss_k.method == "krylov"
    assert abs(ss.eigenvalue - ss_k.eigenvalue) < 1e-8
    with pytest.raises(ValueError, match="unknown method"):
        solve_steady_state(P_REF, method="exact")


@pytest.mark.parametrize("N,method", [(5, "dense"), (6, "krylov")])
def test_auto_switches_to_arpack_above_five_sites(N, method):
    assert solve_steady_state(ChainParams(N=N, J=0.23, h=0.2)).method == method


def test_two_site_steady_state_requires_gapped_region():
    with pytest.raises(ValueError, match="gapped"):
        steady_state_two_site(ChainParams(N=2, J=0.3, h=0.25))


def test_two_site_steady_state_decoupled_limit():
    # J = 0 is a removable singularity of the raw closed form; the dense
    # solver provides the independent check
    p = ChainParams(N=2, J=0.0, h=0.1)
    v = steady_state_two_site(p)
    assert np.all(np.isfinite(v))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    ss = steady_state_dense(build_total(p), p)
    assert 1.0 - fidelity(v, ss.vector) < 1e-10


def test_lossless_limit_via_operator_assembly():
    # gamma = 0 chain assembled term by term stays Hermitian and real-spectral
    N = 3
    pair = np.kron(pauli("plus"), pauli("plus")) + np.kron(pauli("minus"), pauli("minus"))
    eye = pauli("identity")
    bonds = sum(
        kron_chain([eye] * (n - 1) + [pair] + [eye] * (N - n - 1)) for n in range(1, N)
    )
    H = SparseOperator(csr_array(0.7 * bonds + 0.3 * kron_chain([pauli("x"), eye, eye])))
    w = dense_eigenvalues(H)
    assert np.abs(w.imag).max() < 1e-10


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this nhchain."""
    import os
    import subprocess
    import sys

    import nhchain

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nhchain.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout


def test_import_does_not_load_arpack():
    # the sparse eigensolver is imported on the first Krylov solve, scipy.sparse
    # on the first operator built and scipy.linalg on the first evolve, so the
    # free-fermion path (numpy.linalg only) loads no scipy module at all
    out = _fresh_python(
        "import sys, nhchain; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert out.split() == ["[]"]


def test_free_fermion_paths_run_without_scipy():
    # with scipy unimportable, every free-fermion function and CLI subcommand
    # still runs; a scipy import on any of these paths raises ImportError
    out = _fresh_python(
        """
import contextlib, io, sys
sys.modules["scipy"] = None
from nhchain import ChainParams, ep_curve, find_ep_J, gap_at, majorana_modes
from nhchain.cli import main
from nhchain.majorana import majorana_qfi_matrix

p = ChainParams(N=6, J=0.23, h=0.2, theta=0.7)
find_ep_J(6, 0.1, tol_J=1e-6)
ep_curve(2, [0.0, 0.1], tol_J=1e-6)
gap_at(p)
majorana_modes(p)
majorana_qfi_matrix(p)
runs = [
    ["spectrum", "--n", "4", "--j", "0.23", "--h", "0.2"],
    ["gap", "--n", "64", "--j", "0.2", "--h", "0.1"],
    ["qfi", "--n", "32", "--j", "0.23", "--h", "0.2"],
    ["ep", "--n", "8", "--h-range", "0:0.2:3"],
    ["scaling", "--n-range", "3:6:4", "--tol-j", "1e-6"],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
loaded = [m for m, mod in sys.modules.items() if mod and m.split(".")[0] == "scipy"]
print(codes, loaded)
"""
    )
    assert out.strip() == "[0, 0, 0, 0, 0] []"


def test_public_names_resolve():
    import inspect

    import nhchain

    for name in nhchain.__all__:
        assert hasattr(nhchain, name), name
    # removed names, spelled in pieces so that a search of the sources for
    # them finds none left behind: the biorthogonal layer, the operator
    # algebra, the H0/H1 split builders, the correlation records, the
    # second QFI estimator and the site-embedded operators of the observables
    removed = (
        ("dense_" "spectrum", "Spec" "trum", "Degeneracy" "Error")
        + ("op_" "add", "op_" "sum", "op_" "scale", "identity" "_op")
        + ("build_" "h0", "build_" "h1", "correlation" "_records")
        + ("qfi_vector" "_fd", "vector" "_fd_qfi_from_states")
        + ("em" "bed", "em" "bed_pair", "expect" "ation", "pair_correlation" "_op")
    )
    for gone in removed:
        assert gone not in nhchain.__all__
        assert not hasattr(nhchain, gone)
        for module in ("operators", "hamiltonian", "observables", "qfi"):
            assert not hasattr(getattr(nhchain, module), gone)
    for gone in ("_on" "_sites", "_check" "_site"):
        assert not hasattr(nhchain.operators, gone)
    methods = ("from_" "entries", "entries", "vals", "conj_" "transpose")
    for gone in methods + ("__" "add__", "__" "rmul__", "__" "matmul__"):
        assert not hasattr(nhchain.SparseOperator, gone)
    # and the solver knobs no caller set: every gap is free-fermion and every
    # EP threshold is default_tol_gap(gamma)
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert "m_max" not in params(nhchain.evolve)
    solvers = (nhchain.steady_state_dense, nhchain.steady_state_krylov)
    for fn in solvers + (nhchain.solve_steady_state,):
        assert "tol_gap" not in params(fn)
    for fn in (nhchain.find_ep_J, nhchain.ep_curve):
        assert "tol_gap" not in params(fn)
        assert "method" not in params(fn)
    assert params(nhchain.gap_at) == ["p"]


class _NoMatvec:
    """An operator that fails any matvec, so a refused call cannot run long."""

    dim = 64

    def matvec(self, v):
        raise AssertionError("matvec before the tol check")


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
def test_krylov_paths_refuse_a_tol_that_is_not_finite_and_positive(tol):
    # at tol = 0 Saad's test passes only where its error term underflows,
    # and at inf any ARPACK residual would pass the gate
    p = ChainParams(N=6, J=0.23, h=0.2)
    psi = np.ones(64, dtype=complex)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        evolve(_NoMatvec(), psi, 5.0, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        steady_state_krylov(_NoMatvec(), p, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        solve_steady_state(p, method="krylov", H=_NoMatvec(), tol=tol)
