"""Acceptance battery: one check per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines
and timings.  Criterion 7 checks the N=10 and N=12 steady state, its
free-fermion gap and its correlation profile against an independent scipy
oracle and asserts the profile's short-range decay (zero at even
distance, a ratio below 1/2 per odd step); the profile and the ratios are
printed alongside the verdict.
"""

import time

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigs

from nhchain.cli import SweepSpec, main, run_evolve
from nhchain.critical import ep_curve, find_ep_J, fit_inverse_poly, gap_at
from nhchain.hamiltonian import ChainParams, build_total
from nhchain.majorana import majorana_gap
from nhchain.observables import (
    correlation_profile,
    correlations_two_site,
    magnetizations_two_site,
    site_magnetizations,
)
from nhchain.qfi import qfi_fidelity, qfi_two_site_analytic
from nhchain.spectral import (
    dense_eigenvalues,
    eigenvalues_two_site,
    solve_steady_state,
    steady_state_dense,
    steady_state_two_site,
)


def _run(num: int, desc: str, fn) -> None:
    t0 = time.time()
    try:
        fn()
    except AssertionError as exc:
        print(f"ACCEPTANCE {num} [{desc}]: FAIL ({time.time() - t0:.1f}s) - {exc}")
        raise
    print(f"ACCEPTANCE {num} [{desc}]: PASS ({time.time() - t0:.1f}s)")


def _multiset_distance(a, b) -> float:
    b = np.asarray(b, dtype=complex).copy()
    worst = 0.0
    used = np.zeros(b.size, dtype=bool)
    for x in np.asarray(a, dtype=complex):
        d = np.abs(b - x)
        d[used] = np.inf
        k = int(np.argmin(d))
        used[k] = True
        worst = max(worst, float(d[k]))
    return worst


def test_criterion_1_two_site_spectrum_oracle():
    def check():
        rng = np.random.default_rng(20240601)
        t0 = time.time()
        for _ in range(1000):
            J, h = rng.uniform(0.0, 0.5, size=2)
            p = ChainParams(N=2, J=float(J), h=float(h))
            d = _multiset_distance(
                dense_eigenvalues(build_total(p)), eigenvalues_two_site(p)
            )
            assert d < 1e-10, f"multiset distance {d:.3e} at J={J}, h={h}"
        assert time.time() - t0 < 1.0, "runtime budget exceeded"

    _run(1, "two-site spectrum oracle, 1000 random points", check)


def test_criterion_2_steady_state_closed_forms():
    def check():
        js = np.linspace(0.0, 0.45, 10)
        fracs = np.linspace(0.05, 0.9, 10)
        thetas = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        worst_fid, worst_obs = 0.0, 0.0
        for J in js:
            h_max = np.sqrt(1 - 4 * J**2) / 4.0
            for f in fracs:
                for theta in thetas:
                    p = ChainParams(
                        N=2, J=float(J), h=float(f * h_max), theta=float(theta)
                    )
                    ss = steady_state_dense(build_total(p), p)
                    fid = abs(np.vdot(steady_state_two_site(p), ss.vector))
                    worst_fid = max(worst_fid, 1.0 - fid)
                    mags = np.array([r.value for r in site_magnetizations(ss)])
                    dev = np.abs(mags - np.array(magnetizations_two_site(p))).max()
                    corr = np.concatenate(
                        [correlation_profile(ss, ax) for ax in ("x", "y", "z")]
                    )
                    dev = max(
                        dev,
                        np.abs(corr - np.array(correlations_two_site(p))).max(),
                    )
                    worst_obs = max(worst_obs, dev)
        assert worst_fid < 1e-10, f"worst 1-fidelity {worst_fid:.3e}"
        assert worst_obs < 1e-8, f"worst observable deviation {worst_obs:.3e}"

    _run(2, "steady-state vector/magnetization/correlation closed forms", check)


def test_criterion_3_qfi_oracle():
    def check():
        worst = {"h": 0.0, "theta": 0.0}
        for J in np.linspace(0.05, 0.45, 10):
            a2 = 1 - 4 * J**2
            h_at_b01 = np.sqrt(a2 - 0.01) / 4.0  # b = 0.1 at fraction 1
            for f in np.linspace(0.15, 1.0, 10):
                p = ChainParams(N=2, J=float(J), h=float(f * h_at_b01), theta=0.4)
                b2 = a2 - 16 * p.h**2
                delta_h = min(1e-3, max(1e-6, 1e-3 * b2))
                for target, delta in (("h", delta_h), ("theta", 1e-2)):
                    ref = qfi_two_site_analytic(p, target)
                    est = qfi_fidelity(p, target, delta=delta)
                    rel = abs(est.value - ref) / max(abs(ref), 1e-12)
                    worst[target] = max(worst[target], rel)
                    assert rel < 1e-3, (
                        f"{est.method} target={target} rel err {rel:.2e} at "
                        f"J={p.J:.3f} h={p.h:.4f} (b^2={b2:.4f})"
                    )
        # angle information saturates at 1 + 4 J^2 on the closure
        J = 0.3
        h = np.sqrt((1 - 4 * J**2) - 0.01**2) / 4.0  # b = 0.01
        p = ChainParams(N=2, J=J, h=float(h))
        est = qfi_fidelity(p, "theta", delta=1e-2)
        assert est.value == pytest.approx(1.0 + 4 * J**2, rel=0.02), (
            f"angle QFI {est.value:.4f} vs saturation {1 + 4 * J**2:.4f}"
        )

    _run(3, "numerical QFI reproduces the closed forms", check)


def test_criterion_4_two_site_boundary_points():
    def check():
        j_c = find_ep_J(N=2, h=0.2, tol_J=2e-5)
        assert abs(j_c - 0.3) < 1e-4, f"J_c(h=0.2) = {j_c}"
        j_c0 = find_ep_J(N=2, h=0.0, tol_J=2e-5)
        assert abs(j_c0 - 0.5) < 1e-4, f"J_c(h=0) = {j_c0}"

    _run(4, "two-site gap-closure points", check)


def test_criterion_5_finite_size_extrapolation():
    def check():
        sizes = range(2, 11)
        points = []
        for n in sizes:
            curve = ep_curve(N=n, h_grid=[0.0], tol_J=1e-4)
            assert curve.points and not curve.failures, f"no boundary at N={n}"
            points.append((n, curve.points[0].j_c))
        fit_all = fit_inverse_poly(points, degree=2)
        # N = 2 sits at exactly half the loss rate, far off the asymptotic
        # 1/N branch; the extrapolation uses the N >= 3 points and the full
        # fit is reported alongside for comparison
        fit_asym = fit_inverse_poly(points[1:], degree=2)
        print(
            "    boundary points: "
            + " ".join(f"N={n}:{j:.5f}" for n, j in points)
        )
        print(
            f"    fit(all N) c = {fit_all.extrapolated:.4f}; "
            f"fit(N>=3) a,b,c = "
            + ", ".join(f"{c:.4f}" for c in fit_asym.coefficients)
        )
        c = fit_asym.extrapolated
        assert 0.244 <= c <= 0.254, f"extrapolated boundary {c:.4f}"

    _run(5, "finite-size extrapolation of the h=0 boundary", check)


def test_criterion_6_qfi_growth_and_saturation():
    def check():
        values = {}
        for n in (2, 4, 6, 8):
            p = ChainParams(N=n, J=0.23, h=0.2, theta=0.0)
            values[n] = qfi_fidelity(p, "h", delta=2e-4, method="dense").value
        for n in (10, 12):
            p = ChainParams(N=n, J=0.23, h=0.2, theta=0.0)
            values[n] = qfi_fidelity(
                p, "h", delta=2e-4, method="krylov", tol=1e-9
            ).value
        print(
            "    field QFI: "
            + " ".join(f"N={n}:{values[n]:.2f}" for n in sorted(values))
        )
        seq = [values[n] for n in (2, 4, 6, 8, 10)]
        assert all(b > a for a, b in zip(seq, seq[1:])), f"not increasing: {seq}"
        inc = (values[12] - values[10]) / values[10]
        assert inc < 0.05, f"relative increment N=10->12 is {inc:.3f}"
        # the exact Gaussian QFI (method auto) is flat from N = 32 on
        for target in ("h", "theta"):
            big = [
                qfi_fidelity(ChainParams(N=n, J=0.23, h=0.2), target).value
                for n in (32, 64, 128)
            ]
            shown = " ".join(f"{v:.10g}" for v in big)
            print(f"    exact {target} QFI at N=32,64,128: {shown}")
            spread = (max(big) - min(big)) / big[-1]
            assert spread <= 1e-8, f"{target} QFI moves by {spread:.1e} from N=32 to 128"

    _run(6, "field QFI grows with size and saturates", check)


def test_ep_claims_at_fifty_sites():
    # approaching the N = 50 boundary from below, I_h grows as 1 / Delta J
    # without bound, while I_theta rises to a finite maximum
    j_c = find_ep_J(50, 0.2, tol_J=1e-10)
    dj = (1e-3, 1e-4, 1e-5)
    ps = [ChainParams(N=50, J=j_c - d, h=0.2) for d in dj]
    i_h = [qfi_fidelity(p, "h").value * d for p, d in zip(ps, dj)]
    i_theta = [qfi_fidelity(p, "theta").value for p in ps]
    print(
        f"EP CLAIMS [N=50, J_c={j_c:.10f}]: "
        f"I_h*dJ {' '.join(f'{v:.3f}' for v in i_h)}; "
        f"I_theta {' '.join(f'{v:.4f}' for v in i_theta)}"
    )
    assert max(i_h) <= 1.5 * min(i_h)
    assert i_theta[0] < i_theta[1] < i_theta[2] < 2.0


def test_stretch_saturation_to_fourteen_sites():
    # optional stretch beyond criterion 6: the Krylov path handles the
    # 2^14-dimensional chain and the field QFI stays saturated
    p12 = ChainParams(N=12, J=0.23, h=0.2, theta=0.0)
    p14 = ChainParams(N=14, J=0.23, h=0.2, theta=0.0)
    v12 = qfi_fidelity(p12, "h", delta=2e-4, method="krylov", tol=1e-9).value
    v14 = qfi_fidelity(p14, "h", delta=2e-4, method="krylov", tol=1e-9).value
    inc = (v14 - v12) / v12
    print(f"STRETCH [N=14 saturation]: I_h(12)={v12:.2f} I_h(14)={v14:.2f} "
          f"increment {inc:+.4f}")
    assert abs(inc) < 0.05


def _oracle_steady_state(p: ChainParams) -> tuple[complex, float, np.ndarray]:
    """Steady-state eigenvalue, gap and <sy1 syn> profile, n = 2..N, from scipy alone.

    The generator is assembled from literal Pauli matrices with Kronecker
    products (site 1 is the leftmost factor) and its four largest-Im
    eigenvalues come from ARPACK, so nothing here shares code with nhchain's
    operators, kernels or solvers.  The gap is the difference of the top two
    imaginary parts.
    """
    sx = sparse.csr_matrix([[0, 1], [1, 0]], dtype=complex)
    sy = sparse.csr_matrix([[0, -1j], [1j, 0]], dtype=complex)
    sz = sparse.csr_matrix([[1, 0], [0, -1]], dtype=complex)
    sp = sparse.csr_matrix([[0, 1], [0, 0]], dtype=complex)
    sm = sparse.csr_matrix([[0, 0], [1, 0]], dtype=complex)
    eye = sparse.identity(2, dtype=complex, format="csr")

    def site_op(factors):
        out = sparse.identity(1, dtype=complex, format="csr")
        for n in range(1, p.N + 1):
            out = sparse.kron(out, factors.get(n, eye), format="csr")
        return out

    one = sparse.identity(p.dim, dtype=complex, format="csr")
    H = p.h * (np.cos(p.theta) * site_op({1: sx}) + np.sin(p.theta) * site_op({1: sy}))
    for n in range(1, p.N):
        H = H + p.J * (site_op({n: sp, n + 1: sp}) + site_op({n: sm, n + 1: sm}))
    for n in range(1, p.N + 1):
        H = H - 0.25j * p.gamma * (site_op({n: sz}) + one)
    rng = np.random.default_rng(7)
    v0 = rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)
    w, V = eigs(H, k=4, which="LI", v0=v0, tol=1e-12)
    k = int(np.argmax(w.imag))
    lam, v = complex(w[k]), V[:, k] / np.linalg.norm(V[:, k])
    residual = float(np.linalg.norm(H @ v - lam * v))
    assert residual < 1e-10, f"oracle eigen-residual {residual:.2e} at N={p.N}"
    profile = np.array(
        [np.vdot(v, site_op({1: sy, n: sy}) @ v).real for n in range(2, p.N + 1)]
    )
    im = np.sort(w.imag)
    return lam, float(im[-1] - im[-2]), profile


def test_criterion_7_correlation_decay():
    def check():
        profiles = {}
        for n in (10, 12):
            p = ChainParams(N=n, J=0.23, h=0.2, theta=0.0)
            ss = solve_steady_state(p, method="krylov", tol=1e-10)
            profiles[n] = correlation_profile(ss, "y")
            # the Krylov path agrees with an independent scipy oracle
            lam_ref, gap_ref, prof_ref = _oracle_steady_state(p)
            d_lam = abs(ss.eigenvalue - lam_ref)
            d_prof = float(np.abs(profiles[n] - prof_ref).max())
            assert d_lam < 1e-8, (
                f"eigenvalue differs from the oracle by {d_lam:.2e} at N={n}"
            )
            # the Krylov steady state's gap is the free-fermion gap; this
            # oracle's top-two difference is independent of it (2.7e-15 at
            # N=10 and 2.3e-14 at N=12 measured)
            d_gap = abs(majorana_gap(p) - gap_ref)
            assert d_gap < 1e-12, (
                f"free-fermion gap differs from the oracle by {d_gap:.2e} at N={n}"
            )
            assert d_prof < 1e-8, (
                f"profile differs from the oracle by {d_prof:.2e} at N={n}"
            )
        prof12 = profiles[12]
        report = " ".join(
            f"n={n}:{v:+.2e}" for n, v in zip(range(2, 14), prof12)
        )
        print(f"    N=12 y-correlation profile: {report}")
        # short-range structure is size-independent: N=10 and N=12 agree
        # pointwise up to n = 8
        for idx, n in enumerate(range(2, 9)):
            d = abs(profiles[10][idx] - prof12[idx])
            assert d < 1e-3, f"profiles differ by {d:.2e} at n={n}"
        # exact zeros at even distance, geometric decay at odd distance:
        # |C(n+2)/C(n)| < 1/2 means a correlation length below 2/ln 2 sites
        for n in range(2, 13, 2):
            c = abs(prof12[n - 2])
            assert c < 1e-10, f"|<sy1 sy{n}>| = {c:.2e} at even distance"
        ratios = {n: abs(prof12[n] / prof12[n - 2]) for n in (3, 5, 7, 9)}
        print(
            "    odd-step ratios |C(n+2)/C(n)|: "
            + " ".join(f"n={n}:{r:.3f}" for n, r in ratios.items())
        )
        for n, r in ratios.items():
            assert r < 0.5, (
                f"|<sy1 sy{n + 2}>/<sy1 sy{n}>| = {r:.3f} is not below 1/2"
            )

    _run(
        7,
        "Krylov profile matches the oracle; N=12 tail decays by <1/2 per odd step",
        check,
    )


def test_criterion_8_dynamical_convergence():
    def check():
        p = ChainParams(N=6, J=0.23, h=0.2, theta=0.0)
        gap = gap_at(p)
        t_end = 20.0 / gap
        spec = SweepSpec(
            subcommand="evolve",
            n=6,
            j=0.23,
            h=0.2,
            t_range=(0.0, float(t_end), 41),
        )
        table = run_evolve(spec)
        fids = [row[2] for row in table.rows]
        assert table.rows[0][1] == pytest.approx(1.0, abs=1e-12)
        assert fids[-1] > 1 - 1e-6, f"fidelity {fids[-1]} at t = 20/gap = {t_end:.1f}"
        tail = fids[len(fids) // 3:]
        assert all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))

    _run(8, "random state relaxes onto the steady state by t=20/gap", check)


def test_criterion_9_byte_identical_reruns(tmp_path):
    def check():
        cases = [
            ["spectrum", "--n", "2", "--j", "0.3", "--h", "0.1"],
            ["gap", "--n", "2", "--j-range", "0:0.4:5", "--h-range", "0:0.2:3"],
            ["qfi", "--n", "4", "--j", "0.2", "--h", "0.15"],
            ["correlations", "--n", "5", "--j", "0.2", "--h", "0.1", "--axis", "y"],
            ["evolve", "--n", "3", "--j", "0.2", "--h", "0.1", "--t-range", "0:20:11"],
            ["ep", "--n", "2", "--h-range", "0:0.2:3", "--tol-j", "1e-3"],
        ]
        for i, args in enumerate(cases):
            a = tmp_path / f"a{i}.csv"
            b = tmp_path / f"b{i}.csv"
            assert main(args + ["--out", str(a)]) == 0
            assert main(args + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), f"case {args} not deterministic"

    _run(9, "identical flags produce byte-identical CSV", check)
