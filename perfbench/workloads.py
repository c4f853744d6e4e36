"""The four sweep workloads and their correctness gates.

Each workload is a closed loop: one client in one process issues the points
of a fixed sweep one after another, each after the previous one returned.
Points call nhchain through attribute lookups on the package at call time,
so the tracer's wrappers see them.  The workload seed generates the random
parameter points and initial states; nhchain's own solver seeds stay at
their defaults.

A point is a callable taking the outputs of the earlier points of the same
sweep.  ``check`` runs after each timed sweep, outside every metric, and
returns the failed point indices with a reason.  ``setup_point`` is the
first call a fresh process makes when ``setup_s`` is measured.
"""

import math

import numpy as np

# acceptance-suite tolerances (tests/test_acceptance.py, criteria 1-3)
EIG_TOL = 1e-10
FIDELITY_TOL = 1e-10
OBSERVABLE_TOL = 1e-8
QFI_REL_TOL = 1e-3


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=complex))))


class Workload:
    name = ""
    why = ""
    min_sweeps = 1

    def __init__(self, nc, seed: int):
        self.nc = nc
        self.seed = seed
        self.points: list = []

    def check(self, outputs: list) -> dict[int, str]:
        raise NotImplementedError

    def setup_point(self) -> None:
        raise NotImplementedError


class TwoSiteGrid(Workload):
    """N=2 only: a (J, h) gap map plus seeded random gapped points.

    Each random point solves the steady state, its magnetizations and x/y/z
    correlations, and the field and angle QFI; everything is checked against
    the two-site closed forms.  The time is per-call overhead (operator build
    and canonicalisation, dispatch, 4x4 LAPACK), so set-up cost added to
    every call shows here and large-N arithmetic does not.
    """

    name = "two-site-grid"
    why = "thousands of tiny N=2 calls checked against closed forms, so per-call set-up and dispatch cost dominates"
    min_sweeps = 3
    # the grid is offset so no point sits exactly on an exceptional point,
    # where dense eigenvalues lose half their digits
    GRID_J = 0.01 + 0.02 * np.arange(25)
    GRID_H = 0.005 + 0.02 * np.arange(13)
    RANDOM_POINTS = 300

    def __init__(self, nc, seed):
        super().__init__(nc, seed)
        self.grid = [
            nc.ChainParams(N=2, J=float(j), h=float(h))
            for j in self.GRID_J
            for h in self.GRID_H
        ]
        rng = np.random.default_rng(seed)
        self.random = []
        for _ in range(self.RANDOM_POINTS):
            J = rng.uniform(0.0, 0.45)
            h_max = math.sqrt(1.0 - 4.0 * J * J) / 4.0
            self.random.append(
                nc.ChainParams(
                    N=2,
                    J=float(J),
                    h=float(rng.uniform(0.05, 0.9) * h_max),
                    theta=float(rng.uniform(0.0, 2.0 * math.pi)),
                )
            )
        self.points = [self._gap_point(p) for p in self.grid]
        self.points += [self._full_point(p) for p in self.random]

    def _gap_point(self, p):
        return lambda outputs: self.nc.gap_at(p)

    @staticmethod
    def delta_h(p) -> float:
        # criterion 3's step rule: the step shrinks with b^2 near the closure
        b2 = p.gamma**2 - 4.0 * p.J**2 - 16.0 * p.h**2
        return min(1e-3, max(1e-6, 1e-3 * b2))

    def _full_point(self, p):
        def point(outputs):
            nc = self.nc
            ss = nc.solve_steady_state(p)
            mags = nc.site_magnetizations(ss)
            corr = [nc.correlation_profile(ss, axis)[0] for axis in "xyz"]
            q_h = nc.qfi_fidelity(p, "h", delta=self.delta_h(p))
            q_theta = nc.qfi_fidelity(p, "theta", delta=1e-2)
            return ss, [r.value for r in mags], corr, q_h.value, q_theta.value

        return point

    def check(self, outputs):
        nc = self.nc
        bad = {}
        for i, (p, gap) in enumerate(zip(self.grid, outputs)):
            w = nc.eigenvalues_two_site(p)
            if gap is None or abs(gap - (w[0].imag - w[1].imag)) > EIG_TOL:
                bad[i] = f"gap {gap} at J={p.J}, h={p.h}"
        for k, p in enumerate(self.random):
            i = len(self.grid) + k
            if outputs[i] is None:
                continue
            ss, mags, corr, q_h, q_theta = outputs[i]
            w = nc.eigenvalues_two_site(p)
            errors = {
                "eigenvalue": abs(ss.eigenvalue - w[0]) / EIG_TOL,
                "gap": abs(ss.gap - (w[0].imag - w[1].imag)) / EIG_TOL,
                "vector": (1.0 - abs(np.vdot(nc.steady_state_two_site(p), ss.vector)))
                / FIDELITY_TOL,
                "magnetizations": np.abs(
                    np.array(mags) - np.array(nc.magnetizations_two_site(p))
                ).max()
                / OBSERVABLE_TOL,
                "correlations": np.abs(
                    np.array(corr) - np.array(nc.correlations_two_site(p))
                ).max()
                / OBSERVABLE_TOL,
                "qfi_h": abs(q_h / nc.qfi_two_site_analytic(p, "h") - 1.0) / QFI_REL_TOL,
                "qfi_theta": abs(q_theta / nc.qfi_two_site_analytic(p, "theta") - 1.0)
                / QFI_REL_TOL,
            }
            failed = [name for name, e in errors.items() if not e <= 1.0]
            if failed:
                bad[i] = f"{failed} off the closed form at {p}"
        return bad

    def setup_point(self):
        self.points[0]([])
        self.points[len(self.grid)]([])


class EpScaling(Workload):
    """The finite-size boundary J_c(N, h=0), its 1/N fit, and the N=2 curve.

    All gap evaluations take the dense path (method auto), so the time is in
    ``dense_eigenvalues``; the Krylov path is not used.
    """

    name = "ep-scaling"
    why = "EP bisection over N=2..9 plus the 1/N fit and the N=2 curve: dense eigenvalues up to dim 512, no Krylov"
    min_sweeps = 2
    SIZES = range(2, 10)
    TOL_J = 1e-4
    CURVE_POINTS = 6
    H_MAX = 0.24
    FIT_RANGE = (0.244, 0.254)

    def __init__(self, nc, seed):
        super().__init__(nc, seed)
        rng = np.random.default_rng(seed)
        inner = np.sort(rng.uniform(0.0, self.H_MAX, self.CURVE_POINTS))
        self.h_grid = [0.0, *map(float, inner), self.H_MAX]
        self.points = [self._ep_point(n) for n in self.SIZES]
        self.points.append(self._fit_point)
        self.points += [self._curve_point(h) for h in self.h_grid]

    def _ep_point(self, n):
        return lambda outputs: self.nc.find_ep_J(n, 0.0, tol_J=self.TOL_J)

    def _fit_point(self, outputs):
        points = [(n, j) for n, j in zip(self.SIZES, outputs) if n >= 3]
        return self.nc.fit_inverse_poly(points, degree=2).extrapolated

    def _curve_point(self, h):
        return lambda outputs: self.nc.ep_curve(2, [h], tol_J=self.TOL_J)

    @staticmethod
    def size_boundary(n: int, gamma: float = 1.0) -> float:
        """J_c(N, h=0) = gamma / (4 cos(pi / (N + 1)))."""
        return gamma / (4.0 * math.cos(math.pi / (n + 1)))

    @staticmethod
    def two_site_boundary(h: float, gamma: float = 1.0) -> float:
        """J_c(2, h) = sqrt(gamma^2 - 16 h^2) / 2."""
        return math.sqrt(gamma * gamma - 16.0 * h * h) / 2.0

    def check(self, outputs):
        bad = {}
        sizes = list(self.SIZES)
        for i, n in enumerate(sizes):
            j = outputs[i]
            if j is None or not abs(j - self.size_boundary(n)) <= self.TOL_J:
                bad[i] = f"J_c(N={n}) = {j}, expected {self.size_boundary(n):.6f}"
        fit_index = len(sizes)
        lo, hi = self.FIT_RANGE
        c = outputs[fit_index]
        if c is None or not lo <= c <= hi:
            bad[fit_index] = f"extrapolated boundary {c} outside [{lo}, {hi}]"
        for k, h in enumerate(self.h_grid):
            i = fit_index + 1 + k
            curve = outputs[i]
            if curve is None:
                continue
            expected = self.two_site_boundary(h)
            if curve.failures or len(curve.points) != 1 or not (
                abs(curve.points[0].j_c - expected) <= self.TOL_J
            ):
                bad[i] = f"J_c(2, h={h}) = {curve.points}, expected {expected:.6f}"
        return bad

    def setup_point(self):
        self.points[0]([])


class QfiKrylov(Workload):
    """Field QFI growth and saturation on the Krylov path, then one steady
    state with its correlation profiles and magnetizations.

    Almost all the time is in ``steady_state_krylov`` -> ``evolve`` -> small
    dense calls; dense LAPACK on the full matrix is not used.  The
    parameters are fixed, so the seed does not change this workload.
    """

    name = "qfi-krylov"
    why = "Krylov QFI at N=2..8 and one N=8 steady state with profiles: power iteration, propagator and small dense calls"
    min_sweeps = 4
    SIZES = range(2, 9)
    J, H = 0.23, 0.2
    DELTA = 2e-4
    SATURATION = 0.05
    RESIDUAL_TOL = 1e-8

    def __init__(self, nc, seed):
        super().__init__(nc, seed)
        self._state = len(self.SIZES)
        self.points = [self._qfi_point(n) for n in self.SIZES]
        self.points += [self._state_point, self._observables_point]
        self._dense_reference = None

    def params(self, n):
        return self.nc.ChainParams(N=n, J=self.J, h=self.H)

    def _qfi_point(self, n):
        def point(outputs):
            return self.nc.qfi_fidelity(
                self.params(n), "h", delta=self.DELTA, method="krylov", tol=1e-9
            ).value

        return point

    def _state_point(self, outputs):
        n = self.SIZES[-1]
        return self.nc.solve_steady_state(self.params(n), method="krylov", tol=1e-10)

    def _observables_point(self, outputs):
        ss = outputs[self._state]
        profiles = [self.nc.correlation_profile(ss, axis) for axis in "xyz"]
        return np.concatenate(profiles + [[r.value for r in self.nc.site_magnetizations(ss)]])

    def check(self, outputs):
        nc = self.nc
        bad = {}
        sizes = list(self.SIZES)
        values = outputs[: len(sizes)]
        for i, v in enumerate(values):
            if v is None or not _finite(v):
                bad[i] = f"QFI {v} at N={sizes[i]}"
        if bad:
            return bad
        p2 = self.params(2)
        b2 = p2.gamma**2 - 4.0 * p2.J**2 - 16.0 * p2.h**2
        if not abs(values[0] * b2 / 16.0 - 1.0) <= QFI_REL_TOL:
            bad[0] = f"N=2 Krylov QFI {values[0]} vs 16/b^2 = {16.0 / b2}"
        for i in range(1, len(values)):
            if not values[i] > values[i - 1]:
                bad[i] = f"QFI not increasing: {values[i - 1]} -> {values[i]}"
        last = len(values) - 1
        increment = (values[last] - values[last - 1]) / values[last - 1]
        if not increment < self.SATURATION:
            bad[last] = f"N={sizes[-2]}->{sizes[-1]} increment {increment:.3f}"
        if self._dense_reference is None:
            self._dense_reference = nc.qfi_fidelity(
                self.params(sizes[-1]), "h", delta=self.DELTA, method="dense"
            ).value
        if not abs(values[last] / self._dense_reference - 1.0) <= QFI_REL_TOL:
            bad[last] = f"Krylov QFI {values[last]} vs dense {self._dense_reference}"
        ss = outputs[self._state]
        if ss is not None:
            H = nc.build_total(ss.params)
            residual = np.linalg.norm(H.matvec(ss.vector) - ss.eigenvalue * ss.vector)
            if not residual <= self.RESIDUAL_TOL:
                bad[self._state] = f"eigen-residual {residual:.3e}"
        observables = outputs[self._state + 1]
        if observables is None or not _finite(observables) or np.abs(observables).max() > 1 + 1e-9:
            bad[self._state + 1] = f"observable out of range: {observables}"
        return bad

    def setup_point(self):
        self.points[2]([])


class RelaxN14(Workload):
    """Relaxation of a seeded random state at N=14 over t in [0, 200].

    The propagator works as a plain time-stepper at the largest supported
    size (dimension 16384, ~139k nonzeros), with no power iteration, so the
    matvec carries its largest share here.
    """

    name = "relax-n14"
    why = "Krylov time-stepping at N=14 (dim 16384) with no power iteration: the largest matvec share and working set"
    min_sweeps = 3
    N, J, H = 14, 0.23, 0.2
    TIMES = np.linspace(0.0, 200.0, 21)
    SLOPE_FROM = 100.0
    SLOPE_TOL = 1e-4

    def __init__(self, nc, seed):
        super().__init__(nc, seed)
        self.p = nc.ChainParams(N=self.N, J=self.J, h=self.H)
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(self.p.dim) + 1j * rng.standard_normal(self.p.dim)
        self.psi0 = psi / np.linalg.norm(psi)
        self.points = [lambda outputs: self.nc.build_total(self.p)]
        self.points += [
            self._step_point(float(t0), float(t1))
            for t0, t1 in zip(self.TIMES[:-1], self.TIMES[1:])
        ]
        self._decay_rate = None

    def _step_point(self, t0, t1):
        def point(outputs):
            psi = outputs[-1] if len(outputs) > 1 else self.psi0
            return self.nc.evolve(outputs[0], psi, t1 - t0)

        return point

    def decay_rate(self) -> float:
        """Im lambda_0 from a Krylov steady state, solved once per run."""
        if self._decay_rate is None:
            ss = self.nc.solve_steady_state(self.p, method="krylov", tol=1e-6)
            self._decay_rate = ss.eigenvalue.imag
        return self._decay_rate

    def check(self, outputs):
        bad = {}
        norms = [1.0]
        for i, psi in enumerate(outputs[1:], start=1):
            norm = np.linalg.norm(psi) if psi is not None else math.nan
            if not 0.0 < norm < norms[-1]:
                bad[i] = f"norm {norm} does not decrease from {norms[-1]}"
            norms.append(norm)
        if bad:
            return bad
        late = self.TIMES >= self.SLOPE_FROM
        slope = np.polyfit(self.TIMES[late], np.log(np.array(norms)[late]), 1)[0]
        rate = self.decay_rate()
        if not abs(slope - rate) <= self.SLOPE_TOL * abs(rate):
            bad[len(outputs) - 1] = f"late log-norm slope {slope} vs Im lambda_0 {rate}"
        return bad

    def setup_point(self):
        self.points[0]([])


WORKLOADS = {w.name: w for w in (TwoSiteGrid, EpScaling, QfiKrylov, RelaxN14)}
