"""Command-line front end: sweeps over parameter grids persisted as CSV.

Subcommands: spectrum | gap | qfi | ep | scaling | correlations | evolve.

Output format: UTF-8, comma-separated, ``\\n`` line endings, ``#`` comment
lines carrying the full sweep specification and package version, then a
header row and data rows.  Floats are rendered with 17 significant digits so
re-parsing reproduces them bit-exactly.  Identical invocations produce
byte-identical files; grid points failing near an exceptional point are
emitted as ``nan`` rows with an error tag instead of aborting the sweep.

Exit codes: 0 success, 1 usage error (a chain too large for physical memory
included), 2 numerical/solver failure.
"""

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .critical import ep_curve, find_ep_J, fit_inverse_poly, gap_at
from .errors import (
    ConvergenceError,
    DenseSizeError,
    EPProximityError,
    MemoryLimitError,
)
from .hamiltonian import ChainParams, build_total
from .observables import correlation_profile
from .qfi import qfi_fidelity, qfi_two_site_analytic
from .spectral import (
    DEFAULT_SEED,
    DENSE_MAX_DIM,
    dense_eigenvalues,
    evolve,
    solve_steady_state,
)

REFERENCE_FIT = (0.842, 0.031, 0.249)
AXIS_NAMES = ("n", "j", "h", "theta")


class CliUsageError(ValueError):
    """Bad flag combination or unsupported request; maps to exit code 1."""


@dataclass(frozen=True)
class SweepAxis:
    """One linearly spaced sweep axis."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise CliUsageError(f"unknown sweep axis {self.name!r}")
        if self.count < 1:
            raise CliUsageError("axis count must be >= 1")
        if self.start > self.stop:
            raise CliUsageError("axis start must be <= stop")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    def int_values(self) -> list[int]:
        vals = self.values()
        rounded = np.rint(vals)
        if np.any(np.abs(vals - rounded) > 1e-9):
            raise CliUsageError(f"axis {self.name} must hit integer values")
        return [int(v) for v in rounded]

    def spec_string(self) -> str:
        return f"{self.name}={fmt(self.start)}:{fmt(self.stop)}:{self.count}"


@dataclass(frozen=True)
class SweepSpec:
    """Everything one subcommand run depends on, echoed into the CSV."""

    subcommand: str
    n: int = 2
    j: float = 0.0
    gamma: float = 1.0
    h: float = 0.0
    theta: float = 0.0
    target: str = "h"
    axis: str = "y"
    method: str = "auto"
    delta: float = 1e-3
    tol: float = 1e-9
    max_iters: int = 500
    seed: int = DEFAULT_SEED
    tol_j: float = 1e-4
    bracket: tuple[float, float] = (0.0, 0.6)
    t_range: tuple[float, float, int] = (0.0, 50.0, 101)
    axes: tuple[SweepAxis, ...] = field(default_factory=tuple)
    out: str | None = None

    def axis_for(self, name: str) -> SweepAxis:
        """The axis swept under ``name``, or a single fixed point."""
        for ax in self.axes:
            if ax.name == name:
                return ax
        fixed = {"n": self.n, "j": self.j, "h": self.h, "theta": self.theta}[name]
        return SweepAxis(name=name, start=fixed, stop=fixed, count=1)

    def solver_kw(self) -> dict:
        return {
            "tol": self.tol,
            "max_iters": self.max_iters,
            "seed": self.seed,
        }


def fmt(x) -> str:
    """Render one CSV cell; floats at 17 significant digits."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


@dataclass
class CsvTable:
    """Comment block, header and rows of one sweep output."""

    comments: list[str]
    header: list[str]
    rows: list[tuple]

    def to_string(self) -> str:
        lines = [f"# {c}" for c in self.comments]
        lines.append(",".join(self.header))
        for row in self.rows:
            if len(row) != len(self.header):
                raise ValueError("row length does not match header")
            lines.append(",".join(fmt(x) for x in row))
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_string())


def _provenance(spec: SweepSpec) -> list[str]:
    parts = [
        f"n={spec.n}",
        f"j={fmt(spec.j)}",
        f"gamma={fmt(spec.gamma)}",
        f"h={fmt(spec.h)}",
        f"theta={fmt(spec.theta)}",
        f"target={spec.target}",
        f"axis={spec.axis}",
        f"method={spec.method}",
        f"delta={fmt(spec.delta)}",
        f"tol={fmt(spec.tol)}",
        f"max_iters={spec.max_iters}",
        f"seed={spec.seed}",
        f"tol_j={fmt(spec.tol_j)}",
        f"bracket={fmt(spec.bracket[0])}:{fmt(spec.bracket[1])}",
        f"t_range={fmt(spec.t_range[0])}:{fmt(spec.t_range[1])}:{spec.t_range[2]}",
    ]
    lines = [
        f"nhchain {__version__}",
        f"subcommand={spec.subcommand}",
        " ".join(parts),
    ]
    if spec.axes:
        lines.append("sweep " + " ".join(ax.spec_string() for ax in spec.axes))
    return lines


def _chain_params(spec: SweepSpec, **overrides) -> ChainParams:
    kw = {
        "N": spec.n,
        "J": spec.j,
        "gamma": spec.gamma,
        "h": spec.h,
        "theta": spec.theta,
    }
    kw.update(overrides)
    return ChainParams(**kw)


def _check_dense_size(n: int) -> None:
    if (1 << n) > DENSE_MAX_DIM:
        raise CliUsageError(
            f"full spectra are dense-only and limited to N <= 12 (got N = {n}); "
            "use the gap or correlations subcommands with --method krylov instead"
        )


def run_spectrum(spec: SweepSpec) -> CsvTable:
    """Full sorted spectrum of one chain instance."""
    if spec.method not in ("auto", "dense"):
        raise CliUsageError(
            f"full spectra are always dense; --method {spec.method} is not "
            "supported by the spectrum subcommand (use auto or dense)"
        )
    _check_dense_size(spec.n)
    w = dense_eigenvalues(build_total(_chain_params(spec)))
    rows = [(i, lam.real, lam.imag) for i, lam in enumerate(w)]
    return CsvTable(_provenance(spec), ["index", "re_lambda", "im_lambda"], rows)


def run_gap_sweep(spec: SweepSpec) -> CsvTable:
    """Imaginary-part gap over a (J, h) grid, row-major J then h."""
    rows = []
    for j in spec.axis_for("j").values():
        for h in spec.axis_for("h").values():
            g = gap_at(_chain_params(spec, J=float(j), h=float(h)), spec.method)
            rows.append((float(j), float(h), g))
    return CsvTable(_provenance(spec), ["J", "h", "gap"], rows)


def run_qfi_sweep(spec: SweepSpec) -> CsvTable:
    """QFI over any subset of the n/j/h/theta axes.

    The analytic2 method is the two-site closed form and rejects N != 2;
    failed grid points are emitted with qfi = nan and an error tag.
    """
    rows = []
    for n in spec.axis_for("n").int_values():
        for j in spec.axis_for("j").values():
            for h in spec.axis_for("h").values():
                for theta in spec.axis_for("theta").values():
                    p = _chain_params(
                        spec, N=n, J=float(j), h=float(h), theta=float(theta)
                    )
                    try:
                        if spec.method == "analytic2":
                            value = qfi_two_site_analytic(p, spec.target)
                            row_tail = ("analytic2", np.nan, value, np.nan, "")
                        else:
                            est = qfi_fidelity(
                                p,
                                spec.target,
                                delta=spec.delta,
                                method=spec.method,
                                **spec.solver_kw(),
                            )
                            tag = "" if est.reliable else "unreliable"
                            row_tail = (
                                est.method,
                                est.step,
                                est.value,
                                est.richardson_diff,
                                tag,
                            )
                    except (
                        EPProximityError,
                        ConvergenceError,
                        ValueError,
                        ArithmeticError,
                    ) as exc:
                        row_tail = (spec.method, np.nan, np.nan, np.nan, _tag(exc))
                    rows.append(
                        (n, float(j), float(h), float(theta), spec.target) + row_tail
                    )
    header = [
        "N",
        "J",
        "h",
        "theta",
        "target",
        "method",
        "delta",
        "qfi",
        "richardson_diff",
        "error",
    ]
    return CsvTable(_provenance(spec), header, rows)


def _tag(exc: Exception) -> str:
    names = {
        EPProximityError: "ep_proximity",
        ConvergenceError: "no_convergence",
        DenseSizeError: "dense_size",
        ValueError: "domain",
        ArithmeticError: "arithmetic",
    }
    for cls, tag in names.items():
        if isinstance(exc, cls):
            return tag
    return "error"


def run_ep(spec: SweepSpec) -> CsvTable:
    """Gap-closure boundary J_c(h) for each requested chain size."""
    rows = []
    for n in spec.axis_for("n").int_values():
        curve = ep_curve(
            N=n,
            h_grid=spec.axis_for("h").values(),
            gamma=spec.gamma,
            theta=spec.theta,
            tol_J=spec.tol_j,
            bracket=spec.bracket,
            method=spec.method,
        )
        merged = [(pt.h, pt.j_c) for pt in curve.points]
        merged += [(h, np.nan) for h, _ in curve.failures]
        for h, j_c in sorted(merged):
            rows.append((n, h, j_c))
    return CsvTable(_provenance(spec), ["N", "h", "J_c"], rows)


def run_scaling(spec: SweepSpec) -> CsvTable:
    """Inverse-size polynomial fit of the boundary at fixed h."""
    sizes = spec.axis_for("n").int_values()
    points = []
    for n in sizes:
        j_c = find_ep_J(
            N=n,
            h=spec.h,
            gamma=spec.gamma,
            theta=spec.theta,
            bracket=spec.bracket,
            tol_J=spec.tol_j,
            method=spec.method,
        )
        points.append((n, j_c))
    fit = fit_inverse_poly(points, degree=2)
    comments = _provenance(spec)
    comments.append(
        "points " + " ".join(f"N={n}:{fmt(j)}" for n, j in points)
    )
    a, b, c = REFERENCE_FIT
    comments.append(f"paper_fit a={a} b={b} c={c}")
    rows = [
        (name, coef, fit.residual_norm)
        for name, coef in zip("abc", fit.coefficients)
    ]
    return CsvTable(comments, ["coeff_name", "value", "residual"], rows)


def run_correlations(spec: SweepSpec) -> CsvTable:
    """Steady-state correlation profile <s^a_1 s^a_n> for n = 2..N."""
    p = _chain_params(spec)
    ss = solve_steady_state(p, method=spec.method, **spec.solver_kw())
    profile = correlation_profile(ss, spec.axis)
    rows = [
        (p.N, p.J, p.h, p.theta, spec.axis, n, float(val))
        for n, val in zip(range(2, p.N + 1), profile)
    ]
    header = ["N", "J", "h", "theta", "axis", "n", "value"]
    return CsvTable(_provenance(spec), header, rows)


def run_evolve(spec: SweepSpec) -> CsvTable:
    """Relaxation of a seeded random state onto the steady state.

    Reports the decaying norm of the evolved (never renormalized) state and
    its overlap with the steady state on the requested time grid.
    """
    p = _chain_params(spec)
    H = build_total(p)
    ss = solve_steady_state(p, method=spec.method, H=H, **spec.solver_kw())
    rng = np.random.default_rng(spec.seed)
    psi = rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)
    psi /= np.linalg.norm(psi)
    t0, t1, count = spec.t_range
    times = np.linspace(t0, t1, count)
    rows = []
    t_prev = 0.0
    for t in times:
        psi = evolve(H, psi, float(t) - t_prev, tol=spec.tol)
        t_prev = float(t)
        norm = float(np.linalg.norm(psi))
        fid = float(abs(np.vdot(ss.vector, psi / norm))) if norm > 0 else np.nan
        rows.append((float(t), norm, fid))
    return CsvTable(_provenance(spec), ["t", "norm", "fidelity_to_ss"], rows)


RUNNERS = {
    "spectrum": run_spectrum,
    "gap": run_gap_sweep,
    "qfi": run_qfi_sweep,
    "ep": run_ep,
    "scaling": run_scaling,
    "correlations": run_correlations,
    "evolve": run_evolve,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:count, got {text!r}")
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return _finite(parts[0]), _finite(parts[1]), count


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    return _finite(parts[0]), _finite(parts[1])


_GAP_METHOD_HELP = (
    "gap solver (auto: free-fermion, any N; dense and krylov build the 2^N "
    "generator as cross-checks)"
)
_METHOD_HELP = {
    "spectrum": "full spectra are always dense (N <= 12): auto or dense only",
    "gap": _GAP_METHOD_HELP,
    "ep": _GAP_METHOD_HELP,
    "scaling": _GAP_METHOD_HELP,
}
_STEADY_STATE_METHOD_HELP = "steady-state solver (auto: dense up to N=5, Krylov above)"


def _build_parser() -> _Parser:
    parser = _Parser(prog="nhchain", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, runner in RUNNERS.items():
        sp = sub.add_parser(name, help=runner.__doc__.split("\n")[0])
        sp.add_argument("--n", type=int, default=2, help="number of sites")
        sp.add_argument("--j", type=_finite, default=0.0, help="pair coupling J")
        sp.add_argument("--gamma", type=_finite, default=1.0, help="loss rate")
        sp.add_argument("--h", type=_finite, default=0.0, help="field amplitude")
        sp.add_argument("--theta", type=_finite, default=0.0, help="field angle (rad)")
        sp.add_argument(
            "--target", choices=("h", "theta"), default="h", help="QFI target"
        )
        sp.add_argument(
            "--axis", choices=("x", "y", "z"), default="y", help="correlation axis"
        )
        sp.add_argument(
            "--method",
            choices=("auto", "dense", "krylov", "analytic2"),
            default="auto",
            help=_METHOD_HELP.get(name, _STEADY_STATE_METHOD_HELP),
        )
        sp.add_argument("--delta", type=_finite, default=1e-3, help="QFI step size")
        sp.add_argument("--tol", type=_finite, default=1e-9, help="solver tolerance")
        sp.add_argument(
            "--max-iters", type=int, default=500, help="ARPACK restart budget"
        )
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--tol-j", type=_finite, default=1e-4, help="bisection width")
        sp.add_argument(
            "--bracket", type=_parse_pair, default=(0.0, 0.6), help="J bracket lo:hi"
        )
        sp.add_argument(
            "--t-range",
            type=_parse_range,
            default=(0.0, 50.0, 101),
            help="time grid lo:hi:count",
        )
        for ax in AXIS_NAMES:
            sp.add_argument(
                f"--{ax}-range",
                type=_parse_range,
                default=None,
                help=f"sweep {ax} over lo:hi:count",
            )
        sp.add_argument("--out", default=None, help="output CSV path (default stdout)")
    return parser


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    axes = []
    for ax in AXIS_NAMES:
        rng = getattr(args, f"{ax}_range")
        if rng is not None:
            axes.append(SweepAxis(ax, rng[0], rng[1], rng[2]))
    defaults = {"scaling": SweepAxis("n", 2, 10, 9)}
    if args.subcommand in defaults and not any(ax.name == "n" for ax in axes):
        axes.append(defaults[args.subcommand])
    return SweepSpec(
        subcommand=args.subcommand,
        n=args.n,
        j=args.j,
        gamma=args.gamma,
        h=args.h,
        theta=args.theta,
        target=args.target,
        axis=args.axis,
        method=args.method,
        delta=args.delta,
        tol=args.tol,
        max_iters=args.max_iters,
        seed=args.seed,
        tol_j=args.tol_j,
        bracket=tuple(args.bracket),
        t_range=tuple(args.t_range),
        axes=tuple(axes),
        out=args.out,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = _spec_from_args(args)
        table = RUNNERS[spec.subcommand](spec)
    except (CliUsageError, MemoryLimitError) as exc:
        print(f"nhchain: error: {exc}", file=sys.stderr)
        return 1
    except (
        EPProximityError,
        ConvergenceError,
        DenseSizeError,
        ValueError,
        ArithmeticError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"nhchain: numerical failure: {exc}", file=sys.stderr)
        return 2
    if spec.out:
        table.write(spec.out)
    else:
        sys.stdout.write(table.to_string())
    return 0


if __name__ == "__main__":
    sys.exit(main())
