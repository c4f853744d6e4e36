"""Command-line front end: sweeps over parameter grids persisted as CSV.

Subcommands: spectrum | gap | qfi | ep | scaling | correlations | evolve.
Each flag is declared once in ``FLAGS``; each subcommand accepts only the
flags its runner reads (``SUBCOMMAND_FLAGS``), and any other flag, or an
abbreviated one, is a usage error.  Each subcommand has one method:
spectra (N <= 16), gaps, exceptional points and the QFI come from the
free-fermion modes, and correlations and evolve solve for the steady state
dense up to N = 5 and by ARPACK above.  Only those two load scipy; the
free-fermion subcommands run on numpy alone.  Defaults live only in
``SweepSpec``; ``nhchain SUB --help`` shows them.

Output format: UTF-8, comma-separated, ``\\n`` line endings, ``#`` comment
lines carrying every ``SweepSpec`` field (a field the subcommand does not
read shows the default it ran with) and the package version, then a header
row and data rows.  Floats are rendered with 17 significant digits so
re-parsing reproduces them bit-exactly.  Identical invocations produce
byte-identical files; grid points failing near an exceptional point are
emitted as ``nan`` rows with an error tag instead of aborting the sweep.

A flag's value may start with ``-`` (``--theta-range -1:1:3``).

Exit codes: 0 success, 1 usage error (an invalid chain, a spectrum above
N = 16 and a chain too large for physical memory included),
2 numerical/solver failure.
"""

import argparse
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .critical import ep_curve, find_ep_J, fit_inverse_poly, gap_at
from .errors import ConvergenceError, EPProximityError
from .hamiltonian import ChainParams, build_total
from .majorana import majorana_modes, majorana_qfi
from .observables import correlation_profile
from .spectral import DEFAULT_SEED, evolve, solve_steady_state, spectral_order

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
        lowest = {"n": 2, "j": 0, "h": 0}.get(self.name)
        if lowest is not None and self.start < lowest:
            raise CliUsageError(f"axis {self.name} must start at >= {lowest}")

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
    tol: float = 1e-9
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


def fmt(x) -> str:
    """Render one CSV cell; floats at 17 significant digits, tuples as a:b."""
    if isinstance(x, tuple):
        return ":".join(fmt(v) for v in x)
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
        f"{f.name}={fmt(getattr(spec, f.name))}"
        for f in fields(SweepSpec)
        if f.name not in ("subcommand", "axes", "out")
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


def _check_spectrum_size(n: int) -> None:
    # 2^N rows: 65536 rows and 3.2 MB of CSV at N = 16
    if n > 16:
        raise CliUsageError(
            f"a spectrum has 2^N rows and is limited to N <= 16 (got N = {n}); "
            "use the gap subcommand (free-fermion gap, any N) instead"
        )


def run_spectrum(spec: SweepSpec) -> CsvTable:
    """Full sorted spectrum of one chain instance, from the free-fermion modes."""
    _check_spectrum_size(spec.n)
    p = _chain_params(spec)
    # -i gamma N / 4 + 1/2 sum_k s_k eps_k over the 2^N sign choices s_k
    w = np.array([-0.25j * p.gamma * p.N])
    for eps in majorana_modes(p):
        w = np.concatenate((w + 0.5 * eps, w - 0.5 * eps))
    w = w[spectral_order(w)]
    rows = [(i, lam.real, lam.imag) for i, lam in enumerate(w)]
    return CsvTable(_provenance(spec), ["index", "re_lambda", "im_lambda"], rows)


def run_gap_sweep(spec: SweepSpec) -> CsvTable:
    """Imaginary-part gap over a (J, h) grid, row-major J then h."""
    rows = []
    for j in spec.axis_for("j").values():
        for h in spec.axis_for("h").values():
            g = gap_at(_chain_params(spec, J=float(j), h=float(h)))
            rows.append((float(j), float(h), g))
    return CsvTable(_provenance(spec), ["J", "h", "gap"], rows)


def run_qfi_sweep(spec: SweepSpec) -> CsvTable:
    """QFI over any subset of the n/j/h/theta axes.

    The exact QFI of the Gaussian steady state at every point; failed grid
    points are emitted with qfi = nan and an error tag.
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
                        row_tail = (majorana_qfi(p, spec.target), "")
                    except EPProximityError:
                        row_tail = (np.nan, "ep_proximity")
                    except ValueError:  # a Majorana matrix that overflows
                        row_tail = (np.nan, "domain")
                    rows.append(
                        (n, float(j), float(h), float(theta), spec.target) + row_tail
                    )
    header = ["N", "J", "h", "theta", "target", "qfi", "error"]
    return CsvTable(_provenance(spec), header, rows)


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
    ss = solve_steady_state(p, tol=spec.tol)
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
    from scipy.linalg.blas import dznrm2, zdotc

    t0, t1, count = spec.t_range
    if count < 1:
        raise CliUsageError("t-range count must be >= 1")
    if not 0 <= t0 <= t1:
        raise CliUsageError("t-range needs 0 <= start <= stop")
    p = _chain_params(spec)
    H = build_total(p)
    ss = solve_steady_state(p, H=H, tol=spec.tol, seed=spec.seed)
    rng = np.random.default_rng(spec.seed)
    psi = rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)
    psi /= np.linalg.norm(psi)
    times = np.linspace(t0, t1, count)
    rows = []
    t_prev = 0.0
    for t in times:
        psi = evolve(H, psi, float(t) - t_prev, tol=spec.tol)
        t_prev = float(t)
        # scipy's BLAS, as in evolve: a numpy BLAS call between two evolve
        # calls would wake numpy's own OpenBLAS thread pool
        norm = dznrm2(psi)
        fid = abs(zdotc(ss.vector, psi)) / norm if norm > 0 else np.nan
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


def _positive(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _non_negative(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _int_at_least(lowest: int):
    """argparse type: an integer no smaller than ``lowest``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < lowest:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {lowest}, got {text!r}"
            )
        return value

    return parse


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


# One declaration per flag: its argparse type (or tuple of choices) and help.
FLAGS = {
    "n": (_int_at_least(2), "number of sites"),
    "j": (_non_negative, "pair coupling J"),
    "gamma": (_non_negative, "loss rate"),
    "h": (_non_negative, "field amplitude"),
    "theta": (_finite, "field angle (rad)"),
    "target": (("h", "theta"), "QFI target"),
    "axis": (("x", "y", "z"), "correlation axis"),
    "tol": (_positive, "solver tolerance"),
    "seed": (_int_at_least(0), "random seed"),
    "tol-j": (_positive, "bisection width"),
    "bracket": (_parse_pair, "J bracket lo:hi"),
    "t-range": (_parse_range, "time grid lo:hi:count"),
    "n-range": (_parse_range, "sweep n over lo:hi:count"),
    "j-range": (_parse_range, "sweep j over lo:hi:count"),
    "h-range": (_parse_range, "sweep h over lo:hi:count"),
    "theta-range": (_parse_range, "sweep theta over lo:hi:count"),
    "out": (str, "output CSV path (default stdout)"),
}

# The flags each runner reads; every subcommand also takes --out, and
# rejects any other flag.
_CHAIN = "n j gamma h theta"
SUBCOMMAND_FLAGS = {
    "spectrum": _CHAIN,
    "gap": f"{_CHAIN} j-range h-range",
    "qfi": f"{_CHAIN} target n-range j-range h-range theta-range",
    "ep": "n gamma h theta tol-j bracket n-range h-range",
    "scaling": "gamma h theta tol-j bracket n-range",
    "correlations": f"{_CHAIN} axis tol",
    "evolve": f"{_CHAIN} tol seed t-range",
}


def _with_default(name: str, text: str) -> str:
    defaults = {f.name: f.default for f in fields(SweepSpec)}
    default = defaults.get(name.replace("-", "_"))
    if default is None:
        return text
    shown = ":".join(map(str, default)) if isinstance(default, tuple) else default
    return f"{text} (default {shown})"


def _build_parser() -> _Parser:
    parser = _Parser(prog="nhchain", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, flags in SUBCOMMAND_FLAGS.items():
        sp = sub.add_parser(
            name,
            help=RUNNERS[name].__doc__.split("\n")[0],
            argument_default=argparse.SUPPRESS,
            allow_abbrev=False,
        )
        for flag in flags.split() + ["out"]:
            kind, text = FLAGS[flag]
            kw = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sp.add_argument(f"--{flag}", help=_with_default(flag, text), **kw)
    return parser


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    kw = dict(vars(args))
    axes = [
        SweepAxis(ax, *kw.pop(f"{ax}_range"))
        for ax in AXIS_NAMES
        if f"{ax}_range" in kw
    ]
    if kw["subcommand"] == "scaling" and not axes:
        axes.append(SweepAxis("n", 2, 10, 9))
    return SweepSpec(axes=tuple(axes), **kw)


def _glue_values(argv: list[str]) -> list[str]:
    """Join each ``--flag -value`` of ``FLAGS`` into ``--flag=-value``.

    argparse takes a separate value that starts with ``-`` for an option
    unless it is a plain negative number, so ``--theta-range -1:1:3`` would
    otherwise fail with "expected one argument".
    """
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and flag[2:] in FLAGS and re.match(r"-\.?\d", token):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = _spec_from_args(args)
        table = RUNNERS[spec.subcommand](spec)
    except (CliUsageError, MemoryError) as exc:
        print(f"nhchain: error: {exc}", file=sys.stderr)
        return 1
    except (
        EPProximityError,
        ConvergenceError,
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
