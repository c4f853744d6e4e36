"""Exceptional-point location and finite-size scaling of the gap closure.

The imaginary-part gap is non-negative and identically zero beyond the
coalescence boundary (the merging pair separates in real part, not in
imaginary part), so the boundary is bisected on the indicator
``gap > tol_gap`` rather than on a sign change.  ``tol_gap = 1e-6 * gamma``
sits well above solver noise (~1e-14 away from the closure, up to ~2e-8 at an
exact exceptional point) and well below every physical gap of interest
(~1e-1).

Every gap comes from the (2N+1)-dimensional free-fermion matrix of
:mod:`nhchain.majorana`, so a bisection step costs one small real eigensolve,
numpy.linalg (LAPACK ``dgeev``), at any N (0.05-0.07 ms at N = 5); no
2^N-dimensional operator is built and scipy is not imported.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import ChainParams
from .majorana import default_tol_gap, majorana_gap


@dataclass(frozen=True)
class EpPoint:
    """One located boundary point with its final bisection bracket."""

    h: float
    j_c: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class EpCurve:
    """Gap-closure boundary J_c(h) for one chain size."""

    N: int
    gamma: float
    theta: float
    tol_gap: float
    tol_J: float
    points: list[EpPoint] = field(default_factory=list)
    failures: list[tuple[float, str]] = field(default_factory=list)


@dataclass(frozen=True)
class ScalingFit:
    """Ordinary least squares of J_c(N) on the basis {1/N^deg, ..., 1/N, 1}.

    ``coefficients`` are ordered from the highest inverse power down to the
    constant term, which is the extrapolated boundary at infinite size.
    """

    coefficients: tuple[float, ...]
    residual_norm: float
    degree: int
    points: tuple[tuple[int, float], ...]

    @property
    def extrapolated(self) -> float:
        return self.coefficients[-1]


def gap_at(p: ChainParams) -> float:
    """Difference of the top two imaginary parts of the spectrum, >= 0.

    Taken from the free-fermion modes (:func:`majorana_gap`) at any N,
    without building the 2^N-dimensional generator.
    """
    return majorana_gap(p)


def _check_bisection(bracket, tol_J) -> None:
    """Refuse a J bracket unless ``0 <= lo < hi`` with hi finite, and a
    ``tol_J`` unless it is finite and > 0, before any gap is evaluated."""
    lo, hi = bracket
    if not 0 <= lo < hi < np.inf:
        raise ValueError(f"invalid bracket {bracket}: need 0 <= lo < hi < inf")
    if not 0 < tol_J < np.inf:
        raise ValueError(f"tol_J must be finite and > 0, got {tol_J}")


def _bisect_ep(N, h, gamma, theta, bracket, tol_J, tol_gap, g_lo=None):
    """Bisect the gap closure; ``g_lo`` is the gap at ``bracket[0]`` if known."""

    def gap(J):
        return gap_at(ChainParams(N=N, J=J, gamma=gamma, h=h, theta=theta))

    lo, hi = bracket
    if g_lo is None:
        g_lo = gap(lo)
    g_hi = gap(hi)
    if g_lo <= tol_gap or g_hi > tol_gap:
        raise ValueError(
            f"bracket [{lo}, {hi}] does not enclose the gap closure: "
            f"gap({lo}) = {g_lo:.3e}, gap({hi}) = {g_hi:.3e}, tol_gap = {tol_gap:.3e}"
        )
    # stop too where no double lies strictly between lo and hi
    while hi - lo > tol_J and lo < (mid := 0.5 * (lo + hi)) < hi:
        if gap(mid) > tol_gap:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi)


def find_ep_J(
    N: int,
    h: float,
    gamma: float = 1.0,
    theta: float = 0.0,
    bracket: tuple[float, float] = (0.0, 0.6),
    tol_J: float = 1e-4,
) -> float:
    """Bisection for the coupling J_c where the imaginary-part gap closes.

    Requires ``0 <= bracket[0] < bracket[1]``, a finite ``tol_J > 0`` and
    ``gap(bracket[0]) > tol_gap >= gap(bracket[1])`` with the threshold
    ``tol_gap = 1e-6 * gamma`` (:func:`default_tol_gap`); returns the
    midpoint of the final bracket: of width <= tol_J, or of two adjacent
    doubles for a tol_J below their spacing.  Each step evaluates the
    free-fermion :func:`gap_at`, so any N is cheap (about 15
    (2N+1)-dimensional eigensolves at the default bracket and tol_J).
    """
    _check_bisection(bracket, tol_J)
    tol_gap = default_tol_gap(gamma)
    j_c, _ = _bisect_ep(N, h, gamma, theta, bracket, tol_J, tol_gap)
    return j_c


def ep_curve(
    N: int,
    h_grid,
    gamma: float = 1.0,
    theta: float = 0.0,
    tol_J: float = 1e-4,
    bracket: tuple[float, float] = (0.0, 0.6),
) -> EpCurve:
    """Locate J_c over a grid of field amplitudes.

    A grid point whose lower bracket edge is already gapless reports
    ``j_c = bracket[0]`` (the gapped region has closed entirely); other
    per-point failures are recorded and leave a hole in the curve.  J_c is
    expected to decrease with h; violations raise a warning, not an error.
    Gaps come from the free-fermion :func:`gap_at` and are compared with
    ``default_tol_gap(gamma)``, recorded as the result's ``tol_gap``.  An
    invalid bracket or ``tol_J`` raises ValueError before any gap is
    evaluated, as in :func:`find_ep_J`.
    """
    _check_bisection(bracket, tol_J)
    tol_gap = default_tol_gap(gamma)
    points: list[EpPoint] = []
    failures: list[tuple[float, str]] = []
    for h in np.atleast_1d(np.asarray(h_grid, dtype=float)):
        h = float(h)
        lo_gap = gap_at(ChainParams(N=N, J=bracket[0], gamma=gamma, h=h, theta=theta))
        if lo_gap <= tol_gap:
            points.append(EpPoint(h=h, j_c=bracket[0], bracket=(bracket[0], bracket[0])))
            continue
        try:
            j_c, final = _bisect_ep(
                N, h, gamma, theta, bracket, tol_J, tol_gap, g_lo=lo_gap
            )
        except ValueError as exc:
            failures.append((h, str(exc)))
            continue
        points.append(EpPoint(h=h, j_c=j_c, bracket=final))
    for prev, cur in zip(points, points[1:]):
        if cur.h > prev.h and cur.j_c > prev.j_c + tol_J:
            warnings.warn(
                f"J_c is not monotone decreasing in h: "
                f"J_c({prev.h}) = {prev.j_c:.6f} < J_c({cur.h}) = {cur.j_c:.6f}",
                stacklevel=2,
            )
    return EpCurve(
        N=N,
        gamma=gamma,
        theta=theta,
        tol_gap=tol_gap,
        tol_J=tol_J,
        points=points,
        failures=failures,
    )


def fit_inverse_poly(points, degree: int = 2) -> ScalingFit:
    """Least-squares fit of boundary points (N, J_c) to a polynomial in 1/N."""
    pts = [(int(n), float(j)) for n, j in points]
    sizes = np.array([n for n, _ in pts], dtype=float)
    values = np.array([j for _, j in pts])
    if not np.isfinite(values).all():
        raise ValueError(f"every J_c must be finite, got {values.tolist()}")
    if len(set(int(n) for n in sizes)) < 4:
        raise ValueError("fit requires at least 4 distinct chain sizes")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    design = np.column_stack(
        [sizes ** (-k) for k in range(degree, 0, -1)] + [np.ones_like(sizes)]
    )
    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < degree + 1:
        raise ValueError(f"rank-deficient design matrix (rank {rank})")
    residual = values - design @ coef
    return ScalingFit(
        coefficients=tuple(float(c) for c in coef),
        residual_norm=float(np.linalg.norm(residual)),
        degree=degree,
        points=tuple(pts),
    )
