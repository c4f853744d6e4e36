"""Quantum Fisher information of steady states with respect to h and theta.

``qfi_fidelity(method="auto")`` returns the exact QFI of the Gaussian
(free-fermion) steady state, :func:`nhchain.majorana.majorana_qfi`, at any
N: no 2^N-dimensional state, no step size and no retry.

``method="dense"`` and ``"krylov"`` keep the numerical cross-check, which
converts the overlap drop between steady states at eta - delta and
eta + delta into the fidelity form of the QFI,

    I ~= 8 * (1 - |<psi(eta-delta)|psi(eta+delta)>|) / (2*delta)**2,

which is exact to O(delta^2) and invariant under any eta-dependent phase of
the vectors.  The two-site closed forms are the oracle of both paths.

An estimate solves its four shifted steady states in the order -delta,
-delta/2, +delta/2, +delta.  On the Krylov path only the first starts ARPACK
from the seeded random vector; each later one, and the delta/4 retry,
starts from the steady state before it, which lies within one step of its
answer.  One ``h`` estimate at J = 0.23, h = 0.2, delta = 2e-4 then makes
100, 144 and 180 matvecs at N = 6, 8 and 10 (184, 248 and 312 from four
seeded starts) in 6.3, 9.8 and 21 ms, and a ``theta`` estimate 128, 156
and 196 in 8.2, 10 and 20 ms (one BLAS thread, best of 15).  Against
scipy's 20-vector ARPACK subspace (``h``: 108, 118 and 168 matvecs in 9.7,
12 and 29 ms) the counts mostly rise and the times fall: the 8-vector
subspace restarts more often, and each restart costs less.

Every overlap-drop estimate is evaluated a second time at delta/2 and the
relative change is stored as ``richardson_diff``; values above 0.05 trigger
one retry at delta/4, after which the estimate is returned flagged
unreliable rather than masked.  The retry is logged at INFO and a still
unreliable estimate at WARNING on the ``nhchain`` logger.  Derivatives
diverge at exceptional points, so divergence is reported, not hidden.

The unit-normalized right eigenvector convention used here reproduces the
two-site closed forms; the closed-form I_theta is written with a gamma^2
denominator, which both estimators confirm (the forms coincide for the
default gamma = 1).
"""

import logging
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .hamiltonian import ChainParams
from .majorana import TARGETS, majorana_qfi
from .spectral import _gapped_two_site_roots, _warm_krylov_solver, solve_steady_state

RICHARDSON_LIMIT = 0.05
# how far below zero rounding may take the overlap drop 1 - |overlap|
NEGATIVE_TOL = 1e-10

log = logging.getLogger("nhchain")


@dataclass(frozen=True)
class QfiEstimate:
    """A QFI value with its method, step size and convergence diagnostic.

    ``method`` is ``"majorana"`` for the exact Gaussian QFI, whose ``step``
    and ``richardson_diff`` are ``nan`` and which is always ``reliable``,
    and ``"fidelity"`` for the overlap drop, whose ``step`` is the delta
    used (after any retry) and ``reliable`` means ``richardson_diff <=
    0.05``.
    """

    params: ChainParams
    target: str
    value: float
    method: str
    step: float
    richardson_diff: float
    reliable: bool = True


def cramer_rao(fisher: float, rounds: int) -> float:
    """Precision floor 1/sqrt(rounds * fisher) for unbiased estimation."""
    if not 0 < fisher < np.inf:
        raise ValueError(f"Fisher information must be finite and > 0, got {fisher}")
    # bool is an int subclass, but True is no count
    if (
        isinstance(rounds, bool)
        or not isinstance(rounds, (int, np.integer))
        or rounds < 1
    ):
        raise ValueError(f"measurement rounds must be an integer >= 1, got {rounds}")
    return 1.0 / np.sqrt(rounds * fisher)


def qfi_two_site_analytic(p: ChainParams, target: str) -> float:
    """Closed-form steady-state QFI of the two-site chain.

    I_h = 16 / (gamma^2 - 4J^2 - 16h^2) diverges at the exceptional point;
    I_theta = (a-b)(ab + gamma^2 + 4J^2) / (gamma^2 a) saturates there at
    1 + 4J^2/gamma^2.  a - b is evaluated as 16h^2 / (a + b), which does not
    cancel at small h.
    """
    _check_target(target)
    a, b = _gapped_two_site_roots(p, "QFI")
    g = p.gamma
    if target == "h":
        return 16.0 / (b * b)
    a_minus_b = 16.0 * p.h * p.h / (a + b)
    return a_minus_b * (a * b + g * g + 4.0 * p.J * p.J) / (g * g * a)


def fidelity_qfi_from_states(
    v_minus: np.ndarray, v_plus: np.ndarray, delta: float
) -> float:
    """Overlap-drop estimator from the two shifted unit vectors."""
    overlap = abs(np.vdot(v_minus, v_plus))
    return 8.0 * (1.0 - overlap) / (2.0 * delta) ** 2


def _check_target(target: str) -> None:
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")


def _shifted(p: ChainParams, target: str, d: float) -> ChainParams:
    if target == "h":
        if p.h + d < 0:
            raise ValueError(
                f"step {d} drives h = {p.h} negative; use a smaller delta"
            )
        return replace(p, h=p.h + d)
    return replace(p, theta=p.theta + d)


def _finalize(value: float, delta: float) -> float:
    # the overlap drop's rounding is divided by (2 delta)^2 / 8, and so is its floor
    floor = NEGATIVE_TOL * 8.0 / (2.0 * delta) ** 2
    if value < -floor:
        raise ArithmeticError(f"QFI estimate {value:.3e} is negative beyond tolerance")
    return max(value, 0.0)


def _two_step(p, target, delta, solve):
    """Estimate at ``delta`` and its relative change at ``delta / 2``.

    The four shifted states are solved in the order -delta, -delta/2,
    +delta/2, +delta, each a step from the last, so a warm-started solver
    starts every solve close to its answer.
    """
    half = delta / 2.0
    v_minus, v_half_minus, v_half_plus, v_plus = (
        solve(_shifted(p, target, d)).vector for d in (-delta, -half, half, delta)
    )
    value = fidelity_qfi_from_states(v_minus, v_plus, delta)
    value_half = fidelity_qfi_from_states(v_half_minus, v_half_plus, half)
    # below the half step's rounding floor both estimates are noise around 0
    scale = max(abs(value_half), NEGATIVE_TOL * 8.0 / delta**2)
    return value, abs(value - value_half) / scale


def qfi_fidelity(
    p: ChainParams,
    target: str,
    delta: float = 1e-3,
    method: str = "auto",
    **solver_kw,
) -> QfiEstimate:
    """Steady-state QFI about ``target`` ("h" or "theta").

    ``method="auto"`` returns the exact Gaussian QFI (``majorana_qfi``) at
    any N.  ``"dense"`` and ``"krylov"`` return the gauge-free overlap drop
    at ``delta``, with the Richardson test and retry; ``delta`` and the
    solver keyword arguments (tol, max_iters, seed), which mean what they
    mean to ``solve_steady_state``, reach only those two.  On the Krylov
    path ``seed`` draws the start vector of the first solve only; each
    later solve starts from the steady state before it.
    """
    _check_target(target)
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    if method == "auto":
        return QfiEstimate(
            params=p,
            target=target,
            value=majorana_qfi(p, target),
            method="majorana",
            step=np.nan,
            richardson_diff=np.nan,
        )
    if method == "krylov":
        solve = _warm_krylov_solver(**solver_kw)
    else:
        solve = partial(solve_steady_state, method=method, **solver_kw)
    value, rich = _two_step(p, target, delta, solve)
    step = delta
    if rich > RICHARDSON_LIMIT:
        log.info("QFI %s retry at delta/4: richardson_diff %.3g, %s", target, rich, p)
        step = delta / 4.0
        value, rich = _two_step(p, target, step, solve)
        if rich > RICHARDSON_LIMIT:
            log.warning("QFI %s unreliable: richardson_diff %.3g, %s", target, rich, p)
    return QfiEstimate(
        params=p,
        target=target,
        value=_finalize(value, step),
        method="fidelity",
        step=step,
        richardson_diff=rich,
        reliable=rich <= RICHARDSON_LIMIT,
    )
