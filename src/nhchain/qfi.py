"""Quantum Fisher information of steady states with respect to h and theta.

Two numerical estimators are provided.  The primary one converts the overlap
drop between steady states at eta - delta and eta + delta into

    I ~= 8 * (1 - |<psi(eta-delta)|psi(eta+delta)>|) / (2*delta)**2,

which is exact to O(delta^2) and invariant under any eta-dependent phase of
the vectors.  The second estimator phase-aligns the shifted vectors to the
central one, forms the central difference d_psi, and evaluates

    I = 4 * (<d_psi|d_psi> - |<psi|d_psi>|^2)

verbatim; it exists as an independent cross-check of the first.

Every numerical estimate is evaluated a second time at delta/2 and the
relative change is stored as ``richardson_diff``; values above 0.05 trigger
one retry at delta/4, after which the estimate is returned flagged
unreliable rather than masked.  Derivatives diverge at exceptional points,
so divergence is reported, not hidden.

The unit-normalized right eigenvector convention used here reproduces the
two-site closed forms; the closed-form I_theta is written with a gamma^2
denominator, which the estimators confirm (the forms coincide for the
default gamma = 1).
"""

from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import ChainParams
from .spectral import _gapped_two_site_roots, solve_steady_state

RICHARDSON_LIMIT = 0.05
NEGATIVE_TOL = 1e-10
TARGETS = ("h", "theta")


@dataclass(frozen=True)
class QfiEstimate:
    """A QFI value with its method, step size and convergence diagnostic."""

    params: ChainParams
    target: str
    value: float
    method: str
    step: float
    richardson_diff: float
    reliable: bool = True


def cramer_rao(fisher: float, rounds: int) -> float:
    """Precision floor 1/sqrt(rounds * fisher) for unbiased estimation."""
    if fisher <= 0:
        raise ValueError("Fisher information must be > 0")
    if rounds < 1:
        raise ValueError("number of measurement rounds must be >= 1")
    return 1.0 / np.sqrt(rounds * fisher)


def qfi_two_site_analytic(p: ChainParams, target: str) -> float:
    """Closed-form steady-state QFI of the two-site chain.

    I_h = 16 / (gamma^2 - 4J^2 - 16h^2) diverges at the exceptional point;
    I_theta = (a-b)(ab + gamma^2 + 4J^2) / (gamma^2 a) saturates there at
    1 + 4J^2/gamma^2.
    """
    _check_target(target)
    a, b = _gapped_two_site_roots(p, "QFI")
    g = p.gamma
    if target == "h":
        return 16.0 / (b * b)
    return (a - b) * (a * b + g * g + 4.0 * p.J * p.J) / (g * g * a)


def fidelity_qfi_from_states(
    v_minus: np.ndarray, v_plus: np.ndarray, delta: float
) -> float:
    """Overlap-drop estimator from the two shifted unit vectors."""
    overlap = abs(np.vdot(v_minus, v_plus))
    return 8.0 * (1.0 - overlap) / (2.0 * delta) ** 2


def vector_fd_qfi_from_states(
    v_minus: np.ndarray, v_center: np.ndarray, v_plus: np.ndarray, delta: float
) -> float:
    """Central-difference estimator with phase alignment to the center."""

    def aligned(v):
        s = np.vdot(v, v_center)
        return v if s == 0 else v * (s / abs(s))

    dpsi = (aligned(v_plus) - aligned(v_minus)) / (2.0 * delta)
    return 4.0 * float(
        np.vdot(dpsi, dpsi).real - abs(np.vdot(v_center, dpsi)) ** 2
    )


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


def _finalize(value: float) -> float:
    if value < -NEGATIVE_TOL:
        raise ArithmeticError(f"QFI estimate {value:.3e} is negative beyond tolerance")
    return max(value, 0.0)


def _estimate(p, target, delta, method, need_center, solver_kw):
    def vec(d):
        return solve_steady_state(_shifted(p, target, d), method=method, **solver_kw).vector

    center = vec(0.0) if need_center else None

    def one(d):
        vm, vp = vec(-d), vec(d)
        if need_center:
            return vector_fd_qfi_from_states(vm, center, vp, d)
        return fidelity_qfi_from_states(vm, vp, d)

    value = one(delta)
    value_half = one(delta / 2.0)
    scale = max(abs(value_half), 1e-300)
    return value, abs(value - value_half) / scale


def _qfi_numeric(p, target, delta, method_name, need_center, method, solver_kw):
    _check_target(target)
    if delta <= 0:
        raise ValueError("delta must be > 0")
    value, rich = _estimate(p, target, delta, method, need_center, solver_kw)
    step = delta
    if rich > RICHARDSON_LIMIT:
        step = delta / 4.0
        value, rich = _estimate(p, target, step, method, need_center, solver_kw)
    return QfiEstimate(
        params=p,
        target=target,
        value=_finalize(value),
        method=method_name,
        step=step,
        richardson_diff=rich,
        reliable=rich <= RICHARDSON_LIMIT,
    )


def qfi_fidelity(
    p: ChainParams,
    target: str,
    delta: float = 1e-3,
    method: str = "auto",
    **solver_kw,
) -> QfiEstimate:
    """QFI from the steady-state overlap drop; gauge-free, the primary method.

    Solver keyword arguments (tol, max_iters, seed) are passed
    through to ``solve_steady_state``.
    """
    return _qfi_numeric(p, target, delta, "fidelity", False, method, solver_kw)


def qfi_vector_fd(
    p: ChainParams,
    target: str,
    delta: float = 1e-3,
    method: str = "auto",
    **solver_kw,
) -> QfiEstimate:
    """QFI from the phase-aligned central difference of steady-state vectors."""
    return _qfi_numeric(p, target, delta, "vector_fd", True, method, solver_kw)
