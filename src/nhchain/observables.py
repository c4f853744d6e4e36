"""Steady-state expectation values and the two-site closed forms.

Expectations follow the right-vector convention <psi_ss| O |psi_ss> with the
unit-normalized steady-state vector (no biorthogonal weighting).
Correlation profiles are raw products <s^a_1 s^a_n>, not connected
correlations.

The two-site closed forms are written with a = sqrt(g^2 - 4J^2) and
b = sqrt(g^2 - 4J^2 - 16h^2), valid strictly inside the gapped region
(b real and positive).  The transverse correlation is

    <sx1 sx2> = <sy1 sy2> = (J sin(2 theta) / g) * (1 - b/a),

which is what the steady-state vector itself yields; it is cross-checked
against dense numerics in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .hamiltonian import ChainParams
from .operators import SparseOperator, embed, embed_pair, op_matvec, pauli
from .spectral import SteadyState, _gapped_two_site_roots

HERMITIAN_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class ObservableRecord:
    """One named steady-state expectation value."""

    params: ChainParams
    name: str
    sites: tuple[int, ...]
    value: float


def expectation(ss: SteadyState, op: SparseOperator) -> complex:
    """<psi_ss| O |psi_ss> with the unit-norm right vector."""
    v = ss.vector
    if op.dim != v.shape[0]:
        raise ValueError(f"operator dimension {op.dim} does not match state {v.shape[0]}")
    return complex(np.vdot(v, op_matvec(op, v)))


def _real_expectation(ss: SteadyState, op: SparseOperator) -> float:
    """Expectation of a Hermitian operator; checks and drops the Im residue."""
    val = expectation(ss, op)
    if abs(val.imag) > HERMITIAN_IMAG_TOL:
        raise ArithmeticError(
            f"imaginary residue {val.imag:.3e} on a Hermitian expectation"
        )
    return val.real


def magnetizations_two_site(
    p: ChainParams,
) -> tuple[float, float, float, float, float, float]:
    """Closed-form (sx1, sy1, sz1, sx2, sy2, sz2) of the two-site steady state.

    Site 1 responds transversally, perpendicular to the applied field; site 2
    keeps the field-free polarization -a/gamma.
    """
    a, b = _gapped_two_site_roots(p, "magnetizations")
    g = p.gamma
    slope = 4.0 * p.h / g
    return (
        slope * np.cos(p.theta + 0.5 * np.pi),
        slope * np.sin(p.theta + 0.5 * np.pi),
        -b / g,
        0.0,
        0.0,
        -a / g,
    )


def correlations_two_site(p: ChainParams) -> tuple[float, float, float]:
    """Closed-form (xx, yy, zz) correlations of the two-site steady state."""
    a, b = _gapped_two_site_roots(p, "correlations")
    xx = (p.J * np.sin(2.0 * p.theta) / p.gamma) * (1.0 - b / a)
    return xx, xx, b / a


def pair_correlation_op(axis: str, n1: int, n2: int, N: int) -> SparseOperator:
    """Embedded product s^axis_{n1} s^axis_{n2} for axis in {x, y, z}."""
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    s = pauli(axis)
    return embed_pair(np.kron(s, s), n1, n2, N)


def correlation_profile(ss: SteadyState, axis: str) -> np.ndarray:
    """<s^axis_1 s^axis_n> for n = 2..N, in ascending n order."""
    N = ss.params.N
    return np.array(
        [
            _real_expectation(ss, pair_correlation_op(axis, 1, n, N))
            for n in range(2, N + 1)
        ]
    )


def site_magnetizations(ss: SteadyState) -> list[ObservableRecord]:
    """Records s{x,y,z}_n for every site of the chain."""
    N = ss.params.N
    out = []
    for n in range(1, N + 1):
        for axis in ("x", "y", "z"):
            op = embed(pauli(axis), n, N)
            out.append(
                ObservableRecord(
                    params=ss.params,
                    name=f"s{axis}_{n}",
                    sites=(n,),
                    value=_real_expectation(ss, op),
                )
            )
    return out

