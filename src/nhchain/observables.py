"""Steady-state magnetizations, correlation profiles and the two-site
closed forms.

Expectations follow the right-vector convention <psi_ss| O |psi_ss> with the
unit-normalized steady-state vector (no biorthogonal weighting); no 2**N
operator is built.  A site's magnetizations are ``Tr(s rho_n)`` for its 2x2
reduced density matrix ``rho_n`` (``operators.site_density``).  Correlation
profiles apply each Pauli matrix to its site of the vector
(``operators.on_site``) and are raw products
<s^a_1 s^a_n> = <s^a_1 psi_ss | s^a_n psi_ss>, not connected correlations.

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
from .operators import on_site, pauli, site_density
from .spectral import SteadyState, _gapped_two_site_roots

HERMITIAN_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class ObservableRecord:
    """One named steady-state expectation value."""

    params: ChainParams
    name: str
    sites: tuple[int, ...]
    value: float


def _real(val: complex) -> float:
    """Value of a Hermitian expectation; checks and drops the Im residue."""
    if abs(val.imag) > HERMITIAN_IMAG_TOL:
        raise ArithmeticError(
            f"imaginary residue {val.imag:.3e} on a Hermitian expectation"
        )
    return float(val.real)


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


def correlation_profile(ss: SteadyState, axis: str) -> np.ndarray:
    """<s^axis_1 s^axis_n> for n = 2..N, in ascending n order."""
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    s, v = pauli(axis), ss.vector
    first = on_site(s, 1, v)
    return np.array(
        [_real(np.vdot(first, on_site(s, n, v))) for n in range(2, ss.params.N + 1)]
    )


def site_magnetizations(ss: SteadyState) -> list[ObservableRecord]:
    """Records s{x,y,z}_n for every site of the chain.

    Each site's three values are ``Tr(s rho_n)`` for its 2x2 reduced density
    matrix ``rho_n``, one contraction of the vector.
    """
    v = ss.vector
    records = []
    for n in range(1, ss.params.N + 1):
        rho = site_density(n, v)
        records += [
            ObservableRecord(
                params=ss.params,
                name=f"s{axis}_{n}",
                sites=(n,),
                # Tr(s rho) = sum_ab conj(s_ab) rho_ab for a Hermitian s
                value=_real(np.vdot(pauli(axis), rho)),
            )
            for axis in ("x", "y", "z")
        ]
    return records
