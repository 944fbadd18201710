"""Ground states and structural transitions of 2D rectangular lattices.

The package evaluates lattice energies of rectangular point lattices
interacting via Gaussian-representable pair potentials (Riesz, Yukawa,
double Yukawa, Yukawa-Coulomb with neutralizing background), expands the
energy in the log aspect ratio, and locates second-order transitions,
first-order coexistence densities, and tricritical points, including
critical-exponent fits and parameter-plane scans.
"""

from .energy import LatticeState, energy_gap, lattice_energy
from .errors import (
    BracketError,
    ClassificationError,
    NonconvergenceError,
    ParameterDomainError,
    QuadratureError,
    RectlatError,
    SearchFailureError,
)
from .expansion import (
    ExpansionCoefficients,
    e0,
    e2_closed,
    e2_e4_closed,
    expansion_closed,
    expansion_series,
    landau_series,
)
from .critical import (
    FitResult,
    PoorFitWarning,
    TransitionPoint,
    TricriticalPoint,
    a_star_min,
    a_star_min_zero_limit,
    e2_slope,
    find_first_order,
    find_transition,
    find_tricritical,
    first_order_bracket,
    fit_exponent,
    kappa1_lower,
    kappa1_upper,
    minimize_aspect,
)
from .potentials import (
    PotentialSpec,
    derive_double_yukawa,
    derive_yukawa_coulomb,
    riesz,
    yukawa,
)
from .quadrature import QuadratureConfig

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "ClassificationError",
    "ExpansionCoefficients",
    "FitResult",
    "LatticeState",
    "NonconvergenceError",
    "ParameterDomainError",
    "PoorFitWarning",
    "PotentialSpec",
    "QuadratureConfig",
    "QuadratureError",
    "RectlatError",
    "SearchFailureError",
    "TransitionPoint",
    "TricriticalPoint",
    "a_star_min",
    "a_star_min_zero_limit",
    "derive_double_yukawa",
    "derive_yukawa_coulomb",
    "e0",
    "e2_closed",
    "e2_e4_closed",
    "e2_slope",
    "energy_gap",
    "expansion_closed",
    "expansion_series",
    "find_first_order",
    "find_transition",
    "find_tricritical",
    "first_order_bracket",
    "fit_exponent",
    "kappa1_lower",
    "kappa1_upper",
    "landau_series",
    "lattice_energy",
    "minimize_aspect",
    "riesz",
    "yukawa",
]
