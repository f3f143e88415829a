"""scalevar: scale-derivative operators on nondifferentiable paths, the
variational calculus built on them, conserved-quantity checks, and a
wavefunction-trajectory application, with a batch CLI runner.

The public surface re-exports the working set of each module; see the module
docstrings for the operator conventions.
"""

from .errors import (
    DomainError,
    ExpressionError,
    GridError,
    NumericalError,
    ScaleVarError,
    ValidationError,
)
from .funcspace import (
    HolderEstimate,
    Path,
    TimeGrid,
    estimate_holder,
    make_grid,
    mean_function,
    oscillation_profile,
    sample,
    stack_paths,
    weierstrass,
)
from .lagdsl import (
    Bindings,
    ScalarField,
    diff,
    evaluate,
    format_expr,
    parse,
)
from .scaleops import (
    DEFAULT_EPSILONS,
    DEFAULT_TOLERANCE,
    ExtrapolationReport,
    ScaleParams,
    composite_scale_derivative,
    delta,
    parse_mu,
    quadratic_term,
    quantum_derivative,
    quantum_integral,
    scale_derivative,
    scale_derivative_path,
    trapezoid,
)
from .schrodinger import (
    EnergyReport,
    SchrodingerProblem,
    Trajectory,
    energy_constant,
    integrate_trajectory,
    kinetic_coefficient_identity_gap,
    schrodinger_residual,
    velocity_field,
)
from .varcalc import (
    LagrangianSpec,
    NoetherReport,
    ResidualReport,
    SymmetrySpec,
    dubois_reymond_residual,
    euler_lagrange_residual,
    evaluate_functional,
    functional_integrand,
    invariance_derivative,
    invariance_integrand,
    invariance_integrand_integral,
    noether_constant,
)

__version__ = "0.1.0"
