"""Nonlinear quantum dynamics on the square-root factorization rho = gamma gamma^dag."""

from .errors import (
    DegenerateConstraintError,
    NlqdError,
    StepSizeError,
    SubspaceInvarianceError,
    ValidationError,
)
from .generators import (
    GammaFamily,
    GeneratorSpec,
    TFamily,
    check_polchinski_condition,
    check_zero_mean,
    classify_dissipative_part,
    eval_Gamma,
    eval_T,
    make_zero_mean,
    solve_lagrange_parameters,
)
from .linalg import (
    DensityMatrix,
    StateOperator,
    matrix_power,
    mutual_information,
    partial_trace,
    purity,
    sqrt_factor,
    support_projector,
    tensor_product,
    von_neumann_entropy,
)
from .propagation import (
    IntegratorConfig,
    MixtureSpec,
    Trajectory,
    accumulate_propagator,
    consistency_check_rho_route,
    evolve,
    evolve_convex_mixture,
    evolve_many,
    step_state_operator,
)
from .entanglement import (
    BipartiteDynamics,
    BipartiteState,
    check_environment_stationarity,
    check_local_equivalence,
    evolve_bipartite,
    polchinski_generator,
    trivial_extension,
    verify_cp_extension,
)
from .measurement import (
    CorrelationScenario,
    MeasurementSetup,
    check_remote_generator_unaffected,
    check_subspace_invariance,
    correlation_full_route,
    correlation_switch_off_route,
    evolve_block_diagonal,
    projective_measure,
)

__version__ = "0.1.0"
