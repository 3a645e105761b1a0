"""mfclab: numerics laboratory for mean-field stochastic control with common noise."""

from .expressions import (
    EvaluationError,
    ExpressionSyntaxError,
    evaluate,
    parse_coefficient,
    print_coefficient,
)
from .measures import (
    EmpiricalMeasure,
    UnsupportedShapeError,
    VectorTuple,
    brute_force_wasserstein,
    duplicate_atoms,
    moment_r,
    rnorm,
    wasserstein_r,
)
from .models import (
    ModelSpec,
    REGISTRY,
    assumption_probe,
    feedback_map,
    hamiltonian,
    l2_conjugate,
    lifted_coefficients,
    model_from_json,
    registry_model,
)
from .simulate import (
    ControlPolicy,
    MarkovFeedback,
    OpenLoopSchedule,
    PathBundle,
    SimConfig,
    ZeroControl,
    path_statistics,
    simulate_lifted_atoms,
    simulate_particles,
    wiener_increments,
)
from .costs import CostEstimate, cost_finite, cost_lifted, policy_compare
from .hjb import (
    CFLError,
    GridSpec,
    GridValueFunction,
    grid_gradient,
    required_time_steps,
    riccati_lq_value,
    sized_grid,
    solve_hjb,
    synthesize_feedback,
)
from .mollify import (
    BaseFunctional,
    SmoothedFunctional,
    bump_constants,
    convexity_preservation_probe,
    functional_registry,
    lipschitz_preservation_probe,
    sample_bump,
    smooth_eval,
    uniform_convergence_probe,
)
from .reports import ProbeReport
from .verify import (
    convergence_sweep,
    cost_identity_check,
    duplication_consistency,
    feedback_roundtrip,
    permutation_invariance_probe,
    semiconcavity_probe,
    semiconcavity_report,
    time_holder_probe,
)

__version__ = "0.1.0"
