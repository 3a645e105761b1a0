"""mfclab: numerics laboratory for mean-field stochastic control with common noise."""

from .expressions import (
    EvaluationError,
    ExpressionSyntaxError,
    evaluate,
    parse_coefficient,
    print_coefficient,
)
from .measures import (
    UnsupportedShapeError,
    brute_force_wasserstein,
    duplicate_atoms,
    rnorm,
    wasserstein_r,
)
from .models import (
    ModelSpec,
    REGISTRY,
    feedback_map,
    hamiltonian,
    l2_conjugate,
    model_from_json,
)
from .simulate import (
    PathBundle,
    Policy,
    SimConfig,
    open_loop,
    path_blocks,
    path_statistics,
    path_sups,
    simulate_lifted_atoms,
    simulate_particles,
    wiener_increments,
    zero_control,
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
    FUNCTIONALS,
    bump_constants,
    convexity_preservation_probe,
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
    semiconcavity_report,
    time_holder_probe,
)

__version__ = "0.1.0"
