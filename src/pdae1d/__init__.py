"""1-D two-component reaction-diffusion solver with an integral constraint.

The evolving pair (u, v) lives on the unit interval with homogeneous
Dirichlet ends; a third profile w is slaved to it through w_xx = -(u + v)
(general impact weights supported) and is recovered by running integrals
rather than evolved.  The package provides the sine-spectral diffusion
core, the constraint recovery, exponential/IMEX/Picard time integrators,
randomized property checks of the discrete operator facts, and a scenario
CLI with manufactured-solution convergence tooling.
"""

from .constraint import (
    ConstraintReport,
    constraint_residual,
    cumulative_integral,
    reconstruct_w,
)
from .fields import Field, Grid1D, StatePair, sine_mode
from .integrators import (
    PicardConvergenceError,
    PicardResult,
    RunStatus,
    SolveConfig,
    Trajectory,
    picard_slab,
    solve,
    step_exp_euler,
    step_imex,
)
from .nonlinearity import (
    CoefficientSet,
    SourcePair,
    eval_reaction,
    h1_seminorm,
    lipschitz_ratio,
    source_time_lipschitz,
    tabulated_sources,
    zero_sources,
)
from .scenarios import (
    MmsSpec,
    ScenarioConfig,
    build_mms_sources,
    mms_source_table,
    mms_state,
    run_convergence,
    run_scenario,
    run_verification,
)
from .spectral import (
    discrete_laplacian,
    laplacian_eigenvalues,
    phi1,
    phi1_apply,
    semigroup_apply,
    solve_shifted,
)
from .verification import (
    PropertyReport,
    check_dissipativity,
    check_lipschitz,
    check_maximality,
    check_semigroup,
    report_to_dict,
    run_checks,
)

__version__ = "0.1.0"
