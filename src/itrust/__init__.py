"""Trust-region optimization driven by a simulated economical coherent
Ising machine.

The machine relaxes box-constrained quadratics by noisy projected gradient
dynamics; the trust-region loop feeds it local quadratic models of a smooth
objective and adapts the box radius from the observed decrease. Reference
oracles (dense grid, exact norm-ball solver) back every claimed optimum.
"""

from .ecim import (
    DivergenceError,
    EcimConfig,
    EcimTrace,
    ecim_step,
    gradient_mapping,
    project_box,
    run_ecim,
    step_sizes,
)
from .model import (
    Objective,
    QuadraticModel,
    build_subproblem,
    energy,
    energy_gradient,
)
from .objectives import (
    ConstantEstimates,
    TestProblem,
    estimate_constants,
    estimate_mu_p,
    finite_diff_check,
    finite_difference_gradient,
    finite_difference_hessian,
    get_problem,
    make_objective,
    problem_suite,
    random_box_quadratic,
)
from .oracles import (
    NumericalError,
    OracleCapabilityError,
    OracleSolution,
    exact_ball_minimize,
    grid_minimize_box,
)
from .trust_region import (
    DegenerateModelError,
    ExactBallSolver,
    GridSolver,
    TrustRegionConfig,
    TrustRegionRecord,
    TrustRegionTrace,
    itrust,
    reduction_ratio,
    solve_subproblem,
    update_radius,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantEstimates",
    "DegenerateModelError",
    "DivergenceError",
    "EcimConfig",
    "EcimTrace",
    "ExactBallSolver",
    "GridSolver",
    "NumericalError",
    "Objective",
    "OracleCapabilityError",
    "OracleSolution",
    "QuadraticModel",
    "TestProblem",
    "TrustRegionConfig",
    "TrustRegionRecord",
    "TrustRegionTrace",
    "build_subproblem",
    "ecim_step",
    "energy",
    "energy_gradient",
    "estimate_constants",
    "estimate_mu_p",
    "exact_ball_minimize",
    "finite_diff_check",
    "finite_difference_gradient",
    "finite_difference_hessian",
    "get_problem",
    "gradient_mapping",
    "grid_minimize_box",
    "itrust",
    "make_objective",
    "problem_suite",
    "project_box",
    "random_box_quadratic",
    "reduction_ratio",
    "run_ecim",
    "solve_subproblem",
    "step_sizes",
    "update_radius",
]
