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
    project_box,
    run_ecim,
    step_sizes,
)
from .model import (
    Objective,
    QuadraticModel,
    build_subproblem,
    energy,
)
from .objectives import (
    ConstantEstimates,
    TestProblem,
    estimate_constants,
    estimate_mu_p,
    get_problem,
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
    ExactBallSolver,
    GridSolver,
    TrustRegionConfig,
    TrustRegionRecord,
    TrustRegionTrace,
    itrust,
    solve_subproblem,
    update_radius,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantEstimates",
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
    "energy",
    "estimate_constants",
    "estimate_mu_p",
    "exact_ball_minimize",
    "get_problem",
    "grid_minimize_box",
    "itrust",
    "problem_suite",
    "project_box",
    "random_box_quadratic",
    "run_ecim",
    "solve_subproblem",
    "step_sizes",
    "update_radius",
]
