"""Planning toolkit for constrained stochastic shortest path problems.

Solves for optimal (possibly stochastic) policies by searching scalarised
unconstrained subproblems under a Lagrangian multiplier, maximising over
the multiplier with Kelley's cutting-plane method, and mixing the
deterministic policies those searches found into the optimal policy with a
small restricted-master LP.  An exact occupation-measure LP solve is
included as a validation oracle.

The exports are the pipeline (``solve_cssp``), the exact oracle, model I/O,
and the layers the pipeline is built from: heuristics, the subproblem
search, the multiplier oracle and its cutting-plane search, and the policy
mixture.
"""

from . import errors
from .domains import GeneratorSpec, generate
from .extract import (
    Mixture,
    decode_policy,
    flat_dual_solve,
    mix_policies,
    occupation_measure_of,
)
from .heuristics import (
    HeuristicVector,
    ideal_point_heuristic,
    lambda_heuristic,
    make_heuristic,
    zero_heuristic,
)
from .linalg import LinearProgram, LpSolution, solve_linear_system, solve_lp
from .model import (
    CsspModel,
    DeterministicPolicy,
    StochasticPolicy,
    evaluate_policy,
    feasibility_check,
    finite_penalty_transform,
    load_model,
    load_model_file,
    model_to_document,
    policy_from_names,
    policy_to_names,
)
from .scalarise import (
    LagrangianSample,
    LambdaOracle,
    cutting_plane,
    sample_surface,
)
from .search import (
    SearchResult,
    VectorValueFunction,
    fresh_vvf,
    solve_lambda_ssp,
    warm_restart,
)
from .solver import RunReport, SolveOutcome, oracle_solve, solve_cssp

__version__ = "0.1.0"
