"""Projection-free optimization for generalized self-concordant objectives."""

from .gsc import (GscSpec, Line, LocalGeometry, Objective, Point, delta_nu,
                  gsc_affine_constant, gsc_finite_sum_constant, gsc_sum_constant, inner,
                  l2_norm, omega)
from .sets import (EuclideanBall, FeasibleSet, L1Ball, NonnegativeBall, OracleViolation,
                   ProductSet, SimplexLLOO, SymmetricL1Ball, UnitSimplex, VertexSet, gap,
                   max_feasible_step)
from .stepsize import analytic_step, psi, t_star
from .solvers import (SOLVERS, ActiveSet, BacktrackingError, IterationRecord,
                      RunTrace, SolverConfig, asfwgsc, away_vertex, fw_line_search,
                      fw_standard, fwgsc, fwlloo, lbtfwgsc, mbtfwgsc, step_l, step_m)
from .problems import (ProblemInstance, SparseDataset, covariance_generator,
                       covariance_problem, dwd_problem, libsvm_parse, logistic_problem,
                       portfolio_generator, portfolio_problem, synthetic_classification)
from .bench import ProfilePoint, RunRecord, profile_points, relative_error, run_experiment

__version__ = "0.1.0"
