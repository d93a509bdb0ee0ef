"""fdmkit: randomized feasible-descent solvers with empirical certification.

Coordinate-descent and projected-gradient solvers over weighted box
geometries, exact trace replay against the randomized feasible-descent
inequalities, theoretical linear-rate constants with their measured
counterparts, and a duality-gap iteration bound for the SVM dual.
"""

from .geometry import (Box, check_weights, projected_gradient,
                       weighted_dual_norm_sq, weighted_norm_sq)
from .problems import (ErmProblem, LassoBoxProblem, Problem, ProblemState,
                       QuadraticProblem, SliceMinError, SvmDualProblem,
                       global_lipschitz_bound, lasso_lift, lasso_project_back,
                       minimize_slice, minimize_slices)
from .solvers import (OPTION_I, OPTION_II, DivergenceError, SolverConfig,
                      Trace, run_cyclic_cd, run_projected_gradient, run_scdm,
                      run_scdm_seeds)
from .verify import (Certificate, InvariantReport, ReplayError, check_rcfdm,
                     check_rfdm, check_trace_invariants)
from .rates import (GapReport, RateConstants, estimate_kappa_f,
                    hoffman_theta_bruteforce, kappa_from_theta, measured_rate,
                    rate_rcfdm_general, rate_rcfdm_zero_z, rate_rfdm,
                    sdca_iteration_bound, svm_sigma_sq)
from .datasets import (Dataset, ParseError, correlated_rows,
                       diagonal_quadratic, gaussian_margin, parse_libsvm,
                       write_libsvm)
from .experiment import (ConfigError, ExperimentConfig, ExperimentResult,
                         load_config, mean_gap_experiment, reference_solve,
                         run_experiment, write_trace_csv)

__version__ = "0.1.0"

__all__ = [
    "Box", "check_weights", "projected_gradient",
    "weighted_norm_sq", "weighted_dual_norm_sq",
    "Problem", "ProblemState", "QuadraticProblem", "SvmDualProblem",
    "ErmProblem", "LassoBoxProblem", "SliceMinError", "minimize_slice",
    "minimize_slices", "lasso_lift", "lasso_project_back",
    "global_lipschitz_bound",
    "OPTION_I", "OPTION_II", "SolverConfig", "Trace", "DivergenceError",
    "run_scdm", "run_scdm_seeds", "run_cyclic_cd", "run_projected_gradient",
    "Certificate", "InvariantReport", "ReplayError", "check_rcfdm",
    "check_rfdm", "check_trace_invariants",
    "GapReport", "RateConstants", "estimate_kappa_f",
    "hoffman_theta_bruteforce", "kappa_from_theta", "measured_rate",
    "rate_rcfdm_general", "rate_rcfdm_zero_z", "rate_rfdm",
    "sdca_iteration_bound", "svm_sigma_sq",
    "Dataset", "ParseError", "parse_libsvm", "write_libsvm",
    "gaussian_margin", "correlated_rows", "diagonal_quadratic",
    "ConfigError", "ExperimentConfig", "ExperimentResult", "load_config",
    "run_experiment", "reference_solve", "mean_gap_experiment",
    "write_trace_csv",
]
