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
                       check_coord_strong_convexity, global_lipschitz_bound,
                       lasso_lift, lasso_project_back, minimize_slice,
                       minimize_slices)
from .solvers import (OPTION_I, OPTION_II, DivergenceError, SolverConfig,
                      Trace, run_cyclic_cd, run_projected_gradient, run_scdm,
                      run_scdm_seeds, scdm_step_option1, scdm_step_option2)
from .verify import (Certificate, CyclicConstants, InvariantReport,
                     ReplayError, ZReconstruction, check_rcfdm, check_rfdm,
                     check_trace_invariants, cyclic_constants,
                     reconstruct_z_option1)
from .rates import (GapReport, RateConstants, error_bound_eta,
                    estimate_kappa_f, hoffman_theta_bruteforce,
                    kappa_from_eta, kappa_from_theta, measured_rate,
                    quadratic_lipschitz_w, rate_rcfdm_general,
                    rate_rcfdm_zero_z, rate_rfdm, sdca_iteration_bound,
                    spectral_norm, svm_sigma_sq)
from .datasets import (Dataset, ParseError, correlated_rows,
                       diagonal_quadratic, gaussian_margin,
                       generate_synthetic, parse_libsvm, write_libsvm)
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
    "check_coord_strong_convexity", "global_lipschitz_bound",
    "OPTION_I", "OPTION_II", "SolverConfig", "Trace", "DivergenceError",
    "run_scdm", "run_scdm_seeds", "run_cyclic_cd", "run_projected_gradient",
    "scdm_step_option1", "scdm_step_option2",
    "Certificate", "CyclicConstants", "InvariantReport", "ReplayError",
    "ZReconstruction", "check_rcfdm", "check_rfdm", "check_trace_invariants",
    "cyclic_constants", "reconstruct_z_option1",
    "GapReport", "RateConstants", "error_bound_eta", "estimate_kappa_f",
    "hoffman_theta_bruteforce", "kappa_from_eta", "kappa_from_theta",
    "measured_rate", "quadratic_lipschitz_w", "rate_rcfdm_general",
    "rate_rcfdm_zero_z", "rate_rfdm", "sdca_iteration_bound", "spectral_norm",
    "svm_sigma_sq",
    "Dataset", "ParseError", "parse_libsvm", "write_libsvm",
    "generate_synthetic", "gaussian_margin", "correlated_rows",
    "diagonal_quadratic",
    "ConfigError", "ExperimentConfig", "ExperimentResult", "load_config",
    "run_experiment", "reference_solve", "mean_gap_experiment",
    "write_trace_csv",
]
