"""fdmkit: randomized feasible-descent solvers with empirical certification.

Coordinate-descent and projected-gradient solvers over weighted box
geometries, exact trace replay against the randomized feasible-descent
inequalities, theoretical linear-rate constants with their measured
counterparts, and a duality-gap iteration bound for the SVM dual.

Each export loads its module on first use, so ``import fdmkit`` imports no
numpy: the ``fdmkit`` command sets its BLAS thread default before numpy
starts (see ``fdmkit.__main__``).
"""

import importlib

__version__ = "0.1.0"

# every export, listed once under the module that defines it
_EXPORTS = {
    "geometry": ["Box", "check_weights", "projected_gradient",
                 "weighted_norm_sq", "weighted_dual_norm_sq"],
    "problems": ["Problem", "ProblemState", "QuadraticProblem", "SvmDualProblem",
                 "ErmProblem", "LassoBoxProblem", "SliceMinError",
                 "minimize_slice", "minimize_slices", "lasso_lift",
                 "lasso_project_back", "global_lipschitz_bound"],
    "solvers": ["OPTION_I", "OPTION_II", "SolverConfig", "Trace",
                "DivergenceError", "run_scdm", "run_scdm_seeds",
                "run_cyclic_cd", "run_projected_gradient"],
    "verify": ["Certificate", "InvariantReport", "ReplayError", "check_rcfdm",
               "check_rfdm", "check_trace_invariants"],
    "rates": ["GapReport", "RateConstants", "estimate_kappa_f",
              "hoffman_theta_bruteforce", "kappa_from_theta", "measured_rate",
              "rate_rcfdm_general", "rate_rcfdm_zero_z", "rate_rfdm",
              "sdca_iteration_bound", "svm_sigma_sq"],
    "datasets": ["Dataset", "ParseError", "parse_libsvm", "write_libsvm",
                 "gaussian_margin"],
    "experiment": ["ConfigError", "ExperimentConfig", "ExperimentResult",
                   "load_config", "run_experiment", "reference_solve",
                   "mean_gap_experiment", "write_trace_csv"],
}
__all__ = [name for names in _EXPORTS.values() for name in names]
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value
