"""Command-line interface.

Subcommands::

    solve   run the configured solver over all seeds, write traces + report
    verify  solve and certify the traces against the framework inequalities
    rates   solve and attach rate constants and measured rates to the report
    gap     solve and run the duality-gap iteration-bound experiment
    gen     emit a gaussian-margin dataset as libsvm text

Exit codes: 0 success, 1 validation error (any malformed config key, at load,
before a dataset file is read), 2 runtime failure, 3 certification failure.

The command runs on one BLAS thread unless OPENBLAS_NUM_THREADS is set: its
matrix products are too small to gain from a second thread, and an idle
OpenBLAS worker spins on a core and costs CPU time.  Outputs do not depend on
the thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .datasets import gaussian_margin, write_libsvm
from .experiment import ExperimentConfig, load_config, run_experiment
from .geometry import check_number
from .solvers import SEED_RANGE

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_CERTIFICATION = 3


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the validation code.
    def error(self, message):
        raise _ArgumentError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fdmkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config (JSON)")
        cmd.add_argument("--out", help="override the output directory")
        cmd.add_argument("--seed", type=int, action="append",
                         help="replace the config seed list (repeatable)")
        cmd.add_argument("--epsilon", type=float,
                         help="override the duality-gap tolerance "
                         "(svm-dual only)")
        cmd.add_argument("--max-iters", type=int, help="override iteration budget")
        return cmd

    add_run_command("solve", "run the solver and write traces")
    add_run_command("verify", "run and certify the framework inequalities")
    add_run_command("rates", "run and report rate constants")
    add_run_command("gap", "run the duality-gap bound experiment")

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--generator", required=True, choices=["gaussian-margin"])
    gen.add_argument("--out", required=True)
    gen.add_argument("--n", type=int)
    gen.add_argument("--d", type=int)
    gen.add_argument("--seed", type=int, default=0)
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """``cfg`` with the command's block switched on and the command-line
    overrides, put through the same checks as a config file."""
    raw = dataclasses.asdict(cfg)
    if args.command == "verify":
        raw["verify"]["rcfdm"] = True
    elif args.command == "rates":
        raw["rates"]["enabled"] = True
    elif args.command == "gap":
        raw["gap"]["enabled"] = True
    if args.out:
        raw["output_dir"] = args.out
    if args.seed:
        raw["seeds"] = list(args.seed)
    if args.epsilon is not None:
        raw["epsilon"] = args.epsilon
        raw["gap"]["epsilons"] = [args.epsilon]
    if args.max_iters is not None:
        raw["solver"]["max_iters"] = args.max_iters
    return ExperimentConfig.from_dict(raw)


def _run_command(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    result = run_experiment(cfg)
    agg = result.report["aggregate"]
    for entry in result.report["seeds"]:
        if entry["status"] == "ok":
            print(f"seed {entry['seed']}: {entry['iterations']} iters, "
                  f"f = {entry['final_f']:.12g} ({entry['stop_reason']})")
        else:
            print(f"seed {entry['seed']}: FAILED ({entry['error']})",
                  file=sys.stderr)
    if args.command == "verify":
        status = "passed" if agg["certificates_all_passed"] else "FAILED"
        print(f"certification {status}")
    if args.command == "gap" and agg["gap_reports"]:
        for rep in agg["gap_reports"]:
            print(f"epsilon {rep['epsilon']:g}: bound K = {rep['iteration_bound']}, "
                  f"mean gap at K = {rep['mean_gap_at_bound']:.3e}")
    print(f"report: {result.report_path}")
    return result.exit_code


def _gen_command(args) -> int:
    for key in ("n", "d"):
        check_number(getattr(args, key), f"--{key}", integer=True)
    check_number(args.seed, "--seed", **SEED_RANGE)
    write_libsvm(gaussian_margin(args.n, args.d, args.seed), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.command == "gen":
            return _gen_command(args)
        return _run_command(args)
    except ValueError as exc:  # ConfigError and ParseError among them
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
