"""Command-line harness.

Subcommands:
  run      execute an experiment grid from a JSON config file
  profile  recompute profile statistics from a directory of record files
  trace    run a single (problem, method) cell and write its record

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench
from .bench import ConfigError
from .sets import OracleViolation
from .solvers import SOLVERS, BacktrackingError


def _build_parser():
    parser = argparse.ArgumentParser(prog="gscfw",
                                     description="Projection-free solvers for "
                                                 "generalized self-concordant objectives")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid from a config file")
    p_run.add_argument("config", help="JSON config path")
    p_run.add_argument("--out", default=None, help="record directory override")
    p_run.add_argument("--dry-run", action="store_true",
                       help="list the grid without executing")

    p_prof = sub.add_parser("profile", help="profile statistics from record files")
    p_prof.add_argument("records", help="directory of .jsonl record files")
    p_prof.add_argument("--epsilons", default=",".join(map(str, bench.DEFAULT_EPSILONS)),
                        help="comma-separated relative-error grid")
    p_prof.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p_tr = sub.add_parser("trace", help="run one solver on one problem")
    p_tr.add_argument("--problem", required=True, choices=sorted(bench.DEFAULT_SIZES))
    p_tr.add_argument("--method", required=True, choices=sorted(SOLVERS))
    p_tr.add_argument("--nu-mode", type=int, default=2, choices=(2, 3),
                      help="GSC order for the logistic problem")
    p_tr.add_argument("--epsilon", type=float, default=1e-6)
    p_tr.add_argument("--max-iter", type=int, default=1000)
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--out", default=None, help="record file path")
    p_tr.add_argument("--p", type=int, default=None, help="sample count / matrix order")
    p_tr.add_argument("--n", type=int, default=None, help="variable count (where applicable)")
    return parser


def _cmd_run(args) -> int:
    bench.run_experiment(args.config, out_dir=args.out, dry_run=args.dry_run)
    return 0


def _cmd_profile(args) -> int:
    epsilons = bench.epsilon_grid([tok for tok in args.epsilons.split(",") if tok])
    records = bench.load_records(args.records)
    if not records:
        raise ConfigError(f"no record files under {args.records}")
    rows = bench.profile_points(records, epsilons)
    if args.out:
        bench.write_profile_csv(Path(args.out), rows)
    else:
        for fields in bench.profile_table(rows):
            print(",".join(fields))
    return 0


def _cmd_trace(args) -> int:
    spec = {"name": args.problem, "seed": args.seed}
    if args.p is not None:
        spec["p"] = args.p
    if args.n is not None:
        spec["n"] = args.n
    if args.problem == "logistic":
        spec["nu_mode"] = args.nu_mode
    # a one-cell grid: the settings and their exit codes are those of ``run``
    *_, config, _ = bench._parse_config({"problems": [spec], "methods": [args.method],
                                         "epsilon": args.epsilon, "max_iter": args.max_iter})
    instance = bench.build_problem(spec)
    x0, weights = bench.make_start(instance, args.seed)
    trace = bench.run_method(args.method, instance, x0, weights, config)
    lines = bench.trace_to_lines(bench._cell_id(spec), args.method, 0, trace)
    if args.out:
        bench.write_record(Path(args.out), lines)
    else:
        print("\n".join(lines))
    print(f"# status={trace.status} final_f={trace.final_f:.12g} "
          f"final_gap={trace.final_gap:.3e} iterations={len(trace.iterations)}",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "profile": _cmd_profile, "trace": _cmd_trace}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BacktrackingError, OracleViolation, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
