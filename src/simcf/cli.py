# simcf/cli.py
# Command line front end: `run` executes a sweep spec, `validate` runs the
# built-in oracle checks, `table1` and `fig3` run the canned experiment
# grids. Failures exit nonzero with a JSON error record on stderr.

import argparse
import json
import sys
from dataclasses import replace

from .experiments import (ExperimentSpec, fig3_spec, run_experiment,
                          table1_spec, write_result_csv)
from .validate import run_checks


def _add_common(parser):
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the spec seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simcf",
        description="Uplink simulator for stacked-metasurface cell-free "
                    "massive MIMO: closed-form spectral efficiency, "
                    "optimizers, and Monte-Carlo validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep described by a JSON spec")
    p_run.add_argument("--spec", required=True, help="path to the spec JSON")
    _add_common(p_run)

    p_val = sub.add_parser("validate", help="run the built-in oracle checks")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--trials", type=int, default=20000,
                       help="Monte-Carlo trials for the agreement check")

    p_t1 = sub.add_parser("table1", help="meta-atom spacing sweep")
    p_t1.add_argument("--drops", type=int, default=20)
    _add_common(p_t1)

    p_f3 = sub.add_parser("fig3", help="AP sweep at a fixed atom budget")
    p_f3.add_argument("--drops", type=int, default=20)
    _add_common(p_f3)
    return parser


def _execute(spec, args):
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    result = run_experiment(spec)
    rows_path, agg_path = write_result_csv(result, args.out_dir)
    print(f"wrote {rows_path} and {agg_path} "
          f"({len(result.rows)} rows, {result.failures} failed drops)")
    return 1 if result.failures else 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _execute(ExperimentSpec.from_json(args.spec), args)
        if args.command == "table1":
            return _execute(table1_spec(n_drops=args.drops), args)
        if args.command == "fig3":
            return _execute(fig3_spec(n_drops=args.drops), args)
        if args.command == "validate":
            failed = 0
            for name, passed, detail in run_checks(seed=args.seed,
                                                   n_trials=args.trials):
                status = "PASS" if passed else "FAIL"
                print(f"{status} {name}: {detail}")
                failed += not passed
            return 1 if failed else 0
        raise ValueError(f"unhandled command {args.command!r}")
    except Exception as exc:  # noqa: BLE001 - single CLI error funnel
        json.dump({"error": str(exc), "type": type(exc).__name__},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
