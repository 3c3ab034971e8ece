#!/usr/bin/env python3
"""A/B benchmark: the end-to-end metrics of a commit against the working tree.

Runs `perfbench/run.py --trace 0` of this tree on the src/ of a
`git archive` of the commit and on this tree's src/, in alternating pairs,
the side that runs first flipping from one pair to the next, and prints for
each end-to-end metric of BENCHMARK.json each side's median and quartiles,
the pairs the working tree won (ties count for neither) and whether the
medians differ, in the working tree's favour, by more than the commit's
interquartile range:

    python3 tools/ab.py 4df8c6e --workload table1-opt --seed 1
    python3 tools/ab.py HEAD~1 --workload mc-check --pairs 12 --seconds 15

Exits 1 when a run fails or reports "correct": false.
"""

import argparse
import json
import statistics
import subprocess
import sys

from checkout import ROOT, commit_src


def run_once(src, workload, seed, seconds):
    """The JSON report of one benchmark run on src, or None on a failure."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--trace", "0",
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--src", str(src)],
        capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"ab: run on {src} exited {run.returncode} without a report:\n"
              f"{run.stderr[-2000:]}", file=sys.stderr)
        return None


def quartiles(values):
    """(first quartile, median, third quartile) of values."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(metric, parent, change):
    """One table line for metric: both sides' quartiles, the change's wins
    and whether its median beats the parent's by more than the parent's
    interquartile range."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    p_lo, p_med, p_hi = quartiles(parent)
    c_lo, c_med, c_hi = quartiles(change)
    beyond = sign * (p_med - c_med) > p_hi - p_lo
    return (f"{metric['name']:<13}{p_med:>10.4g} [{p_lo:.4g}, {p_hi:.4g}]"
            f"{c_med:>12.4g} [{c_lo:.4g}, {c_hi:.4g}]"
            f"{wins:>6}/{len(parent):<4}{'yes' if beyond else 'no':>6}"
            f"  {c_med / p_med:.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commit", help="commit to compare against")
    parser.add_argument("--workload", default="table1-opt")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    reports = {"parent": [], "change": []}
    failed = False
    with commit_src(args.commit) as old_src:
        sides = {"parent": old_src, "change": ROOT / "src"}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                                 "parent")
            for side in order:
                report = run_once(sides[side], args.workload, args.seed,
                                  args.seconds)
                failed |= report is None or not report["correct"]
                reports[side].append(report)
            if failed:
                break
            print(f"ab: pair {pair + 1}/{args.pairs} ({order[0]} first): "
                  + ", ".join(f"{side} sweep_s="
                              f"{reports[side][-1]['metrics']['sweep_s']['value']:.4f}"
                              for side in ("parent", "change")), flush=True)
    if failed:
        print("ab: a run failed or reported incorrect rows", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {args.seconds:g}; {args.commit} against the working "
          f"tree")
    print(f"{'metric':<13}{'parent median [q1, q3]':>28}"
          f"{'change median [q1, q3]':>30}{'wins':>8}{'>IQR':>8}  ratio")
    for metric in metrics:
        values = {side: [r["metrics"][metric["name"]]["value"]
                         for r in reports[side]] for side in reports}
        print(summary(metric, values["parent"], values["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
