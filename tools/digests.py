#!/usr/bin/env python3
"""Digest gate: rows.csv of the working tree against those of a commit.

Runs `perfbench/run.py --digest` on every benchmark workload and seed, once
with --src pointing at this tree's src/ and once at the src/ of a
`git archive` of the commit, prints one table and exits 1 on any mismatch:

    python3 tools/digests.py HEAD~1            # seeds 1-10
    python3 tools/digests.py 045ec7f --seeds 1 2 3

Each run takes one untimed round, so the gate lasts about a minute.
"""

import argparse
import re
import subprocess
import sys

from checkout import ROOT, commit_src

WORKLOADS = ("table1-opt", "fig3-closed-form", "mc-check")


def digest(src, workload, seed):
    """SHA-256 of the rows.csv of one round of workload at seed, or the
    failure message."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--digest",
         "--workload", workload, "--seed", str(seed), "--src", str(src)],
        capture_output=True, text=True)
    found = re.search(r"rows\.csv sha256=(\w+)", run.stdout)
    if run.returncode or not found:
        return f"failed (exit {run.returncode})"
    return found.group(1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commit", help="commit to compare against")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(1, 11)))
    args = parser.parse_args(argv)

    with commit_src(args.commit) as old_src:
        mismatches = 0
        print(f"{'workload':<18}{'seed':>5}  {args.commit[:12]:<14}"
              f"{'working tree':<14}same")
        for workload in WORKLOADS:
            for seed in args.seeds:
                old = digest(old_src, workload, seed)
                new = digest(ROOT / "src", workload, seed)
                same = old == new and not old.startswith("failed")
                mismatches += not same
                print(f"{workload:<18}{seed:>5}  {old[:12]:<14}{new[:12]:<14}"
                      f"{'yes' if same else 'NO'}")
    total = len(WORKLOADS) * len(args.seeds)
    print(f"{total - mismatches} of {total} digests equal")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
