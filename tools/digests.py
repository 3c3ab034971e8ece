#!/usr/bin/env python3
"""Digest gate: the CSVs of the working tree against those of a commit.

Runs `perfbench/run.py --digest` on every benchmark workload and seed, once
with --src pointing at this tree's src/ and once at the src/ of a
`git archive` of the commit, and compares the SHA-256 of each round's
rows.csv. No benchmark workload runs a one-network phase search or an opt
scheme over several drops, and none runs U >= 3 antennas or a max-min
scheme beside an opt search, and none sweeps a string value, so the gate
also runs the CLI's `simcf table1 --drops 2`, `simcf fig3 --drops 3` and
`simcf run --spec` of a U sweep (U_SWEEP: U = 1-4) and of a scheme sweep
with Monte-Carlo columns (SCHEME_SWEEP; both specs written to a temporary
directory) at seeds 1-3 on each src and compares the SHA-256 of their
rows.csv and aggregates.csv. It always runs `simcf validate` (seed 0) on each src as
well and compares its three printed lines, so the closed-form-vs-Monte-Carlo
check must report the same worst |z| (and the other two checks the same
figures); the table shows each line's status and leading figure. It
prints one table and exits 1 on any mismatch. Its summary also gives `wc -l src/simcf/*.py` of both
trees, for information only (no gate):

    python3 tools/digests.py HEAD~1            # workload seeds 1-10
    python3 tools/digests.py 045ec7f --seeds 1 2 3

Each workload run takes one untimed round and each CLI run a few seconds,
so the gate lasts a minute or two.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from checkout import ROOT, commit_src

WORKLOADS = ("table1-opt", "fig3-closed-form", "mc-check")
# (label, CLI arguments): multi-drop runs of the opt-full scheme
CLI_RUNS = (("table1 --drops 2", ["table1", "--drops", "2"]),
            ("fig3 --drops 3", ["fig3", "--drops", "3"]))
CLI_SEEDS = (1, 2, 3)
# the spec of `simcf run --spec`: the U >= 3 path of the probe kernel and
# a max-min scheme beside an opt search, ~0.3 s per run
U_SWEEP = dict(sweep="U", values=[1, 2, 3, 4], n_drops=2,
               schemes=["rand-full", "opt-full", "rand-maxmin"],
               base=dict(L=6, K=5, M=3, N=16))
# a string-valued sweep whose rows carry Monte-Carlo columns, ~0.3 s per run
SCHEME_SWEEP = dict(sweep="scheme", values=["rand-full", "rand-maxmin"],
                    n_drops=2, n_mc_trials=200,
                    base=dict(L=4, K=3, U=2, M=2, N=4, tau_p=2))
# the checks `simcf validate` prints, one line each
VALIDATE_CHECKS = ("pilot-system-residual", "closed-form-vs-monte-carlo",
                   "decoder-dominance")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


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


def cli_digests(src, args, seed):
    """{file name: SHA-256} of the rows.csv and aggregates.csv of one
    `simcf` CLI run on src at seed, each the failure message on failure."""
    env = dict(os.environ, PYTHONPATH=str(src),
               **{var: "1" for var in BLAS_THREAD_VARS})
    with tempfile.TemporaryDirectory() as out:
        run = subprocess.run(
            [sys.executable, "-m", "simcf.cli", *args, "--seed", str(seed),
             "--out-dir", out], cwd=out, env=env, capture_output=True,
            text=True)
        return {name: (hashlib.sha256((Path(out) / name).read_bytes())
                       .hexdigest() if run.returncode == 0
                       else f"failed (exit {run.returncode})")
                for name in ("rows.csv", "aggregates.csv")}


def validate_lines(src):
    """{check name: printed line} of `simcf validate` (seed 0) on src; a
    check that printed no line maps to the failure message."""
    env = dict(os.environ, PYTHONPATH=str(src),
               **{var: "1" for var in BLAS_THREAD_VARS})
    run = subprocess.run([sys.executable, "-m", "simcf.cli", "validate"],
                         env=env, capture_output=True, text=True)
    lines = {m.group(1): m.group(0) for m in re.finditer(
        r"^(?:PASS|FAIL) ([\w-]+): .*$", run.stdout, re.M)}
    return {name: lines.get(name, f"failed (exit {run.returncode})")
            for name in VALIDATE_CHECKS}


def line_count(src):
    """Total lines of src/simcf/*.py, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (Path(src) / "simcf").glob("*.py"))


def _status_and_figure(line):
    """'PASS 2.09' of a validate line: its status and first figure."""
    figure = re.search(r": [^\d-]*(-?\d\S*)", line)
    return f"{line[:4]} {figure.group(1)}" if figure else line[:12]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commit", help="commit to compare against")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(1, 11)))
    args = parser.parse_args(argv)

    results = {"workload": [], "CLI": [], "validate": []}

    def report(kind, label, seed, old, new, shown=lambda x: x[:12]):
        same = old == new and not old.startswith("failed")
        results[kind].append(same)
        print(f"{label:<46}{seed:>5}  {shown(old):<16}{shown(new):<16}"
              f"{'yes' if same else 'NO'}")

    with commit_src(args.commit) as old_src, \
            tempfile.TemporaryDirectory() as tmp:
        cli_runs = list(CLI_RUNS)
        for name, sweep in (("u-sweep", U_SWEEP),
                            ("scheme-sweep", SCHEME_SWEEP)):
            spec = Path(tmp) / f"{name}.json"
            spec.write_text(json.dumps(sweep))
            cli_runs.append((f"run --spec {name}",
                             ["run", "--spec", str(spec)]))
        print(f"{'run':<46}{'seed':>5}  {args.commit[:12]:<16}"
              f"{'working tree':<16}same")
        for workload in WORKLOADS:
            for seed in args.seeds:
                report("workload", workload, seed,
                       digest(old_src, workload, seed),
                       digest(ROOT / "src", workload, seed))
        for label, cli_args in cli_runs:
            for seed in CLI_SEEDS:
                old = cli_digests(old_src, cli_args, seed)
                new = cli_digests(ROOT / "src", cli_args, seed)
                for name in old:
                    report("CLI", f"simcf {label} {name}", seed, old[name],
                           new[name])
        old, new = validate_lines(old_src), validate_lines(ROOT / "src")
        for name in VALIDATE_CHECKS:
            report("validate", f"validate {name}", 0, old[name],
                   new[name], shown=_status_and_figure)
        lines = line_count(old_src), line_count(ROOT / "src")
    for kind, same in results.items():
        what = "lines" if kind == "validate" else "digests"
        print(f"{sum(same)} of {len(same)} {kind} {what} equal")
    print(f"wc -l src/simcf/*.py: {lines[0]} at {args.commit[:12]}, "
          f"{lines[1]} in the working tree ({lines[1] - lines[0]:+d}; "
          f"information only)")
    return 0 if all(map(all, results.values())) else 1


if __name__ == "__main__":
    sys.exit(main())
