#!/usr/bin/env python3
"""Sweep benchmark for simcf.

Runs one workload's sweep (run_experiment + write_result_csv) back to back
in this one process for --seconds, checks every round's rows, and prints one
JSON object as the last line of stdout:

    python3 perfbench/run.py --workload table1-opt --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, their times
scaled to host speed by hostspeed.py; --trace 1 runs traced rounds with
every module wrapped, then untraced rounds, and reports the per-layer
metrics. --digest runs one untimed round and prints the
SHA-256 of its rows.csv; --src points it at another simcf source tree.
--self-test shows on a tiny sweep that every output check rejects rows
corrupted against it. The exit code is 1 when any check fails.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 11
# BLAS runs one thread. With the default two, an OpenBLAS helper thread is
# busy during fig3-closed-form, so its round time depends on whether the host
# lets a second core run: across ten seeds the median round was either
# ~0.63 s or ~0.85 s (quartile spread 0.29 of the median), against a steady
# ~0.91 s (spread 0.06) with one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One setup probe: a fresh interpreter imports simcf and builds the spec,
# then times the host-speed kernel on the same core.
PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.build(sys.argv[3], int(sys.argv[4])); print('ready', flush=True); "
         "import hostspeed; print(hostspeed.kernel_seconds())")


def import_simcf(src):
    """Import simcf from src and nowhere else; exit 1 when it is not there."""
    if not (src / "simcf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simcf package under {src}")
    sys.path.insert(0, str(src))
    import simcf
    if Path(simcf.__file__).resolve().parent != (src / "simcf").resolve():
        sys.exit(f"perfbench: simcf imported from {simcf.__file__}, not {src}")


def setup_seconds(src, workload, seed):
    """Median time from process start until simcf is imported and the
    workload's spec is built, over SETUP_PROBES fresh interpreters, each
    scaled by its host-speed kernel time; and the unscaled median."""
    import hostspeed

    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, "-c", PROBE, str(src), str(BENCH_DIR),
                 workload, str(seed)],
                stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
            kernel_s = child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"perfbench: setup probe failed (exit {child.returncode})")
        scaled.append(times[-1] * hostspeed.NOMINAL_S / float(kernel_s))
    return statistics.median(scaled), statistics.median(times)


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Rounds:
    """Back-to-back sweeps of one spec, each checked after it is timed."""

    def __init__(self, spec, out_dir):
        self.spec, self.out_dir = spec, out_dir
        self.cells = len(spec.values) * spec.n_drops
        self.sweep_s, self.cpu_s, self.digests = [], [], []
        self.scaled_s = []
        self.attempted = self.failed = 0
        self.errors = []
        self.rows = None

    def run(self, seconds, tracer=None, probe=None):
        """Whole rounds, at least one, while the next is expected to end
        within seconds; returns this call's sweep_s. With a host-speed
        probe, each round's time is also scaled into self.scaled_s."""
        from simcf import run_experiment, write_result_csv

        call = tracer.call if tracer else (lambda name, fn, *a: fn(*a))
        start, times = time.perf_counter(), []
        while not times or (time.perf_counter() - start
                             + statistics.fmean(times) <= seconds):
            if probe:
                probe.window()
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            result = call("experiments", run_experiment, self.spec)
            rows_path, _ = call("experiments.csv", write_result_csv, result,
                                self.out_dir)
            times.append(time.perf_counter() - t0)
            if probe:
                samples, stolen = probe.window()
                self.scaled_s.append((times[-1] - stolen)
                                     / probe.slowdown(samples))
            self.cpu_s.append(cpu_seconds() - cpu0)
            self.attempted += self.cells
            self.failed += result.failures
            self.rows = result.rows
            self.digests.append(digest(Path(rows_path)))
            for error in checks.check_rows(self.spec, result.rows, result.failures):
                if error not in self.errors:
                    self.errors.append(error)
        self.sweep_s += times
        return times


def se_gain_opt(rows):
    """Mean per-UE LSFD SE of opt-full minus that of rand-full (0 without)."""
    se = {"opt-full": [], "rand-full": []}
    for row in rows:
        if row[checks.DECODER] == "lsfd" and row[checks.SCHEME] in se:
            se[row[checks.SCHEME]].append(row[checks.SE])
    if not all(se.values()):
        return 0.0
    return statistics.fmean(se["opt-full"]) - statistics.fmean(se["rand-full"])


def peak_rss_mb():
    """Peak resident memory of this process plus its largest child, MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def traced_metrics(rounds, seconds):
    """Traced rounds, then untraced rounds with the wrappers removed."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = rounds.run(seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    cpu_start = len(rounds.cpu_s)
    untraced = rounds.run(seconds / 2.0)
    rounds.errors += tracer.errors
    for target in tracer.missing:
        print(f"perfbench: trace target missing: {target}")
    for pitch, (probes, accepts) in sorted(tracer.per_pitch.items(), reverse=True):
        print(f"perfbench: d_meta={pitch:.6g} probes={probes / len(traced):g} "
              f"accepts={accepts / len(traced):g} per round")
    metrics = tracing.layer_metrics(tracer, len(traced))
    untraced_s = statistics.median(untraced)
    trials = tracer.counts["mc_trials"] / len(traced)
    metrics.update({
        "montecarlo.trials_per_s": (trials / untraced_s, "trial/s"),
        "experiments.cells": (rounds.cells, "count"),
        "experiments.failed": (rounds.failed / len(rounds.sweep_s), "count"),
        "experiments.cpu_s": (statistics.median(rounds.cpu_s[cpu_start:]), "s"),
        "experiments.se_gain_opt": (se_gain_opt(rounds.rows), "bit/s/Hz"),
        "trace.overhead_s": (statistics.median(traced) - untraced_s, "s"),
    })
    return metrics


def end_to_end_metrics(rounds, seconds, src, workload, seed):
    import hostspeed

    with hostspeed.Probe() as probe:
        rounds.run(seconds, probe=probe)
    sweep_s = statistics.median(rounds.scaled_s)
    rss = peak_rss_mb()   # before the setup probes add children
    setup_s, setup_raw = setup_seconds(src, workload, seed)
    print(f"perfbench: raw sweep_s={statistics.median(rounds.sweep_s):.4f} "
          f"setup_s={setup_raw:.4f}")
    return {
        "setup_s": (setup_s, "s"),
        "sweep_s": (sweep_s, "s"),
        "drops_per_s": (rounds.cells / sweep_s, "cell/s"),
        "peak_rss_mb": (rss, "MiB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="fig3-closed-form")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    src = args.src.resolve()

    for var in BLAS_THREAD_VARS:   # before numpy loads; setup probes inherit it
        os.environ[var] = "1"
    import_simcf(src)
    import workloads

    if args.self_test:
        problems = checks.self_test()
        for problem in problems:
            print(f"perfbench: self-test: {problem}", file=sys.stderr)
        print("perfbench: self-test " + ("FAILED" if problems else "passed"))
        return 1 if problems else 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    spec = workloads.build(args.workload, args.seed)
    rounds = Rounds(spec, OUT_DIR / args.workload)
    if args.digest:
        rounds.run(0.0)
        metrics = {}
    elif args.trace:
        metrics = traced_metrics(rounds, args.seconds)
    else:
        metrics = end_to_end_metrics(rounds, args.seconds, src, args.workload,
                                     args.seed)
    rounds.errors += checks.check_digests(rounds.digests)

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"rounds={len(rounds.sweep_s)} cells/round={rounds.cells} "
          f"sweep_s={[round(t, 3) for t in rounds.sweep_s]}")
    if rounds.scaled_s:
        print(f"perfbench: host-speed scaled sweep_s="
              f"{[round(t, 3) for t in rounds.scaled_s]}")
    print(f"perfbench: rows.csv sha256={rounds.digests[0]}")
    for error in rounds.errors[:20]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not rounds.errors,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if rounds.errors else 0


if __name__ == "__main__":
    sys.exit(main())
