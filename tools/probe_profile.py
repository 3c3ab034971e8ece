#!/usr/bin/env python3
"""Probe-block profile: the per-stage cost of one block of the phase search.

Runs the phase search of `table1-opt` (perfbench's workload: the four
pitch networks of drop 0 of `table1_spec(seed=S, n_drops=1)`, searched
together from the drop's random phases) and prints, per probe block, the
microseconds of each stage of the probe chain:

    cascade               channel.block_cascade_coeffs
    block statistics      the rest of pipeline.block_channel_state
    block parts           se.block_factors and se.factor_parts
    sinr + se             SumSeObjective._sum_se
    commit                SumSeObjective._commit
    improve               SumSeObjective.improve, the whole block

Each stage is timed by a wrapper around the function, counting only the
calls made inside improve; the whole improve is timed in a second search
with no other wrapper, so its figure carries one wrapper's overhead only.
It also prints the "one probe block" figure: SumSeObjective.probe of 15
probes in each of the four networks, the min of 7 x 300 calls. Every
repetition runs in its own process with BLAS on one thread; each figure is
the min over the repetitions, printed beside the max, so that a stage's
spread between repetitions shows. With a commit, the commit's src/ (a
`git archive`, tools/checkout.py) runs too, the two sides alternating
which goes first, and a last column gives the ratio of the two mins:

    python3 tools/probe_profile.py --seed 1
    python3 tools/probe_profile.py 0e4f7bb --seed 1 --reps 10
"""

import argparse
import json
import os
import subprocess
import sys
import time

from checkout import ROOT, commit_src

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# (label, module, attribute) of each timed stage, in chain order. A label
# listed more than once adds the times of its functions; "block parts"
# lists those of the chain before the closed-form block kernel as well
# (estimation state, terms, parts), so that a commit of that chain is split
# into the same stages. A function missing from a tree adds nothing, and a
# stage with none of its functions prints n/a.
STAGES = (
    ("cascade", "simcf.channel", "block_cascade_coeffs"),
    ("block statistics", "simcf.pipeline", "block_channel_state"),
    ("block parts", "simcf.se", "block_factors"),
    ("block parts", "simcf.se", "factor_parts"),
    ("block parts", "simcf.pipeline", "build_estimation_state"),
    ("block parts", "simcf.se", "sinr_terms"),
    ("block parts", "simcf.optimize", "SumSeObjective._parts"),
    ("sinr + se", "simcf.optimize", "SumSeObjective._sum_se"),
    ("commit", "simcf.optimize", "SumSeObjective._commit"),
)
IMPROVE = ("improve", "simcf.optimize", "SumSeObjective.improve")
PROBE_CALLS, PROBE_REPEATS = 300, 7


def _search_inputs(seed):
    """(models, start phases, beamforming config, permutation seed) of the
    phase search of table1-opt at seed, as the sweep builds them."""
    import numpy as np
    from simcf import NetworkModel, allocate_pilots, table1_spec
    from simcf.optimize import BeamformingConfig
    from simcf.scenario import generate_drop
    from simcf.sim_physics import random_phase_tensor

    spec = table1_spec(seed=seed, n_drops=1)
    models, phases = [], []
    for value in spec.values:
        cfg = spec.config_for(value)
        drop = generate_drop(cfg, [[seed, 0, 0]])
        models.append(NetworkModel.from_drop(drop, allocate_pilots(drop))
                      .at(0))
        phases.append(random_phase_tensor(cfg.L, cfg.M, cfg.N, [seed, 0, 1]))
    return (models, np.stack(phases), BeamformingConfig(**spec.beamforming),
            [seed, 0, 2])


def _owner(module, attribute):
    import importlib
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class _Timers:
    """Wrappers that add each stage's time, inside improve, to totals."""

    def __init__(self, stages):
        self.totals = {}
        self.inside = False
        self._installed = []
        for label, module, attribute in stages:
            try:
                owner, name = _owner(module, attribute)
                real = getattr(owner, name)
            except AttributeError:
                continue
            self.totals[label] = 0.0
            self._installed.append((owner, name, real))
            setattr(owner, name, self._wrap(label, real))

    def _wrap(self, label, real):
        totals, clock = self.totals, time.perf_counter

        def timed(*args, **kwargs):
            if label == "improve":
                self.inside = True
            elif not self.inside:
                return real(*args, **kwargs)
            start = clock()
            try:
                return real(*args, **kwargs)
            finally:
                totals[label] += clock() - start
                if label == "improve":
                    self.inside = False
        return timed

    def remove(self):
        for owner, name, real in reversed(self._installed):
            setattr(owner, name, real)


def _search(inputs, stages):
    """{stage label: total seconds} of one search timed by stages, and its
    probe blocks per network."""
    import numpy as np
    from simcf.optimize import optimize_beamforming
    models, phases, cfg, rng_seed = inputs
    timers = _Timers((*stages, IMPROVE))
    try:
        optimize_beamforming(models, phases, cfg,
                             rng=np.random.default_rng(rng_seed))
    finally:
        timers.remove()
    blocks = cfg.sweeps * phases.shape[1] * -(-phases.shape[2]
                                             * phases.shape[3]
                                             // cfg.block_size)
    return timers.totals, blocks


def _probe_ms(inputs):
    """Min over PROBE_REPEATS of PROBE_CALLS calls of SumSeObjective.probe
    (AP 0, the search's first block), ms per call."""
    import numpy as np
    from simcf.optimize import SumSeObjective
    models, phases, cfg, rng_seed = inputs
    obj = SumSeObjective(models, decoder=cfg.decoder)
    obj.set_phases(phases)
    n_layers, n_atoms = phases.shape[-2:]
    block = np.random.default_rng(rng_seed).permutation(
        n_layers * n_atoms)[:cfg.block_size]
    rows, cols = np.unravel_index(block, (n_layers, n_atoms))
    steps = np.arange(1, cfg.max_probes + 1) * cfg.step_size
    best = np.inf
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            obj.probe(0, rows, cols, steps)
        best = min(best, (time.perf_counter() - start) / PROBE_CALLS)
    return 1e3 * best


def measure(seed):
    """One repetition in this process: {label: us per block} and the probe
    figure in ms."""
    inputs = _search_inputs(seed)
    probe_ms = _probe_ms(inputs)
    stages, blocks = _search(inputs, STAGES)
    improve, _ = _search(inputs, ())
    per_block = {label: 1e6 * total / blocks for label, total in
                 stages.items() if label != "improve"}
    per_block["block statistics"] -= per_block["cascade"]
    per_block["improve"] = 1e6 * improve["improve"] / blocks
    return {"per_block": per_block, "probe_ms": probe_ms, "blocks": blocks}


def run_child(src, seed):
    """measure() in a child process on src with BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=str(src),
               **{var: "1" for var in BLAS_THREAD_VARS})
    run = subprocess.run([sys.executable, __file__, "--child", "--seed",
                          str(seed)], env=env, capture_output=True, text=True)
    if run.returncode:
        sys.exit(f"probe_profile: run on {src} exited {run.returncode}:\n"
                 f"{run.stderr[-2000:]}")
    return json.loads(run.stdout.strip().splitlines()[-1])


def report(sides, reps):
    """Print the min and the max over reps of each stage per side, and the
    ratio of the last side's min to the first's when there are two."""
    names = list(sides)
    labels = list(dict.fromkeys(label for label, _, _ in STAGES))
    labels += ["improve", "probe block"]
    spread = {}
    for name, runs in sides.items():
        figures = [dict(r["per_block"], **{"probe block": r["probe_ms"]})
                   for r in runs]
        spread[name] = {label: (min(f[label] for f in figures),
                                max(f[label] for f in figures))
                        for label in figures[0]}
    blocks = sides[names[0]][0]["blocks"]
    print(f"table1-opt search, {blocks} probe blocks per network, min and "
          f"max of {reps} repetition(s), BLAS on one thread")
    print(f"{'stage (us per block)':<24}"
          + "".join(f"{name:>16}{'max':>10}" for name in names)
          + ("   ratio" if len(names) == 2 else ""))
    for label in labels:
        unit = " (ms)" if label == "probe block" else ""
        values = [spread[name].get(label) for name in names]
        ratio = (f"   {values[1][0] / values[0][0]:.3f}"
                 if len(values) == 2 and all(values) and values[0][0] else "")
        print(f"{label + unit:<24}"
              + "".join(f"{'n/a':>16}{'':>10}" if v is None
                        else f"{v[0]:>16.4g}{v[1]:>10.4g}" for v in values)
              + ratio)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commit", nargs="?",
                        help="commit whose src/ is timed beside this tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=10,
                        help="repetitions per side (default 10)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.seed)))
        return 0
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    def profile(srcs):
        sides = {name: [] for name in srcs}
        for rep in range(args.reps):
            order = list(srcs) if rep % 2 == 0 else list(srcs)[::-1]
            for name in order:
                sides[name].append(run_child(srcs[name], args.seed))
        report(sides, args.reps)

    if args.commit is None:
        profile({"working tree": ROOT / "src"})
    else:
        with commit_src(args.commit) as old_src:
            profile({args.commit[:12]: old_src, "working tree": ROOT / "src"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
