# perfbench/workloads.py
# The benchmark's workloads: one ExperimentSpec per name, built from the
# run's seed through the public spec API only.

import dataclasses

from simcf import ExperimentSpec, fig3_spec, table1_spec


def table1_opt(seed):
    """Table I pitch sweep with the phase optimizer, one drop per value."""
    return table1_spec(seed=seed, n_drops=1)


def fig3_closed_form(seed):
    """Fig. 3 AP-count sweep, closed form only, random phases."""
    return dataclasses.replace(fig3_spec(seed=seed, n_drops=20),
                               schemes=("rand-full", "rand-maxmin"))


def mc_check(seed):
    """Paper defaults with the Monte-Carlo oracle on every row."""
    return ExperimentSpec(
        sweep="L", values=(10,), n_drops=1, n_mc_trials=20_000, seed=seed,
        schemes=("rand-full", "rand-maxmin"),
        base=dict(K=5, U=2, M=5, N=64))


WORKLOADS = {
    "table1-opt": table1_opt,
    "fig3-closed-form": fig3_closed_form,
    "mc-check": mc_check,
}


def build(name, seed):
    return WORKLOADS[name](seed)
