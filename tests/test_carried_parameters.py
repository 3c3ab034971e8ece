# The pilot map (an assignment with its pilot powers and tau_p) is built
# once per network, by optimize.allocate_pilots, and the pipeline's
# NetworkModel carries it. It and sigma2 enter the statistics once, in
# estimation.build_estimation_state, and travel with the EstimationState and
# the SinrTerms built from it. A function that took one of those objects (or
# the models) and one of the values again could be handed a value the object
# was not built for, and would give a wrong SINR without an error. This
# check fails when such a parameter comes back.

import inspect

from simcf import estimation, montecarlo, optimize, pipeline, se

CARRIED = {"pilot_of", "p_hat", "tau_p", "sigma2"}
HOLDERS = {"terms", "est", "models"}


def functions_of(module):
    """(name, function) of every function and method that module defines,
    private ones included."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_holders_of_the_state_take_no_pilot_values():
    checked, found = set(), []
    for module in (se, estimation, montecarlo, optimize, pipeline):
        for name, func in functions_of(module):
            params = set(inspect.signature(func).parameters)
            if params & HOLDERS:
                checked.add(f"{module.__name__}.{name}")
                found += [f"{module.__name__}.{name}: {p}"
                          for p in sorted(params & CARRIED)]
    assert found == []
    # the scan reaches the functions it guards
    assert {"simcf.se.sinr_terms", "simcf.se.sinr_from_weights",
            "simcf.se._factors", "simcf.estimation.mmse_estimate",
            "simcf.montecarlo.uatf_monte_carlo",
            "simcf.montecarlo._TrialSampler.__init__",
            "simcf.se.sinr_coefficients",
            "simcf.optimize.optimize_beamforming",
            "simcf.optimize.SumSeObjective.__init__"} <= checked
