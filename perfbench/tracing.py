# perfbench/tracing.py
# Per-layer tracing for the traced run only. Each module's public functions
# are wrapped at the name their caller looks them up under, so the program
# itself is unchanged. A span records calls, time and self time (its time
# minus the child spans inside it); counts come from the returned objects.
# The timed run never installs these wrappers.

import functools
import importlib
import inspect
import time
from collections import defaultdict

from checks import check_trace

# (span name, module, attribute): the attribute may be "Class.method".
TARGETS = (
    ("scenario", "simcf.experiments", "generate_drop"),
    ("optimize.pilot", "simcf.experiments", "allocate_pilots"),
    ("optimize.beamforming", "simcf.experiments", "optimize_beamforming"),
    ("optimize.maxmin", "simcf.experiments", "maxmin_power"),
    ("montecarlo", "simcf.experiments", "uatf_monte_carlo"),
    ("pipeline.model", "simcf.pipeline", "NetworkModel.from_drop"),
    ("pipeline.terms", "simcf.pipeline", "NetworkModel.terms"),
    ("pipeline.states", "simcf.pipeline", "NetworkModel.states"),
    ("sim_physics.stack", "simcf.sim_physics", "build_diffraction_set"),
    ("sim_physics.cascade", "simcf.channel", "cascade_through_antennas"),
    ("channel", "simcf.pipeline", "build_channel_state"),
    ("estimation", "simcf.pipeline", "build_estimation_state"),
    ("se.terms", "simcf.se", "sinr_terms"),
    ("se.weights", "simcf.se", "decoder_weights"),
    ("se.sinr", "simcf.se", "sinr_from_weights"),
)


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls, self.total, self.self_time = 0, 0.0, 0.0


class Tracer:
    def __init__(self):
        self.spans = defaultdict(Span)
        self.counts = defaultdict(int)
        self.per_pitch = defaultdict(lambda: [0, 0])   # d_meta -> probes, accepts
        self.errors = []      # failed output checks seen in returned objects
        self.missing = []     # wrap targets or result fields not found
        self._open = []       # child time gathered by each open span
        self._installed = []  # (owner, attribute, original)

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = self._open.pop()
            if self._open:
                self._open[-1] += elapsed
            span = self.spans[name]
            span.calls += 1
            span.total += elapsed
            span.self_time += elapsed - child

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            self._observe(name, args, out)
            return out
        return traced

    def _observe(self, name, args, out):
        try:
            if name == "optimize.beamforming":
                trace = out[1]
                probes, accepts = len(trace) - 1, sum(r.accepted for r in trace)
                self.counts["probes"] += probes
                self.counts["accepts"] += accepts
                pitch = self.per_pitch[args[0].cfg.d_meta]
                pitch[0] += probes
                pitch[1] += accepts
                self.errors += check_trace(trace)
            elif name == "optimize.maxmin":
                self.counts["maxmin_iterations"] += out.iterations
            elif name == "montecarlo":
                self.counts["mc_trials"] += out.n_trials
        except (AttributeError, IndexError, TypeError) as exc:
            note = f"result of {name}: {exc}"
            if note not in self.missing:
                self.missing.append(note)

    def install(self):
        for name, module, path in TARGETS:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self):
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)


def layer_metrics(tracer, rounds):
    """Per-layer figures per traced round; every *_s figure is self time.
    Stack builds are counted over all traced rounds, since the stack cache
    lives as long as the process."""
    spans, counts = tracer.spans, tracer.counts

    def n(name):
        return spans[name].calls / rounds

    def s(name):
        return spans[name].self_time / rounds

    probes, trials = counts["probes"], counts["mc_trials"]
    bf_total = spans["optimize.beamforming"].total
    return {
        "scenario.drops": (n("scenario"), "count"),
        "scenario.busy_s": (s("scenario"), "s"),
        "sim_physics.stack_builds": (spans["sim_physics.stack"].calls, "count"),
        "sim_physics.cascades": (n("sim_physics.cascade"), "count"),
        "sim_physics.cascade_s": (s("sim_physics.cascade"), "s"),
        "pipeline.models": (n("pipeline.model"), "count"),
        "pipeline.model_s": (s("pipeline.model"), "s"),
        "pipeline.terms_calls": (n("pipeline.terms"), "count"),
        "pipeline.terms_s": (s("pipeline.terms"), "s"),
        "pipeline.states_calls": (n("pipeline.states"), "count"),
        "channel.states": (n("channel"), "count"),
        "channel.busy_s": (s("channel"), "s"),
        "estimation.states": (n("estimation"), "count"),
        "estimation.busy_s": (s("estimation"), "s"),
        "se.terms_calls": (n("se.terms"), "count"),
        "se.terms_s": (s("se.terms"), "s"),
        "se.weights_calls": (n("se.weights"), "count"),
        "se.weights_s": (s("se.weights"), "s"),
        "se.sinr_calls": (n("se.sinr"), "count"),
        "se.sinr_s": (s("se.sinr"), "s"),
        "optimize.pilot_s": (s("optimize.pilot"), "s"),
        "optimize.beamforming_s": (s("optimize.beamforming"), "s"),
        "optimize.probes": (probes / rounds, "count"),
        "optimize.accepts": (counts["accepts"] / rounds, "count"),
        "optimize.accept_ratio": (counts["accepts"] / probes if probes else 0.0,
                                  "ratio"),
        "optimize.probe_us": (1e6 * bf_total / probes if probes else 0.0, "us"),
        "optimize.maxmin_calls": (n("optimize.maxmin"), "count"),
        "optimize.maxmin_s": (s("optimize.maxmin"), "s"),
        "optimize.maxmin_iterations": (counts["maxmin_iterations"] / rounds,
                                       "count"),
        "montecarlo.runs": (n("montecarlo"), "count"),
        "montecarlo.trials": (trials / rounds, "count"),
        "montecarlo.busy_s": (s("montecarlo"), "s"),
        "montecarlo.us_per_trial": (
            1e6 * spans["montecarlo"].self_time / trials if trials else 0.0,
            "us"),
        "experiments.self_s": (s("experiments"), "s"),
        "experiments.csv_s": (s("experiments.csv"), "s"),
    }
