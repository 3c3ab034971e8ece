# simcf/experiments.py
# Sweep runner: seeded scenario batches over one sweep variable, optional
# phase optimization and power control per scheme, closed-form SE for both
# decoders, optional Monte-Carlo validation, and CSV emission (raw per-UE
# rows plus aggregates). A (sweep value, drop) cell takes its value's
# SystemConfig (built once per value) and derives the rest from the spec.
# The unit of work is a sweep value with all its drops, except in a pitch
# sweep, whose values share one phase search per drop (their searches visit
# the same blocks in the same order): there a unit is one drop's cells of
# every pitch. Inside a unit, the cells of one config form one batch: the
# whole closed-form chain (drops, pilots, model, states, terms, weights,
# SINR coefficients, max-min power) runs once with the drops on a leading
# axis, a single cell being a batch of one. Phase searches run per drop (a
# drop's pitches as one stacked NetworkModel) and Monte-Carlo per cell, on
# the drop's slice of the batch's states. Units run serially in a fixed
# order and the rows stay in (value, drop) order. A cell that hits a typed
# numerical failure is logged and counted (a failing unit of several cells
# first runs each of its cells alone); any other exception aborts the run.
# Every sweep value is checked when the spec is built. Output is plain
# data; plotting is external.

import collections
import itertools
import json
import logging
from dataclasses import dataclass, field, fields

import numpy as np

from . import se
from .config import ConfigError, SystemConfig, is_count
from .estimation import EstimationError
from .montecarlo import uatf_monte_carlo
from .optimize import (BeamformingConfig, allocate_pilots, maxmin_power,
                       optimize_beamforming)
from .pipeline import NetworkModel
from .scenario import ScenarioError, generate_drop
from .sim_physics import random_phase_tensor

log = logging.getLogger(__name__)

SWEEPABLE = ("L", "K", "U", "M", "N", "d_meta", "decoder", "scheme")
NUMERIC = ("L", "K", "U", "M", "N", "d_meta")   # sweeps of config fields
SCHEMES = ("rand-full", "opt-full", "rand-maxmin", "opt-maxmin")

ROWS_HEADER = ("sweep", "value", "drop", "ue", "decoder", "scheme",
               "sinr", "se", "mc_sinr", "mc_stderr")
# Value of mc_sinr/mc_stderr when no Monte-Carlo run was asked for. Every
# such row holds this one NaN object, so np.isnan is true for it and rows
# still compare equal by == (tuple == checks identity before ==).
MISSING = float("nan")
AGG_HEADER = ("sweep", "value", "decoder", "scheme", "n_samples",
              "mean_se", "stderr_mean_se", "likely95_se")


class ExperimentError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: variable, values, drops, schemes and seeding."""
    sweep: str
    values: tuple
    n_drops: int = 20
    n_mc_trials: int = 0           # 0 = closed-form only
    seed: int = 0
    schemes: tuple = ("rand-full",)
    base: dict = field(default_factory=dict)   # SystemConfig overrides
    fixed_total_atoms: int = None  # ties N to 1200/(L*M)-style budgets
    maxmin_eps: float = 1e-3
    beamforming: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if self.sweep not in SWEEPABLE:
            raise ExperimentError(f"sweep must be one of {SWEEPABLE}")
        if not self.values:
            raise ExperimentError("value list must be non-empty")
        if not is_count(self.n_drops) or self.n_drops < 1:
            raise ExperimentError("n_drops must be an integer >= 1")
        if not is_count(self.seed) or self.seed < 0:
            raise ExperimentError(f"seed must be an integer >= 0, got "
                                  f"{self.seed!r}")
        if (not is_count(self.n_mc_trials) or self.n_mc_trials < 0
                or self.n_mc_trials == 1):
            raise ExperimentError("n_mc_trials must be 0 (off) or an "
                                  "integer >= 2")
        if not 0 < self.maxmin_eps < np.inf:
            raise ExperimentError("need finite maxmin_eps > 0")
        # the atom budget sets N, so the N the rows print would not run
        if self.sweep == "N" and self.fixed_total_atoms is not None:
            raise ExperimentError("a sweep over N takes no fixed_total_atoms")
        try:
            BeamformingConfig(**self.beamforming)
        except (TypeError, ValueError) as exc:
            raise ExperimentError(f"bad beamforming settings: {exc}") from exc
        bad = set(self.schemes) - set(SCHEMES)
        if self.sweep != "scheme" and bad:
            raise ExperimentError(f"unknown schemes: {sorted(bad)}")
        # a numeric sweep keeps each value as the count or pitch that runs
        # (" 3\n" runs L=3, "1_0e-2" d_meta=0.1), so the rows print it
        ran = []
        for value in self.values:
            cfg = self.config_for(value)
            self.schemes_for(value)
            self.decoders_for(value)
            ran.append(getattr(cfg, self.sweep) if self.sweep in NUMERIC
                       else value)
        # equal values pool in one aggregate, and values _fmt prints alike
        # (0.075 and 0.07500000000001) write rows the CSVs cannot tell apart
        n = len(ran)
        if len(set(ran)) < n or len(set(map(_fmt, ran))) < n:
            raise ExperimentError(f"duplicate sweep values in {self.values!r}")
        object.__setattr__(self, "values", tuple(ran))

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ExperimentError(f"unknown spec keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def config_for(self, value):
        """SystemConfig for one sweep value."""
        params = dict(self.base)
        try:
            # int() and float() take True as 1; the rows would print the
            # value, not the count or pitch that ran
            if self.sweep in NUMERIC and isinstance(value, (bool, np.bool_)):
                raise ValueError("a bool is not a number")
            if self.sweep in ("L", "K", "U", "M", "N"):
                params[self.sweep] = count = int(value)
                # int() truncates 10.5
                if count != float(value):
                    raise ValueError("not an integer")
            elif self.sweep == "d_meta":
                params["d_meta"] = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ExperimentError(f"bad {self.sweep} value {value!r}: "
                                  f"{exc}") from exc
        if self.fixed_total_atoms is not None:
            probe = SystemConfig.from_dict({k: v for k, v in params.items()
                                            if k != "N"})
            total = self.fixed_total_atoms
            if total % (probe.L * probe.M):
                raise ExperimentError(
                    f"total atom budget {total} not divisible by L*M="
                    f"{probe.L * probe.M}")
            params["N"] = total // (probe.L * probe.M)
        try:
            return SystemConfig.from_dict(params)
        except ConfigError as exc:
            raise ExperimentError(f"bad config at value {value!r}: {exc}") from exc

    def schemes_for(self, value):
        if self.sweep == "scheme":
            if value not in SCHEMES:
                raise ExperimentError(f"unknown scheme value {value!r}")
            return (value,)
        return self.schemes

    def decoders_for(self, value):
        if self.sweep == "decoder":
            if value not in se.DECODERS:
                raise ExperimentError(f"unknown decoder value {value!r}")
            return (value,)
        return se.DECODERS


@dataclass(frozen=True)
class AggregateResult:
    value: object
    decoder: str
    scheme: str
    se_samples: np.ndarray   # pooled per-UE SE across drops
    mean_se: float
    stderr: float
    likely95: float


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    rows: list               # raw per-UE tuples, ROWS_HEADER order; unset
                             # mc_sinr/mc_stderr hold the shared MISSING NaN
    aggregates: list         # AggregateResult
    failures: int


# Numerical failures that make a cell fail; any other exception aborts the
# run.
_TYPED_FAILURES = (EstimationError, se.SinrComputationError, ScenarioError,
                   np.linalg.LinAlgError)


def _drop_seed(spec, drop_index, purpose):
    # Purposes: 0 drop geometry, 1 initial phases, 2 optimizer permutation.
    # Value-independent so sweeps share random numbers where shapes allow.
    return [spec.seed, drop_index, purpose]


def _setup(spec, cfg, drops):
    """(model, random phases) of the drops (indices) under cfg, as one
    batch on a leading drop axis; the model carries the drops and their
    pilot map."""
    drop = generate_drop(cfg, [_drop_seed(spec, d, 0) for d in drops])
    rand_phases = np.stack([random_phase_tensor(cfg.L, cfg.M, cfg.N,
                                                _drop_seed(spec, d, 1))
                            for d in drops])
    return NetworkModel.from_drop(drop, allocate_pilots(drop)), rand_phases


def _run_cells(spec, configs, cells):
    """{cell: rows} of the cells (value index, drop) of one unit of work
    (_groups): the cells of each config form one batch on a leading drop
    axis, the cells of each drop with an opt scheme are searched as one
    batch, and each batch evaluates the rows of its cells."""
    batches = {}
    for v, d in cells:
        batches.setdefault(v, []).append(d)
    setups = {v: _setup(spec, configs[v], drops)
              for v, drops in batches.items()}
    searches = {}
    for v, drops in batches.items():
        if any(s.startswith("opt") for s in spec.schemes_for(spec.values[v])):
            for i, d in enumerate(drops):
                searches.setdefault(d, []).append((v, i))
    opt_phases = {}
    for d, members in searches.items():
        found = optimize_beamforming(
            [setups[v][0].at(i) for v, i in members],
            np.stack([setups[v][1][i] for v, i in members]),
            BeamformingConfig(**spec.beamforming),
            rng=np.random.default_rng(_drop_seed(spec, d, 2)))
        for (v, i), (phases, _) in zip(members, found):
            opt_phases.setdefault(v, {})[i] = phases
    rows = {}
    for v, drops in batches.items():
        searched = opt_phases.get(v)
        rows.update(_batch_rows(
            spec, configs[v], v, drops, *setups[v],
            None if searched is None else np.stack(
                [searched[i] for i in range(len(drops))])))
    return rows


def _batch_rows(spec, cfg, value_index, drops, model, rand_phases,
                opt_phases):
    """{(value index, d): rows} of the cells of one sweep value whose
    drops d (drops) form a batch; cfg is spec.config_for(value), and the
    model and phases (D, L, M, N) carry the batch's leading drop axis
    (opt_phases is None when no scheme of the value needs them)."""
    value = spec.values[value_index]
    schemes = spec.schemes_for(value)
    decoders = spec.decoders_for(value)
    phase_sets = {"rand": rand_phases, "opt": opt_phases}
    full = np.broadcast_to(model.drop.p, (len(drops), cfg.K))

    # Closed form of every (scheme, decoder) setting in row order, each
    # array with the drop axis first. The states, their terms and each
    # decoder's weights and SINR coefficients are made once per phase kind
    # and shared by its schemes (every power vector's SINR comes from the
    # coefficients) and by its Monte-Carlo passes.
    kinds, settings = {}, []
    for scheme in schemes:
        phase_kind, power_kind = scheme.split("-")
        if phase_kind not in kinds:
            states = model.states(phase_sets[phase_kind])
            terms = se.sinr_terms(*states)
            decoded = {}
            for decoder in decoders:
                weights = se.decoder_weights(terms, decoder, model.drop.p)
                decoded[decoder] = (weights,
                                    se.sinr_coefficients(terms, weights))
            kinds[phase_kind] = (states, decoded)
        for decoder in decoders:
            weights, coeffs = kinds[phase_kind][1][decoder]
            if power_kind == "maxmin":
                p = np.stack([solution.p for solution in maxmin_power(
                    coeffs, cfg.p_max, eps=spec.maxmin_eps)])
            else:
                p = full
            settings.append((phase_kind, scheme, decoder, weights, p,
                             coeffs.sinr(p)))

    # One Monte-Carlo sampling pass per drop and phase kind serves all its
    # settings, on the drop's slice of the states: weights (decoders, K, L)
    # and powers (power kinds, decoders, K), so each decoder's features are
    # formed once for all its power vectors.
    mc_cols = {}
    for phase_kind, (states, decoded) in kinds.items():
        if spec.n_mc_trials == 0:
            break
        mine = [j for j, s in enumerate(settings) if s[0] == phase_kind]
        for i, d in enumerate(drops):
            mc = uatf_monte_carlo(
                *(state.at(i) for state in states),
                np.stack([settings[j][4][i] for j in mine]).reshape(
                    -1, len(decoders), cfg.K),
                np.stack([decoded[decoder][0][i] for decoder in decoders]),
                spec.n_mc_trials,
                rng=np.random.default_rng([spec.seed, value_index, d, 3]))
            for j, g, e in zip(mine, mc.gamma.reshape(-1, cfg.K),
                               mc.stderr.reshape(-1, cfg.K)):
                mc_cols[j, i] = list(zip(g.tolist(), e.tolist()))

    missing = [(MISSING, MISSING)] * cfg.K
    se_vals = [se.se_from_sinr(s[5], cfg.tau_c, cfg.tau_p) for s in settings]
    out = {}
    for i, d in enumerate(drops):
        rows = out[value_index, d] = []
        for j, (_, scheme, decoder, _, _, gamma) in enumerate(settings):
            cols = mc_cols.get((j, i), missing)
            for k, (g, e) in enumerate(zip(gamma[i].tolist(),
                                           se_vals[j][i].tolist())):
                rows.append((spec.sweep, value, d, k, decoder, scheme, g, e,
                             *cols[k]))
    return out


def _groups(spec, configs):
    """The cells (value index, drop) of the sweep as units of work. The
    values whose configs agree in every field but d_meta, and differ in
    d_meta (a pitch sweep), share one phase search per drop: each drop is
    one unit of their cells. Every other value is one unit of all its
    drops; equal configs (the values of a scheme or decoder sweep) are kept
    apart."""
    copies = collections.Counter()
    keys = {}
    for v, cfg in enumerate(configs):
        key = (tuple(getattr(cfg, f.name) for f in fields(cfg)
                     if f.name != "d_meta"), copies[cfg])
        copies[cfg] += 1
        keys.setdefault(key, []).append(v)
    units = []
    for values in keys.values():
        if len(values) > 1:
            units += [[(v, d) for v in values] for d in range(spec.n_drops)]
        else:
            units.append([(values[0], d) for d in range(spec.n_drops)])
    return units


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute the sweep, one unit of work (_groups) after another. When a
    typed failure escapes a unit of several cells, each of its cells runs
    again alone, so a cell fails or succeeds as it does on its own."""
    configs = [spec.config_for(value) for value in spec.values]
    done = {}
    failures = 0
    pending = _groups(spec, configs)
    while pending:
        cells = pending.pop(0)
        try:
            done.update(_run_cells(spec, configs, cells))
        except _TYPED_FAILURES:
            if len(cells) > 1:
                log.info("a unit of %d cells failed; running each alone",
                         len(cells))
                pending[:0] = [[cell] for cell in cells]
                continue
            failures += 1
            (v, d), = cells
            log.exception("drop %d at value %r failed; skipping", d,
                          spec.values[v])
    rows = [row for cell in itertools.product(range(len(spec.values)),
                                              range(spec.n_drops))
            for row in done.get(cell, ())]
    return ExperimentResult(spec=spec, rows=rows,
                            aggregates=aggregate_rows(spec, rows),
                            failures=failures)


def aggregate_rows(spec, rows):
    """Pool per-UE SE across drops per (value, decoder, scheme)."""
    groups = {}
    for row in rows:
        key = (row[1], row[4], row[5])
        groups.setdefault(key, []).append(row[7])
    out = []
    for (v, decoder, scheme), samples in sorted(
            groups.items(),
            key=lambda kv: (spec.values.index(kv[0][0]), kv[0][1], kv[0][2])):
        arr = np.asarray(samples)
        out.append(AggregateResult(
            value=v, decoder=decoder, scheme=scheme, se_samples=arr,
            mean_se=float(arr.mean()),
            stderr=float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0,
            likely95=float(np.percentile(arr, 5.0)),
        ))
    return out


def _fmt(x):
    if isinstance(x, float):
        return "nan" if x != x else f"{x:.10g}"   # only NaN differs from itself
    return str(x)


def write_result_csv(result: ExperimentResult, out_dir):
    """Write rows.csv and aggregates.csv; byte-stable for a fixed spec+seed.
    Each line is the one csv.writer writes for _fmt of the row's fields, in
    one format: no field needs quotes (names, schemes and decoders are
    checked by the spec, and a numeric sweep's values are numbers), the
    value goes through _fmt and floats print %.10g."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, "rows.csv")
    agg_path = os.path.join(out_dir, "aggregates.csv")
    ordered = sorted(result.rows,
                     key=lambda r: (str(r[1]), r[2], r[5], r[4], r[3]))
    rows = [f"{sweep},{_fmt(v)},{d},{k},{decoder},{scheme},{g:.10g},"
            f"{e:.10g},{mc:.10g},{mc_e:.10g}"
            for sweep, v, d, k, decoder, scheme, g, e, mc, mc_e in ordered]
    aggs = [f"{result.spec.sweep},{_fmt(a.value)},{a.decoder},{a.scheme},"
            f"{a.se_samples.size},{a.mean_se:.10g},{a.stderr:.10g},"
            f"{a.likely95:.10g}" for a in result.aggregates]
    for path, header, lines in ((rows_path, ROWS_HEADER, rows),
                                (agg_path, AGG_HEADER, aggs)):
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join((",".join(header), *lines, "")))
    return rows_path, agg_path


def table1_spec(seed=0, n_drops=20, wavelength=0.15):
    """Meta-atom pitch sweep {lambda, lambda/2, lambda/4, lambda/8}."""
    return ExperimentSpec(
        sweep="d_meta",
        values=[wavelength, wavelength / 2, wavelength / 4, wavelength / 8],
        n_drops=n_drops, seed=seed,
        schemes=("rand-full", "opt-full"),
        base=dict(L=10, K=5, U=2, M=5, N=64, wavelength=wavelength),
    )


def fig3_spec(seed=0, n_drops=20, total_atoms=1200):
    """AP-count sweep at a fixed total meta-atom budget."""
    return ExperimentSpec(
        sweep="L",
        values=[5, 10, 15, 20, 30, 40],
        n_drops=n_drops, seed=seed,
        schemes=("rand-full", "opt-full"),
        base=dict(K=5, U=1, M=5),
        fixed_total_atoms=total_atoms,
    )
