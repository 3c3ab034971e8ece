# simcf/experiments.py
# Sweep runner: seeded scenario batches over one sweep variable, optional
# phase optimization and power control per scheme, closed-form SE for both
# decoders, optional Monte-Carlo validation, and CSV emission (raw per-UE
# rows plus aggregates). Cells run serially in a fixed order. A drop that
# hits a typed numerical failure is logged and counted; any other exception
# aborts the run. Output is plain data; plotting is external.

import csv
import json
import logging
from dataclasses import dataclass, field, fields

import numpy as np

from . import se
from .config import ConfigError, SystemConfig
from .estimation import EstimationError
from .montecarlo import uatf_monte_carlo
from .optimize import (BeamformingConfig, allocate_pilots, maxmin_power,
                       optimize_beamforming)
from .pipeline import NetworkModel
from .scenario import ScenarioError, generate_drop
from .sim_physics import random_phase_tensor

log = logging.getLogger(__name__)

SWEEPABLE = ("L", "K", "U", "M", "N", "d_meta", "decoder", "scheme")
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
        if self.n_drops < 1:
            raise ExperimentError("n_drops must be >= 1")
        bad = set(self.schemes) - set(SCHEMES)
        if self.sweep != "scheme" and bad:
            raise ExperimentError(f"unknown schemes: {sorted(bad)}")

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
        if self.sweep in ("L", "K", "U", "M", "N"):
            params[self.sweep] = int(value)
        elif self.sweep == "d_meta":
            params["d_meta"] = float(value)
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


def _drop_seed(spec, drop_index, purpose):
    # Purposes: 0 drop geometry, 1 initial phases, 2 optimizer permutation.
    # Value-independent so sweeps share random numbers where shapes allow.
    return [spec.seed, drop_index, purpose]


def _run_cell(spec, value_index, value):
    """All rows for one (sweep value, all drops) cell of the grid."""
    cfg = spec.config_for(value)
    schemes = spec.schemes_for(value)
    decoders = spec.decoders_for(value)
    need_opt = any(s.startswith("opt") for s in schemes)
    bf_cfg = BeamformingConfig(**spec.beamforming)
    rows = []
    failures = 0
    for d in range(spec.n_drops):
        try:
            rows.extend(_run_drop(spec, cfg, value, value_index, d, schemes,
                                  decoders, need_opt, bf_cfg))
        except (EstimationError, se.SinrComputationError, ScenarioError,
                np.linalg.LinAlgError):
            failures += 1
            log.exception("drop %d at value %r failed; skipping", d, value)
    return rows, failures


def _run_drop(spec, cfg, value, value_index, d, schemes, decoders, need_opt,
              bf_cfg):
    drop = generate_drop(cfg, _drop_seed(spec, d, 0))
    pilots = allocate_pilots(drop)
    model = NetworkModel.from_drop(drop)
    rand_phases = random_phase_tensor(cfg.L, cfg.M, cfg.N,
                                      _drop_seed(spec, d, 1))
    phase_sets = {"rand": rand_phases}
    if need_opt:
        opt_phases, _ = optimize_beamforming(
            model, pilots.pilot_of, rand_phases, bf_cfg,
            rng=np.random.default_rng(_drop_seed(spec, d, 2)))
        phase_sets["opt"] = opt_phases

    p_hat = cfg.pilot_powers()
    # Closed form of every (scheme, decoder) setting in row order. Terms
    # (and, with Monte-Carlo on, the states they come from) are built once
    # per phase kind and shared by its schemes.
    kinds, settings = {}, []
    for scheme in schemes:
        phase_kind, power_kind = scheme.split("-")
        if phase_kind not in kinds:
            phases = phase_sets[phase_kind]
            if spec.n_mc_trials > 0:
                states = model.states(phases, pilots.pilot_of)
                terms = model.terms_from(*states, pilots.pilot_of)
            else:
                states, terms = None, model.terms(phases, pilots.pilot_of)
            kinds[phase_kind] = (terms, states)
        terms = kinds[phase_kind][0]
        for decoder in decoders:
            weights = se.decoder_weights(terms, decoder, drop.p, p_hat,
                                         cfg.tau_p, cfg.sigma2)
            if power_kind == "maxmin":
                sol = maxmin_power(terms, weights, cfg.p_max, p_hat,
                                   cfg.tau_p, cfg.sigma2, eps=spec.maxmin_eps)
                p = sol.p
            else:
                p = drop.p
            gamma = se.sinr_from_weights(terms, weights, p, p_hat,
                                         cfg.tau_p, cfg.sigma2)
            settings.append((phase_kind, scheme, decoder, weights, p, gamma))

    # One Monte-Carlo sampling pass per phase kind serves all its settings.
    mc_cols = [[(MISSING, MISSING)] * cfg.K] * len(settings)
    for phase_kind, (_, states) in kinds.items():
        if states is None:
            continue
        mine = [i for i, s in enumerate(settings) if s[0] == phase_kind]
        weights = np.stack([settings[i][3] for i in mine])
        p = np.stack([settings[i][4] for i in mine])
        mc = uatf_monte_carlo(
            *states, pilots.pilot_of, p, p_hat, cfg.tau_p, cfg.sigma2,
            weights, spec.n_mc_trials,
            rng=np.random.default_rng([spec.seed, value_index, d, 3]))
        for i, g, e in zip(mine, mc.gamma, mc.stderr):
            mc_cols[i] = [(float(a), float(b)) for a, b in zip(g, e)]

    rows = []
    for (_, scheme, decoder, _, _, gamma), cols in zip(settings, mc_cols):
        se_vals = se.se_from_sinr(gamma, cfg.tau_c, cfg.tau_p)
        for k in range(cfg.K):
            rows.append((spec.sweep, value, d, k, decoder, scheme,
                         float(gamma[k]), float(se_vals[k]), *cols[k]))
    return rows


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute the sweep, one (sweep value, drops) cell after another."""
    rows = []
    failures = 0
    for value_index, value in enumerate(spec.values):
        cell_rows, cell_failures = _run_cell(spec, value_index, value)
        rows.extend(cell_rows)
        failures += cell_failures
    aggregates = aggregate_rows(spec, rows)
    return ExperimentResult(spec=spec, rows=rows, aggregates=aggregates,
                            failures=failures)


def aggregate_rows(spec, rows):
    """Pool per-UE SE across drops per (value, decoder, scheme)."""
    groups = {}
    for row in rows:
        key = (row[1], row[4], row[5])
        groups.setdefault(key, []).append(row[7])
    out = []
    for value in spec.values:
        for (v, decoder, scheme), samples in sorted(
                groups.items(), key=lambda kv: (str(kv[0][0]), kv[0][1], kv[0][2])):
            if v != value:
                continue
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
        return "nan" if np.isnan(x) else f"{x:.10g}"
    return str(x)


def write_result_csv(result: ExperimentResult, out_dir):
    """Write rows.csv and aggregates.csv; byte-stable for a fixed spec+seed."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, "rows.csv")
    agg_path = os.path.join(out_dir, "aggregates.csv")
    ordered = sorted(result.rows,
                     key=lambda r: (str(r[1]), r[2], r[5], r[4], r[3]))
    with open(rows_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROWS_HEADER)
        for row in ordered:
            writer.writerow([_fmt(x) for x in row])
    with open(agg_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGG_HEADER)
        for agg in result.aggregates:
            writer.writerow([_fmt(x) for x in
                             (result.spec.sweep, agg.value, agg.decoder,
                              agg.scheme, agg.se_samples.size, agg.mean_se,
                              agg.stderr, agg.likely95)])
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
