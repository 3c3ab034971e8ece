# Test-only reference implementations: the straightforward per-AP,
# per-probe and per-setting loops that the batched engine replaces. Tests
# compare the batched code against these for exact equality.

from dataclasses import replace

import numpy as np

from simcf import se
from simcf.channel import ChannelState
from simcf.experiments import MISSING, _drop_seed
from simcf.montecarlo import uatf_monte_carlo
from simcf.optimize import (BeamformingConfig, TraceRow, allocate_pilots,
                            maxmin_power, optimize_beamforming)
from simcf.pipeline import NetworkModel
from simcf.scenario import generate_drop
from simcf.sim_physics import (cascade_through_antennas, random_phase_tensor,
                               wrap_phases)


def build_channel_state_loop(model, phases, ap_indices=None):
    """Effective statistics of a phase tensor (L, M, N), one AP at a time."""
    cfg, drop = model.cfg, model.drop
    aps = list(range(cfg.L)) if ap_indices is None else list(ap_indices)
    h_bar = np.zeros((len(aps), cfg.K, cfg.U), dtype=complex)
    s = np.zeros((len(aps), cfg.U, cfg.U), dtype=complex)
    for i, l in enumerate(aps):
        t = cascade_through_antennas(model.dset, phases[l])    # (N, U)
        proj = t.conj().T @ model.base_corr @ t
        s[i] = 0.5 * (proj + proj.conj().T)
        amp = np.sqrt(drop.beta_los[l])[:, None] * model.steering[l]
        h_bar[i] = amp @ t.conj()
    return ChannelState(h_bar=h_bar, s=s,
                        beta_nlos=drop.beta_nlos[aps, :].copy())


def terms_loop(model, phases, pilot_of, ap_indices=None):
    state = build_channel_state_loop(model, phases, ap_indices)
    est = model.estimation_state(state, pilot_of)
    return se.sinr_terms(state, est, pilot_of, model.cfg.pilot_powers(),
                         model.cfg.tau_p)


def replace_ap(terms, l, other):
    """terms with AP l's column taken from the single-AP terms other."""
    z, xi, delta, lam = (a.copy() for a in
                         (terms.z, terms.xi, terms.delta, terms.lam))
    z[:, l] = other.z[:, 0]
    xi[:, :, l] = other.xi[:, :, 0]
    delta[:, :, l] = other.delta[:, :, 0]
    lam[:, l] = other.lam[:, 0]
    return replace(terms, z=z, xi=xi, delta=delta, lam=lam)


class SerialObjective:
    """Closed-form sum SE, rebuilding one AP's terms per probe."""

    def __init__(self, model, pilot_of, p=None, decoder="lsfd"):
        self.model = model
        self.cfg = model.cfg
        self.pilot_of = np.asarray(pilot_of)
        self.p = model.drop.p if p is None else np.asarray(p, dtype=float)
        self.decoder = decoder
        self.p_hat = model.cfg.pilot_powers()

    def set_phases(self, phases):
        self.phases = np.array(phases, dtype=float)
        self.terms = terms_loop(self.model, self.phases, self.pilot_of)
        return self.value(self.terms)

    def value(self, terms):
        cfg = self.cfg
        weights = se.decoder_weights(terms, self.decoder, self.p, self.p_hat,
                                     cfg.tau_p, cfg.sigma2)
        gamma = se.sinr_from_weights(terms, weights, self.p, self.p_hat,
                                     cfg.tau_p, cfg.sigma2)
        return float(se.se_from_sinr(gamma, cfg.tau_c, cfg.tau_p).sum())

    def ap_terms(self, l, ap_phases):
        patched = self.phases.copy()
        patched[l] = ap_phases
        slice_terms = terms_loop(self.model, patched, self.pilot_of, [l])
        return replace_ap(self.terms, l, slice_terms), patched

    def try_ap(self, l, ap_phases):
        return self.value(self.ap_terms(l, ap_phases)[0])

    def commit_ap(self, l, ap_phases):
        self.terms, self.phases = self.ap_terms(l, ap_phases)


def optimize_beamforming_serial(model, pilot_of, init_phases, cfg, rng=None,
                                p=None):
    """Blockwise phase search evaluating one probe at a time."""
    rng = np.random.default_rng(rng)
    objective = SerialObjective(model, pilot_of, p=p, decoder=cfg.decoder)
    phases = wrap_phases(np.array(init_phases, dtype=float))
    best = objective.set_phases(phases)
    n_layers, n_atoms = phases.shape[1], phases.shape[2]
    trace = [TraceRow(0, best, False)]
    it = 0
    for _ in range(cfg.sweeps):
        for l in range(phases.shape[0]):
            order = rng.permutation(n_layers * n_atoms)
            for start in range(0, order.size, cfg.block_size):
                block = order[start:start + cfg.block_size]
                rows, cols = np.unravel_index(block, (n_layers, n_atoms))
                candidate = phases[l].copy()
                for probe in range(1, cfg.max_probes + 1):
                    candidate[rows, cols] = wrap_phases(
                        phases[l][rows, cols] + probe * cfg.step_size)
                    it += 1
                    gain = objective.try_ap(l, candidate) - best
                    if cfg.symmetric_probe and gain <= cfg.min_gain:
                        mirrored = phases[l].copy()
                        mirrored[rows, cols] = wrap_phases(
                            phases[l][rows, cols] - probe * cfg.step_size)
                        down = objective.try_ap(l, mirrored) - best
                        if down > gain:
                            candidate, gain = mirrored, down
                    if gain > cfg.min_gain:
                        phases[l] = candidate
                        objective.commit_ap(l, candidate)
                        best += gain
                        trace.append(TraceRow(it, best, True))
                        break
                    trace.append(TraceRow(it, best, False))
    return phases, trace


def run_drop_per_setting(spec, cfg, value, value_index, d, schemes, decoders,
                         need_opt, bf_cfg):
    """Rows of one drop with one Monte-Carlo run per (scheme, decoder)."""
    drop = generate_drop(cfg, _drop_seed(spec, d, 0))
    pilots = allocate_pilots(drop, metric=spec.pilot_metric)
    model = NetworkModel.from_drop(drop)
    rand_phases = random_phase_tensor(cfg.L, cfg.M, cfg.N,
                                      _drop_seed(spec, d, 1))
    phase_sets = {"rand": rand_phases}
    if need_opt:
        opt_phases, _ = optimize_beamforming(
            model, pilots.pilot_of, rand_phases, bf_cfg,
            rng=np.random.default_rng(_drop_seed(spec, d, 2)))
        phase_sets["opt"] = opt_phases

    rows = []
    p_hat = cfg.pilot_powers()
    for scheme in schemes:
        phase_kind, power_kind = scheme.split("-")
        terms = model.terms(phase_sets[phase_kind], pilots.pilot_of)
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
            se_vals = se.se_from_sinr(gamma, cfg.tau_c, cfg.tau_p)
            mc_cols = [(MISSING, MISSING)] * cfg.K
            if spec.n_mc_trials > 0:
                state, est = model.states(phase_sets[phase_kind],
                                          pilots.pilot_of)
                mc = uatf_monte_carlo(
                    state, est, pilots.pilot_of, p, p_hat, cfg.tau_p,
                    cfg.sigma2, weights, spec.n_mc_trials,
                    rng=np.random.default_rng([spec.seed, value_index, d, 3]))
                mc_cols = [(float(g), float(e))
                           for g, e in zip(mc.gamma, mc.stderr)]
            for k in range(cfg.K):
                rows.append((spec.sweep, value, d, k, decoder, scheme,
                             float(gamma[k]), float(se_vals[k]),
                             *mc_cols[k]))
    return rows


def run_experiment_rows_per_setting(spec):
    """Rows of the whole sweep, in run_experiment's order, from
    run_drop_per_setting."""
    rows = []
    for value_index, value in enumerate(spec.values):
        schemes = spec.schemes_for(value)
        for d in range(spec.n_drops):
            rows.extend(run_drop_per_setting(
                spec, spec.config_for(value), value, value_index, d, schemes,
                spec.decoders_for(value),
                any(s.startswith("opt") for s in schemes),
                BeamformingConfig(**spec.beamforming)))
    return rows
