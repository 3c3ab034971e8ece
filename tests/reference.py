# Test-only reference implementations: the straightforward per-AP and
# per-probe loops that the batched engine replaces. Tests compare the
# batched code against these for exact equality.

from dataclasses import replace

import numpy as np

from simcf import se
from simcf.channel import ChannelState
from simcf.optimize import TraceRow
from simcf.sim_physics import cascade_through_antennas, wrap_phases


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
