# Test-only reference implementations, kept as oracles for the batched
# engine in simcf:
# - per-link channel statistics: steering_vector, SimUeChannelStats,
#   sim_ue_stats, EffectiveChannelStats, effective_stats and the stack-side
#   sampler sample_channel
# - cascade: the full wave-domain matrix of one stack
# - per-link MMSE statistics: EstimationStats, estimation_stats
# - sinr_lsfd: the optimal SINR as the quadratic form p z^H b^-1 z
# - sinr_coefficients_loop: the per-UE power-control coefficients
# - the term audit: predicted_cross_moments against cross_moment_estimates
# - the per-AP, per-probe and per-setting loops that the batched channel
#   build, phase search and Monte-Carlo pass replace
# Tests compare the batched code against these, exactly where both run the
# same arithmetic and within a tolerance where they do not.

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from simcf import se
from simcf.channel import ChannelState
from simcf.estimation import EstimationError
from simcf.experiments import MISSING, _drop_seed
from simcf.montecarlo import (_combined_products, _TrialSampler,
                              uatf_monte_carlo)
from simcf.optimize import (BeamformingConfig, TraceRow, _SinrCoefficients,
                            allocate_pilots, maxmin_power,
                            optimize_beamforming)
from simcf.pipeline import NetworkModel
from simcf.scenario import generate_drop, psd_sqrt
from simcf.sim_physics import (cascade_through_antennas, random_phase_tensor,
                               wrap_phases)


def steering_vector(points, direction, wavelength):
    """Unit-modulus planar-wavefront response of a point set.

    Phase of entry n is 2 pi / lambda times the propagation advance of point
    n relative to the set centroid for a plane wave arriving from
    `direction` (unit vector pointing from the set toward the source).
    """
    pts = np.asarray(points)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    advance = (pts - pts.mean(axis=0)) @ direction
    return np.exp(1j * 2.0 * np.pi * advance / wavelength)


@dataclass(frozen=True)
class SimUeChannelStats:
    """Rician statistics of one stack-output-to-UE link (N-dimensional)."""
    h_bar_sim: np.ndarray   # (N,) deterministic LoS component
    r_sim: np.ndarray       # (N, N) NLoS covariance

    def sqrt_factor(self):
        return psd_sqrt(self.r_sim)


def sim_ue_stats(output_grid, direction, beta_los, beta_nlos, base_corr,
                 wavelength) -> "SimUeChannelStats":
    """Per-link stack-output statistics from geometry and large-scale gains."""
    h_bar = np.sqrt(beta_los) * steering_vector(output_grid, direction, wavelength)
    return SimUeChannelStats(h_bar_sim=h_bar, r_sim=beta_nlos * base_corr)


@dataclass(frozen=True)
class EffectiveChannelStats:
    """Antenna-domain statistics after propagation through the stack."""
    h_bar: np.ndarray   # (U,) mean channel
    r_eff: np.ndarray   # (U, U) NLoS covariance


def effective_stats(w_first, g, stats: SimUeChannelStats) -> EffectiveChannelStats:
    """Project stack-output statistics to the antenna domain.

    h_bar = w_first^H g^H h_bar_sim and r_eff = w_first^H g^H r_sim g w_first.
    """
    t = g @ w_first                     # (N, U)
    h_bar = t.conj().T @ stats.h_bar_sim
    r_eff = t.conj().T @ stats.r_sim @ t
    r_eff = 0.5 * (r_eff + r_eff.conj().T)
    return EffectiveChannelStats(h_bar=h_bar, r_eff=r_eff)


def sample_channel(stats: SimUeChannelStats, rng, size=None, sqrt_factor=None):
    """Draw stack-output channel realizations.

    Each draw is h_bar_sim * exp(j phi) + r_sim^(1/2) z with phi uniform on
    [-pi, pi) per draw and z standard circular complex Gaussian.
    Returns (N,) for size None, else (size, N).
    """
    rng = np.random.default_rng(rng)
    n = stats.h_bar_sim.shape[0]
    if sqrt_factor is None:
        sqrt_factor = stats.sqrt_factor()
    m = 1 if size is None else int(size)
    phi = rng.uniform(-np.pi, np.pi, size=m)
    z = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
    h = np.exp(1j * phi)[:, None] * stats.h_bar_sim[None, :] + z @ sqrt_factor.T
    return h[0] if size is None else h


def cascade(dset, phases):
    """Wave-domain beamforming matrix of one stack for given phases (M, N).

    Product Phi_M W_M ... Phi_2 W_2 Phi_1; the antenna coupling w_first is
    applied separately. For a single layer this is just diag(exp(j phi_1)).
    """
    phases = np.asarray(phases)
    if phases.shape != (dset.n_layers, dset.w_first.shape[0]):
        raise ValueError(f"phase array must be (M, N), got {phases.shape}")
    shifts = np.exp(1j * phases)
    g = np.diag(shifts[0])
    for m in range(1, dset.n_layers):
        g = shifts[m][:, None] * (dset.w_layer[m - 1] @ g)
    return g


@dataclass(frozen=True)
class EstimationStats:
    """MMSE second-order quantities of one (AP, UE) link.

    psi is the covariance of the despread pilot observation divided by
    tau_p, omega the core matrix whose scaled trace gives the estimate
    covariance, err_cov the estimation error covariance. The exact identity
    pilot_power * tau_p * omega + err_cov = r holds by construction.
    """
    psi: np.ndarray       # (U, U) Hermitian positive definite
    omega: np.ndarray     # (U, U) Hermitian PSD
    err_cov: np.ndarray   # (U, U) Hermitian PSD


def estimation_stats(r, copilot_r, copilot_p_hat, p_hat_k, tau_p, sigma2):
    """Second-order MMSE statistics for one link.

    r: (U, U) covariance of the target UE at this AP. copilot_r: iterable of
    covariances of every UE sharing the pilot (the target included).
    """
    r = np.asarray(r)
    u = r.shape[0]
    psi = sigma2 * np.eye(u, dtype=complex)
    for p_j, r_j in zip(copilot_p_hat, copilot_r, strict=True):
        psi = psi + p_j * tau_p * np.asarray(r_j)
    try:
        omega = r @ scipy.linalg.solve(psi, r, assume_a="pos")
    except np.linalg.LinAlgError as exc:  # sigma2 = 0 with rank-deficient r
        raise EstimationError(f"pilot covariance is singular: {exc}") from exc
    omega = 0.5 * (omega + omega.conj().T)
    err_cov = r - p_hat_k * tau_p * omega
    return EstimationStats(psi=psi, omega=omega, err_cov=err_cov)


def sinr_lsfd(terms, p, p_hat, tau_p, sigma2):
    """(sinr, weights) under optimal weighting; sinr_k = p_k z^H b^-1 z."""
    weights = se.lsfd_weights(terms, p, p_hat, tau_p, sigma2)
    p = np.asarray(p, dtype=float)
    gamma = np.array([
        p[k] * float(np.real(terms.z[k] @ weights[k]))
        for k in range(terms.n_ues)
    ])
    if np.any(gamma < -1e-12):
        raise se.SinrComputationError(f"negative quadratic-form SINR: {gamma}")
    return np.clip(gamma, 0.0, None), weights


def sinr_coefficients_loop(terms, weights, p_hat, tau_p, sigma2):
    """Power-control coefficients built one UE and one co-pilot at a time."""
    p_hat = np.asarray(p_hat, dtype=float)
    k_ues = terms.n_ues
    signal = np.zeros(k_ues)
    d = np.zeros((k_ues, k_ues))
    noise = np.zeros(k_ues)
    mask = terms.copilot_mask()
    for k in range(k_ues):
        a = weights[k]
        aa = np.abs(a) ** 2
        signal[k] = np.abs(a.conj() @ terms.z[k]) ** 2
        d[k] = terms.xi[k] @ aa
        for j in np.flatnonzero(mask[k]):
            coeff = p_hat[k] * p_hat[j] * tau_p ** 2
            d[k, j] += coeff * np.abs(a.conj() @ terms.delta[k, j]) ** 2
        d[k, k] -= float(aa @ terms.lam[k] ** 2)
        noise[k] = sigma2 * float(aa @ terms.z[k])
    return _SinrCoefficients(signal=signal, d=d, noise=noise)


def predicted_cross_moments(terms, p_hat, tau_p):
    """Closed-form second moments of the combined interference terms.

    Entry [k, j, l, l'] predicts E{x_l conj(x_l')} with
    x_l = (estimate of UE k at AP l)^H (channel of UE j at AP l). Used to
    audit every term family against Monte-Carlo estimates case by case.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    n_ue, n_ap = terms.z.shape
    out = np.zeros((n_ue, n_ue, n_ap, n_ap), dtype=complex)
    for k in range(n_ue):
        for j in range(n_ue):
            if j == k:
                m = np.outer(terms.z[k], terms.z[k]).astype(complex)
                np.fill_diagonal(m, terms.xi[k, k] + terms.z[k] ** 2
                                 - terms.lam[k] ** 2)
            elif terms.pilot_of[j] == terms.pilot_of[k]:
                coeff = p_hat[k] * p_hat[j] * tau_p ** 2
                d = terms.delta[k, j]
                m = coeff * np.outer(d, d.conj())
                m[np.diag_indices(n_ap)] = terms.xi[k, j] \
                    + coeff * np.abs(d) ** 2
            else:
                m = np.diag(terms.xi[k, j].astype(complex))
            out[k, j] = m
    return out


@dataclass(frozen=True)
class CrossMomentEstimate:
    """Sample moments of the combined interference terms.

    moment[k, j, l, l'] estimates E{x_l conj(x_l')} with x_l the product of
    (estimate of UE k at AP l)^H and (channel of UE j at AP l); stderr_re /
    stderr_im are the per-entry standard errors of its real and imaginary
    parts. mean_gain[k, l] estimates E{x_l} for j = k with stderr
    mean_gain_stderr (complex-component-wise).
    """
    moment: np.ndarray        # (K, K, L, L) complex
    stderr_re: np.ndarray     # (K, K, L, L)
    stderr_im: np.ndarray     # (K, K, L, L)
    mean_gain: np.ndarray     # (K, L) complex
    mean_gain_stderr: np.ndarray  # (K, L)
    n_trials: int


def cross_moment_estimates(state, est, pilot_of, p_hat, tau_p, sigma2,
                           n_trials, rng, batch=4096) -> CrossMomentEstimate:
    """Sample every pairwise interference moment for the term audit."""
    sampler = _TrialSampler(state, est, pilot_of, p_hat, tau_p, sigma2, rng)
    n_ap, n_ue, _ = sampler.shape
    acc = np.zeros((n_ue, n_ue, n_ap, n_ap), dtype=complex)
    acc2_re = np.zeros((n_ue, n_ue, n_ap, n_ap))
    acc2_im = np.zeros((n_ue, n_ue, n_ap, n_ap))
    acc_mean = np.zeros((n_ue, n_ap), dtype=complex)
    acc2_mean = np.zeros((n_ue, n_ap))
    done = 0
    idx = np.arange(n_ue)
    while done < n_trials:
        b = min(batch, n_trials - done)
        h, h_hat = sampler.draw(b)
        x = _combined_products(h, h_hat)
        prod = np.einsum("blkj,bmkj->bkjlm", x, x.conj())
        acc += prod.sum(axis=0)
        acc2_re += (prod.real ** 2).sum(axis=0)
        acc2_im += (prod.imag ** 2).sum(axis=0)
        own = np.transpose(x[:, :, idx, idx], (0, 2, 1))     # (b, K, L)
        acc_mean += own.sum(axis=0)
        acc2_mean += (np.abs(own) ** 2).sum(axis=0)
        done += b
    moment = acc / n_trials
    var_re = np.maximum(acc2_re / n_trials - moment.real ** 2, 0.0)
    var_im = np.maximum(acc2_im / n_trials - moment.imag ** 2, 0.0)
    mean_gain = acc_mean / n_trials
    var_mean = np.maximum(acc2_mean / n_trials - np.abs(mean_gain) ** 2, 0.0)
    return CrossMomentEstimate(
        moment=moment,
        stderr_re=np.sqrt(var_re / n_trials),
        stderr_im=np.sqrt(var_im / n_trials),
        mean_gain=mean_gain,
        mean_gain_stderr=np.sqrt(var_mean / n_trials),
        n_trials=n_trials,
    )


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
