# Test-only reference implementations, kept as oracles for the batched
# engine in simcf:
# - per-link channel statistics: steering_vector, SimUeChannelStats,
#   sim_ue_stats, EffectiveChannelStats, effective_stats and the stack-side
#   sampler sample_channel
# - cascade: the full wave-domain matrix of one stack
# - per-link MMSE statistics: EstimationStats, estimation_stats
# - r_all, omega_of, xi_of (term reads a family through it) and
#   copilot_of: the per-link covariances, the estimate covariances, the
#   non-coherent coefficients xi and the co-pilot relation as materialised
#   arrays, which simcf keeps only in factored form (beta_nlos and s, the
#   spectra, the parts of xi, the pilot map)
# - build_estimation_state_solve and sinr_terms_einsum: the estimation state
#   from one linear solve per link and the closed-form terms from einsum
#   contractions, with xi and (complex) delta materialised, which the
#   spectral estimation.build_estimation_state and se.sinr_terms replace;
#   factors_loop, sinr_parts_loop and lsfd_weights_loop: the denominator
#   diagonals, Woodbury factors, per-AP SINR parts and LSFD weights from
#   those materialised terms, one UE and one co-pilot at a time
# - denominator_matrices: every UE's dense L x L denominator matrix b_k,
#   whose diagonal-plus-co-pilot structure the Woodbury se.lsfd_weights and
#   the per-AP se.sinr_parts use without forming it
# - splice_ap and candidate: a stack of candidate networks with AP l's
#   column replaced by each probe's, and one network of such a stack, which
#   the phase search's per-AP sums replace
# - sinr_lsfd: the optimal SINR as the quadratic form p z^H b^-1 z
# - sinr_breakdown: the five parts of every UE's SINR at given powers
# - sinr_coefficients_loop: the per-UE power-control coefficients
# - maxmin_power_bisection: max-min power control solving the feasibility
#   system at every bisection midpoint, which the closed-form replay of
#   optimize.maxmin_power replaces
# - the term audit: predicted_cross_moments against cross_moment_estimates
# - the per-AP, per-probe and per-setting loops that the batched channel
#   build, phase search and Monte-Carlo pass replace; among them
#   optimize_beamforming_per_probe, one network's search trying each probe
#   alone through SumSeObjective.improve, whose values the probe batches
#   of optimize_beamforming must equal bit for bit
# - mmse_estimate_loop: realization-level estimates built one UE and its
#   co-pilots at a time, which the per-pilot sum of mmse_estimate replaces
# - link_matvec_broadcast: the per-link U x U apply as products broadcast
#   along the U axis, which estimation.link_matvec forms one entry at a time
# - uatf_monte_carlo_einsum, with draw_einsum and combined_products: the
#   Monte-Carlo pass through einsum contractions and the (b, L, K, K)
#   product tensor, which the explicit U sums and batched matmuls of
#   montecarlo replace
# - uatf_monte_carlo_batch, with draw_batch: the Monte-Carlo pass realizing
#   each batch at once and forming the features once per setting, which the
#   cache-sized chunks and per-weight-set features of montecarlo replace
#   with the same arithmetic
# - delta_method_loop: the Monte-Carlo SINR and standard error one setting
#   and one UE at a time, which the stacked montecarlo._delta_method
#   replaces
# - turned_slices, build_channel_state_slices and probe_terms_slices: every
#   probe of a block as its own phase slice through the full cascade, and
#   the terms of those slices, which the block polynomial of
#   channel.block_channel_state and the closed-form block factors of
#   se.block_factors replace
# - block_cascade_coeffs_dense: a block's cascade polynomial from full-size
#   keep and move products of each touched layer's folded factor, which
#   the block-row writes of sim_physics.block_cascade_coeffs replace with
#   the same arithmetic
# - write_result_csv_writer: rows.csv and aggregates.csv through csv.writer
#   with _fmt on every field, which the one-format lines of
#   experiments.write_result_csv replace byte for byte
# Tests compare the batched code against these, exactly where both run the
# same arithmetic and within a tolerance where they do not.

import csv
import os
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.linalg

from simcf import se
from simcf.channel import ChannelState
from simcf.estimation import EstimationError, despread_pilot_noise
from simcf.experiments import (AGG_HEADER, MISSING, ROWS_HEADER, _drop_seed,
                               _fmt)
from simcf.montecarlo import (_delta_method, _TrialSampler, _Workspace,
                              uatf_monte_carlo)
from simcf.optimize import (BeamformingConfig, PowerSolution, SumSeObjective,
                            Trace, TraceRow, _feasible_powers,
                            allocate_pilots, optimize_beamforming)
from simcf.pipeline import NetworkModel
from simcf.scenario import generate_drop, psd_sqrt
from simcf.sim_physics import (cascade_through_antennas, fold_phasors,
                               random_phase_tensor, wrap_phases)


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


def r_all(state):
    """Materialised NLoS covariances r = beta_nlos s of every link of a
    ChannelState, shape (L, K, U, U)."""
    return state.beta_nlos[:, :, None, None] * state.s[:, None, :, :]


def omega_of(est):
    """(L, K, U, U) estimate covariances r psi^-1 r of every link of a
    spectral EstimationState, basis diag(beta^2 eig gain) basis^H made
    Hermitian."""
    v = est.basis[:, None]
    spectrum = est.beta[..., None] ** 2 * est.eig[:, None] * est.gain
    omega = (v * spectrum[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return 0.5 * (omega + omega.conj().swapaxes(-1, -2))


@dataclass(frozen=True)
class SolveEstimationState:
    """Estimation state of build_estimation_state_solve: the estimator core
    and omega of every link as matrices."""
    core: np.ndarray      # (L, K, U, U) psi^-1 r
    omega: np.ndarray     # (L, K, U, U)
    pilot_of: np.ndarray  # (K,) pilot index per UE
    p_hat: np.ndarray     # (K,) pilot powers
    tau_p: int
    sigma2: float


def _pilot_onehot(pilot_of):
    """(K, T) map of UEs to pilots, T = pilot_of.max() + 1."""
    if np.any(pilot_of < 0):
        raise EstimationError("pilot assignment incomplete (unassigned UEs)")
    onehot = np.zeros((pilot_of.size, int(pilot_of.max()) + 1))
    onehot[np.arange(pilot_of.size), pilot_of] = 1.0
    return onehot


def build_estimation_state_solve(state, pilot_of, p_hat, tau_p, sigma2):
    """Estimation statistics for all links given a pilot assignment, from
    the pilot covariance psi of each (AP, pilot) and one batched solve
    psi^-1 r per link (without the DEBUG conditioning log)."""
    pilot_of = np.asarray(pilot_of)
    onehot = _pilot_onehot(pilot_of)
    u = state.h_bar.shape[-1]
    p_hat = np.asarray(p_hat, dtype=float)
    # pilot-domain load per (AP, pilot): tau_p * sum of co-pilot NLoS gains
    load = tau_p * (state.beta_nlos * p_hat[None, :]) @ onehot   # (L, T)
    psi_t = (load[:, :, None, None] * state.s[:, None]
             + sigma2 * np.eye(u)[None, None])                  # (L, T, U, U)
    r = r_all(state)
    try:
        core = np.linalg.solve(psi_t[:, pilot_of], r)            # psi^-1 r
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"pilot covariance is singular: {exc}") from exc
    omega = r @ core
    omega = 0.5 * (omega + omega.conj().swapaxes(-1, -2))
    return SolveEstimationState(core=core, omega=omega, pilot_of=pilot_of,
                                p_hat=p_hat, tau_p=tau_p, sigma2=sigma2)


@dataclass(frozen=True)
class EinsumSinrTerms:
    """Closed-form terms of sinr_terms_einsum, layout as se.SinrTerms:
    z[k, l], xi[k, j, l], delta[k, j, l] (complex), lam[k, l]."""
    z: np.ndarray
    xi: np.ndarray
    delta: np.ndarray
    lam: np.ndarray
    copilot: np.ndarray  # (K, K) bool
    p_hat: np.ndarray
    tau_p: int
    sigma2: float


def sinr_terms_einsum(state, est):
    """Evaluate all closed-form term families from link statistics, with
    est a SolveEstimationState.

    For each AP l and UE pair (k, j):
      z[k, l]      = p_hat_k tau_p tr(omega_lk) + ||h_bar_lk||^2
      xi[k, j, l]  = p_hat_k tau_p tr(r_lj omega_lk) + h_lk^H r_lj h_lk
                     + p_hat_k tau_p h_lj^H omega_lk h_lj + |h_lk^H h_lj|^2
      delta[k,j,l] = tr(r_lj psi_lk^-1 r_lk)   (pilot-sharing UEs only)
      lam[k, l]    = ||h_bar_lk||^2
    """
    n_ue = state.h_bar.shape[1]
    p_hat, tau_p = est.p_hat, est.tau_p
    h = state.h_bar                                  # (L, K, U)
    r = r_all(state)                                 # (L, K, U, U)
    omega = est.omega                                # (L, K, U, U)

    lam = np.real(np.einsum("lku,lku->kl", h.conj(), h))
    tr_omega = np.real(np.einsum("lkuu->kl", omega))
    z = p_hat[:, None] * tau_p * tr_omega + lam

    # pairwise pieces; indices: l AP, k target UE, j interferer
    tr_r_omega = np.real(np.einsum("ljuv,lkvu->kjl", r, omega))
    quad_r = np.real(np.einsum("lku,ljuv,lkv->kjl", h.conj(), r, h))
    quad_omega = np.real(np.einsum("lju,lkuv,ljv->kjl", h.conj(), omega, h))
    cross = np.einsum("lku,lju->kjl", h.conj(), h)
    xi = (p_hat[:, None, None] * tau_p * (tr_r_omega + quad_omega)
          + quad_r + np.abs(cross) ** 2)

    same = est.pilot_of[:, None] == est.pilot_of[None, :]
    delta = np.einsum("ljuv,lkvu->kjl", r, est.core)   # tr(r_lj psi_lk^-1 r_lk)
    delta = np.where(same[:, :, None], delta, 0.0)
    return EinsumSinrTerms(z=z, xi=xi, delta=delta, lam=lam,
                           copilot=same & ~np.eye(n_ue, dtype=bool),
                           p_hat=p_hat, tau_p=tau_p, sigma2=est.sigma2)


def xi_of(terms):
    """(..., K, K, L) non-coherent coefficients xi of terms: the field of an
    EinsumSinrTerms, or formed from the spectral parts of se.SinrTerms as
    xi[k, j, l] = beta_jl nu_kl + sum_i spec_kil power_jil + cross_kjl."""
    if isinstance(terms, EinsumSinrTerms):
        return terms.xi
    spec, power = terms.spec, terms.power
    mixed = sum(spec[..., :, None, i, :] * power[..., None, :, i, :]
                for i in range(spec.shape[-2]))
    return (terms.beta[..., None, :, :] * terms.nu[..., :, None, :] + mixed
            + terms.cross)


def term(terms, name):
    """The term family name of terms, xi from xi_of."""
    return xi_of(terms) if name == "xi" else getattr(terms, name)


def copilot_of(terms):
    """(K, K) share-a-pilot relation without the diagonal, of an
    EinsumSinrTerms or of the pilot map of se.SinrTerms."""
    if isinstance(terms, EinsumSinrTerms):
        return terms.copilot
    pilot_of = terms.pilots.pilot_of
    return ((pilot_of[:, None] == pilot_of[None, :])
            & ~np.eye(pilot_of.size, dtype=bool))


def factors_loop(terms, p, p_hat, tau_p, sigma2):
    """(dg, Delta') of se._factors from the materialised xi and delta of
    terms, one UE and one co-pilot at a time: dg_k = sum_j p_j xi_kj
    - p_k lam_k^2 + sigma2 z_k, and row i of Delta'_k is
    sqrt(p_j p_hat_k p_hat_j tau_p^2) delta_kj for the i-th co-pilot j of
    k (0 past k's co-pilot count)."""
    p = np.asarray(p, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    n_ue, n_ap = terms.z.shape
    copilots = [np.flatnonzero(copilot_of(terms)[k]) for k in range(n_ue)]
    xi = xi_of(terms)
    dg = np.zeros((n_ue, n_ap))
    dp = np.zeros((n_ue, max(c.size for c in copilots), n_ap),
                  dtype=terms.delta.dtype)
    for k in range(n_ue):
        dg[k] = (sum(p[j] * xi[k, j] for j in range(n_ue))
                 - p[k] * terms.lam[k] ** 2 + sigma2 * terms.z[k])
        for i, j in enumerate(copilots[k]):
            dp[k, i] = np.sqrt(p[j] * p_hat[k] * p_hat[j] * tau_p ** 2) \
                * terms.delta[k, j]
    return dg, dp


def _lsfd_factors_loop(terms, p, p_hat, tau_p, sigma2):
    """(D^-1 z, D^-1 Delta', Delta') of factors_loop, D^-1 = 0 where dg and
    z are both 0."""
    dg, dp = factors_loop(terms, p, p_hat, tau_p, sigma2)
    dropped = (dg == 0) & (terms.z == 0)
    dinv = np.where(dropped, 0.0, 1.0 / np.where(dropped, 1.0, dg))
    return dinv * terms.z, dinv[:, None] * dp, dp


def sinr_parts_loop(terms, decoder, p, p_hat, tau_p, sigma2):
    """se.sinr_parts of decoder from factors_loop: egcd (z, dg, Delta'),
    lsfd (z D^-1 z, Delta'^H D^-1 z, Delta'^H D^-1 Delta') per AP."""
    if decoder == "egcd":
        return (terms.z, *factors_loop(terms, p, p_hat, tau_p, sigma2))
    dz, dd, dp = _lsfd_factors_loop(terms, p, p_hat, tau_p, sigma2)
    return (terms.z * dz, dp.conj() * dz[:, None],
            dp.conj()[:, :, None] * dd[:, None])


def lsfd_weights_loop(terms, p, p_hat, tau_p, sigma2):
    """LSFD weights b_k^-1 z_k from factors_loop, by the Woodbury identity
    one UE at a time."""
    dz, dd, dp = _lsfd_factors_loop(terms, p, p_hat, tau_p, sigma2)
    weights = np.zeros(terms.z.shape, dtype=complex)
    for k in range(terms.z.shape[-2]):
        g = dp[k].conj() @ dd[k].T
        v = dp[k].conj() @ dz[k]
        weights[k] = dz[k] - dd[k].T @ np.linalg.solve(
            np.eye(v.size) + g, v)
    return weights


def copilot_observations_loop(nlos, pilot_of, p_hat, tau_p, pilot_noise):
    """The despread pilot observation of every UE, (..., L, K, U), summed
    over its own co-pilots one UE at a time."""
    pilot_of = np.asarray(pilot_of)
    weighted = np.sqrt(p_hat)[:, None] * nlos
    observed = np.zeros_like(nlos)
    for k in range(pilot_of.size):
        copilots = np.flatnonzero(pilot_of == pilot_of[k])
        observed[..., k, :] = tau_p * weighted[..., copilots, :].sum(axis=-2) \
            + pilot_noise[..., pilot_of[k], :]
    return observed


def link_matvec_broadcast(f, v):
    """estimation.link_matvec as one product per column of f, broadcast
    along the U axis."""
    out = f[..., 0] * v[..., 0, None]
    for j in range(1, f.shape[-1]):
        out += f[..., j] * v[..., j, None]
    return out


def _estimator_gain(est, p_hat):
    """sqrt(p_hat_k) core^H of every link, (L, K, U, U)."""
    return np.sqrt(p_hat)[None, :, None, None] \
        * est.core.conj().swapaxes(-1, -2)


def mmse_estimate_loop(est, los, nlos, pilot_of, p_hat, tau_p, pilot_noise):
    """estimation.mmse_estimate with the pilot observation of every UE
    summed over its own co-pilots."""
    p_hat = np.asarray(p_hat, dtype=float)
    observed = copilot_observations_loop(nlos, pilot_of, p_hat, tau_p,
                                         pilot_noise)
    return los + link_matvec_broadcast(_estimator_gain(est, p_hat), observed)


def draw_pilot_noise(rng, n_pilots, shape_prefix, u, tau_p, sigma2):
    """estimation.despread_pilot_noise of fresh standard normal parts of
    shape (*shape_prefix, n_pilots, u), the real part drawn first."""
    shape = (*shape_prefix, n_pilots, u)
    return despread_pilot_noise(rng.standard_normal(shape),
                                rng.standard_normal(shape), tau_p, sigma2)


def draw(sampler, batch):
    """(channels, estimates) of batch trials of a montecarlo._TrialSampler,
    drawn into a fresh workspace and realized at once."""
    numbers, _, _ = _Workspace(sampler, batch, 1).arrays(batch)
    return sampler.realize(sampler.numbers(numbers))


def draw_einsum(sampler, batch, pilot_of, p_hat, tau_p, sigma2):
    """_TrialSampler.draw with the U x U applies as einsum contractions, the
    LoS part formed for the channel and the estimate separately, and the
    pilots and noise given explicitly."""
    n_ap, n_ue, u = sampler.shape
    rng = sampler.rng
    phase = rng.uniform(-np.pi, np.pi, size=(batch, n_ap, n_ue))
    white = (rng.standard_normal((batch, n_ap, n_ue, u))
             + 1j * rng.standard_normal((batch, n_ap, n_ue, u))) / np.sqrt(2.0)
    nlos = np.einsum("lkuv,blkv->blku", sampler.nlos_factor, white)
    h_bar = sampler.state.h_bar
    h = h_bar[None] * np.exp(1j * phase)[..., None] + nlos
    noise = draw_pilot_noise(rng, int(np.max(pilot_of)) + 1, (batch, n_ap),
                             u, tau_p, sigma2)
    observed = copilot_observations_loop(nlos, pilot_of, p_hat, tau_p, noise)
    h_hat = h_bar * np.exp(1j * phase)[..., None] + np.einsum(
        "lkuv,...lkv->...lku", _estimator_gain(sampler.est, p_hat), observed)
    return h, h_hat


def combined_products(h, h_hat):
    """x[b, l, k, j] = (estimate of k at AP l)^H (channel of j at AP l)."""
    return np.einsum("blku,blju->blkj", h_hat.conj(), h)


def uatf_monte_carlo_einsum(state, est, pilot_of, p, p_hat, tau_p, sigma2,
                            weights, n_trials, rng, batch=4096):
    """montecarlo.uatf_monte_carlo through the (b, L, K, K) product tensor x
    of combined_products, with einsum contractions over U, L and the
    trials; returns (gamma, stderr), each (S, K) over the flattened
    settings."""
    sampler = _TrialSampler(state, est, rng)
    n_ap, n_ue, _ = sampler.shape
    p = np.asarray(p, dtype=float)
    weights = np.asarray(weights, dtype=complex)
    lead = np.broadcast_shapes(p.shape[:-1], weights.shape[:-2])
    p = np.broadcast_to(p, (*lead, n_ue)).reshape(-1, n_ue)
    weights = np.broadcast_to(weights, (*lead, n_ue, n_ap)).reshape(-1, n_ue,
                                                                    n_ap)
    dim = n_ue + 3
    acc1 = np.zeros((len(p), n_ue, dim))
    acc2 = np.zeros((len(p), n_ue, dim, dim))
    idx = np.arange(n_ue)
    done = 0
    while done < n_trials:
        b = min(batch, n_trials - done)
        h, h_hat = draw_einsum(sampler, b, pilot_of, p_hat, tau_p, sigma2)
        x = combined_products(h, h_hat)
        vnorm = np.einsum("blku,blku->blk", h_hat.conj(), h_hat).real
        for s, w in enumerate(weights):
            y = np.einsum("kl,blkj->bkj", w.conj(), x)
            feats = np.zeros((b, n_ue, dim))
            feats[:, :, 0] = y[:, idx, idx].real
            feats[:, :, 1] = y[:, idx, idx].imag
            feats[:, :, 2:2 + n_ue] = np.abs(y) ** 2
            feats[:, :, -1] = np.einsum("kl,blk->bk", np.abs(w) ** 2, vnorm)
            acc1[s] += feats.sum(axis=0)
            acc2[s] += np.einsum("bki,bkj->kij", feats, feats)
        done += b
    return _delta_method(acc1, acc2, p, sigma2, n_trials)


def draw_batch(sampler, batch):
    """(channels, estimates), each (batch, L, K, U), of one batch drawn
    straight from the sampler's generator and realized at once, with every
    U x U apply as link_matvec_broadcast and the complex draws formed by
    complex arithmetic."""
    n_ap, n_ue, u = sampler.shape
    rng, est = sampler.rng, sampler.est
    pilots = est.pilots
    phase = rng.uniform(-np.pi, np.pi, size=(batch, n_ap, n_ue))
    white = (rng.standard_normal((batch, n_ap, n_ue, u))
             + 1j * rng.standard_normal((batch, n_ap, n_ue, u))) / np.sqrt(2.0)
    nlos = link_matvec_broadcast(sampler.nlos_factor, white)
    del white
    los = sampler.state.h_bar * np.exp(1j * phase)[..., None]
    del phase
    shape = (batch, n_ap, sampler.n_pilots, u)
    noise = np.sqrt(pilots.tau_p * est.sigma2 / 2.0) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    p_root = np.sqrt(pilots.p_hat)
    observed = (pilots.tau_p * np.tensordot(p_root[:, None] * nlos,
                                            pilots.onehot,
                                            axes=(-2, 0)).swapaxes(-1, -2)
                + noise)[..., pilots.pilot_of, :]
    h_hat = link_matvec_broadcast(_estimator_gain(est, pilots.p_hat),
                                  observed)
    h_hat += los
    los += nlos                                     # the channel
    return los, h_hat


def uatf_monte_carlo_batch(state, est, p, weights, n_trials, rng,
                           batch=4096):
    """montecarlo.uatf_monte_carlo with every batch realized at once by
    draw_batch and the features formed once per setting; returns
    (gamma, stderr), each (..., K)."""
    sampler = _TrialSampler(state, est, rng)
    n_ap, n_ue, u = sampler.shape
    p = np.asarray(p, dtype=float)
    weights = np.asarray(weights, dtype=complex)
    lead = np.broadcast_shapes(p.shape[:-1], weights.shape[:-2])
    p = np.broadcast_to(p, (*lead, n_ue)).reshape(-1, n_ue)
    weights = np.broadcast_to(weights, (*lead, n_ue, n_ap)).reshape(-1, n_ue,
                                                                    n_ap)
    w_rows = weights.conj()[..., None]
    w_sq = np.abs(weights) ** 2
    dim = n_ue + 3
    acc1 = np.zeros((len(p), n_ue, dim))
    acc2 = np.zeros((len(p), n_ue, dim, dim))
    idx = np.arange(n_ue)
    done = 0
    while done < n_trials:
        b = min(batch, n_trials - done)
        h, h_hat = draw_batch(sampler, b)
        cols = h.transpose(0, 1, 3, 2).reshape(b, n_ap * u, n_ue)
        del h
        rows = np.conjugate(h_hat.transpose(0, 2, 1, 3), order="C")
        del h_hat
        sq = rows.real ** 2 + rows.imag ** 2
        vnorm = sum((sq[..., j] for j in range(1, u)), sq[..., 0])
        vnorm = np.ascontiguousarray(vnorm.transpose(1, 2, 0))
        for s in range(len(p)):
            y = (w_rows[s] * rows).reshape(b, n_ue, n_ap * u) @ cols
            feats = np.zeros((b, n_ue, dim))
            feats[:, :, 0] = y[:, idx, idx].real
            feats[:, :, 1] = y[:, idx, idx].imag
            feats[:, :, 2:2 + n_ue] = np.abs(y) ** 2
            feats[:, :, -1] = (w_sq[s, :, None] @ vnorm)[:, 0].T
            acc1[s] += feats.sum(axis=0)
            acc2[s] += feats.transpose(1, 2, 0) @ feats.transpose(1, 0, 2)
        done += b
    gamma, stderr = _delta_method(acc1, acc2, p, est.sigma2, n_trials)
    return gamma.reshape(*lead, n_ue), stderr.reshape(*lead, n_ue)


def delta_method_loop(acc1, acc2, p, sigma2, n_trials):
    """montecarlo._delta_method one setting and one UE at a time."""
    n_set, n_ue, dim = acc1.shape
    gamma = np.zeros((n_set, n_ue))
    stderr = np.zeros((n_set, n_ue))
    for s in range(n_set):
        mean = acc1[s] / n_trials
        cov = acc2[s] / n_trials - np.einsum("ki,kj->kij", mean, mean)
        for k in range(n_ue):
            ur, ui = mean[k, 0], mean[k, 1]
            w = mean[k, 2:2 + n_ue]
            nv = mean[k, -1]
            num = p[s, k] * (ur ** 2 + ui ** 2)
            den = float(p[s] @ w) - num + sigma2 * nv
            gamma[s, k] = num / den
            grad = np.zeros(dim)
            grad[0] = 2.0 * p[s, k] * ur * (den + num) / den ** 2
            grad[1] = 2.0 * p[s, k] * ui * (den + num) / den ** 2
            grad[2:2 + n_ue] = -num * p[s] / den ** 2
            grad[-1] = -num * sigma2 / den ** 2
            var = float(grad @ cov[k] @ grad) / n_trials
            stderr[s, k] = np.sqrt(max(var, 0.0))
    return gamma, stderr


def denominator_matrices(terms, p, p_hat, tau_p, sigma2):
    """Hermitian denominator matrices b_k of every UE, shape (..., K, L, L).

    b_k = sum_j p_j diag(xi[k, j]) + coherent pilot-contamination outer
    products - p_k diag(lam[k]^2) + sigma2 diag(z[k]). Positive definite for
    sigma2 > 0. Leading candidate axes of terms carry through.
    """
    p = np.asarray(p, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    diag = (np.einsum("j,...kjl->...kl", p, xi_of(terms))
            - p[:, None] * terms.lam ** 2 + sigma2 * terms.z)
    coeff = np.where(copilot_of(terms),
                     p[None, :] * p_hat[:, None] * p_hat[None, :] * tau_p ** 2,
                     0.0)
    b = np.einsum("kj,...kjl,...kjm->...klm", coeff, terms.delta,
                  terms.delta.conj())
    idx = np.arange(terms.z.shape[-1])
    b[..., idx, idx] += diag
    return b


def _ap_arrays(terms):
    """Names of the per-AP arrays of terms (the AP axis last)."""
    return [f.name for f in fields(terms)
            if isinstance(getattr(terms, f.name), np.ndarray)]


def splice_ap(terms, l, other):
    """Candidate stack: terms with AP l's column replaced by each AP column
    of other in turn, on a leading axis of other's AP count."""
    def splice(base, cols):
        out = np.repeat(base[None], cols.shape[-1], axis=0)
        out[..., l] = np.moveaxis(cols, -1, 0)
        return out

    return replace(terms, **{name: splice(getattr(terms, name),
                                          getattr(other, name))
                             for name in _ap_arrays(terms)})


def candidate(stack, i):
    """Terms of candidate i of a stack built by splice_ap."""
    return replace(stack, **{name: getattr(stack, name)[i]
                             for name in _ap_arrays(stack)})


def sinr_lsfd(terms, p):
    """(sinr, weights) under optimal weighting; sinr_k = p_k z^H b^-1 z."""
    weights = se.lsfd_weights(terms, p)
    p = np.asarray(p, dtype=float)
    gamma = np.array([
        p[k] * float(np.real(terms.z[k] @ weights[k]))
        for k in range(terms.z.shape[-2])
    ])
    if np.any(gamma < -1e-12):
        raise se.SinrComputationError(f"negative quadratic-form SINR: {gamma}")
    return np.clip(gamma, 0.0, None), weights


def sinr_breakdown(terms, weights, p, p_hat, tau_p, sigma2):
    """Numerator and denominator parts of every UE's SINR.

    Returns a dict of (..., K) arrays: signal, noncoherent, coherent,
    self_term (subtracted), noise. sinr = signal / (noncoherent + coherent
    - self_term + noise). Leading candidate axes of terms and weights
    carry through.
    """
    p = np.asarray(p, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    weights = np.asarray(weights, dtype=complex)
    aa = np.abs(weights) ** 2                       # (..., K, L)
    signal = p * np.abs(np.einsum("...kl,...kl->...k", weights.conj(),
                                  terms.z)) ** 2
    noncoherent = np.einsum("j,...kjl,...kl->...k", p, xi_of(terms), aa)
    coeff = np.where(copilot_of(terms),
                     p[None, :] * p_hat[:, None] * p_hat[None, :] * tau_p ** 2,
                     0.0)
    combined = np.einsum("...kl,...kjl->...kj", weights.conj(), terms.delta)
    coherent = np.einsum("kj,...kj->...k", coeff, np.abs(combined) ** 2)
    return {
        "signal": signal,
        "noncoherent": noncoherent,
        "coherent": coherent,
        "self_term": p * np.einsum("...kl,...kl->...k", aa, terms.lam ** 2),
        "noise": sigma2 * np.einsum("...kl,...kl->...k", aa, terms.z),
    }


def sinr_of_breakdown(parts):
    """The SINR the parts of sinr_breakdown assemble to."""
    return parts["signal"] / (parts["noncoherent"] + parts["coherent"]
                              - parts["self_term"] + parts["noise"])


def sinr_coefficients_loop(terms, weights, p_hat, tau_p, sigma2):
    """Power-control coefficients built one UE and one co-pilot at a time."""
    p_hat = np.asarray(p_hat, dtype=float)
    k_ues = terms.z.shape[-2]
    signal = np.zeros(k_ues)
    d = np.zeros((k_ues, k_ues))
    noise = np.zeros(k_ues)
    mask, xi = copilot_of(terms), xi_of(terms)
    for k in range(k_ues):
        a = weights[k]
        aa = np.abs(a) ** 2
        signal[k] = np.abs(a.conj() @ terms.z[k]) ** 2
        d[k] = xi[k] @ aa
        for j in np.flatnonzero(mask[k]):
            coeff = p_hat[k] * p_hat[j] * tau_p ** 2
            d[k, j] += coeff * np.abs(a.conj() @ terms.delta[k, j]) ** 2
        d[k, k] -= float(aa @ terms.lam[k] ** 2)
        noise[k] = sigma2 * float(aa @ terms.z[k])
    return se.SinrCoefficients(signal=signal, d=d, noise=noise)


def maxmin_power_bisection(coeffs, p_max, eps=1e-3):
    """Bisection max-min SINR power control for fixed CPU weights.

    Brackets the best common SINR in [0, twice the full power maximum] and
    bisects on the feasibility of the linear system
    p_k signal_k >= t (d[k] @ p + noise_k), 0 <= p <= p_max, over the
    SinrCoefficients coeffs, with one _feasible_powers solve per midpoint.
    Terminates when the bracket is narrower than eps, which must be > 0. p
    is the least power vector of the last feasible midpoint t_star (full
    power when no midpoint was feasible).
    """
    if not eps > 0:
        raise ValueError(f"bisection tolerance eps must be > 0, got {eps}")
    if np.any(coeffs.signal <= 0):
        raise se.SinrComputationError("zero signal coefficient in power control")
    full = np.full(coeffs.signal.shape[0], float(p_max))
    gamma_full = coeffs.sinr(full)
    t_lo, t_hi = 0.0, float(2.0 * gamma_full.max())
    if t_hi <= 0:
        return PowerSolution(p=full, t_star=0.0, iterations=0, bracket=(0.0, 0.0))
    best_p = full
    iterations = 0
    while t_hi - t_lo >= eps:
        t = 0.5 * (t_lo + t_hi)
        p = _feasible_powers(coeffs, t, p_max)
        iterations += 1
        if np.isnan(p).any():
            t_hi = t
        else:
            t_lo = t
            best_p = p
    return PowerSolution(p=best_p, t_star=t_lo, iterations=iterations,
                         bracket=(t_lo, t_hi))


def predicted_cross_moments(terms, p_hat, tau_p):
    """Closed-form second moments of the combined interference terms.

    Entry [k, j, l, l'] predicts E{x_l conj(x_l')} with
    x_l = (estimate of UE k at AP l)^H (channel of UE j at AP l). Used to
    audit every term family against Monte-Carlo estimates case by case.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    n_ue, n_ap = terms.z.shape
    xi, copilot = xi_of(terms), copilot_of(terms)
    out = np.zeros((n_ue, n_ue, n_ap, n_ap), dtype=complex)
    for k in range(n_ue):
        for j in range(n_ue):
            if j == k:
                m = np.outer(terms.z[k], terms.z[k]).astype(complex)
                np.fill_diagonal(m, xi[k, k] + terms.z[k] ** 2
                                 - terms.lam[k] ** 2)
            elif copilot[k, j]:
                coeff = p_hat[k] * p_hat[j] * tau_p ** 2
                d = terms.delta[k, j]
                m = coeff * np.outer(d, d.conj())
                m[np.diag_indices(n_ap)] = xi[k, j] \
                    + coeff * np.abs(d) ** 2
            else:
                m = np.diag(xi[k, j].astype(complex))
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


def cross_moment_estimates(state, est, n_trials, rng,
                           batch=4096) -> CrossMomentEstimate:
    """Sample every pairwise interference moment for the term audit."""
    sampler = _TrialSampler(state, est, rng)
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
        h, h_hat = draw(sampler, b)
        x = combined_products(h, h_hat)
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


def turned_slices(base, rows, cols, steps):
    """The (M, N) phases base with the atoms (rows, cols) turned by each of
    steps and wrapped, one slice per step: (B, M, N)."""
    slices = np.repeat(np.asarray(base)[None], len(steps), axis=0)
    slices[:, rows, cols] = wrap_phases(
        np.asarray(base)[rows, cols] + np.asarray(steps)[:, None])
    return slices


def build_channel_state_slices(model, slices, ap_indices):
    """Statistics of one (M, N) phase slice per listed AP, (len(ap_indices),
    ...), with every slice through its own full cascade in one batch."""
    aps = np.asarray(ap_indices)
    t = cascade_through_antennas(model.dset, slices)       # (n, N, U)
    proj = t.conj().swapaxes(-1, -2) @ model.base_corr @ t
    s = 0.5 * (proj + proj.conj().swapaxes(-1, -2))
    amp = np.sqrt(model.drop.beta_los[aps])[:, :, None] * model.steering[aps]
    return ChannelState(h_bar=amp @ t.conj(), s=s,
                        beta_nlos=model.drop.beta_nlos[aps, :])


def probe_terms_slices(model, phases, l, rows, cols, steps):
    """se.sinr_terms of AP l alone under each probe of a block, the probes
    on the AP axis: every probe's phase slice (turned_slices) through its
    own full cascade (build_channel_state_slices)."""
    state = build_channel_state_slices(
        model, turned_slices(phases[l], rows, cols, steps), [l] * len(steps))
    return se.sinr_terms(state, model.estimation_state(state))


def terms_loop(model, phases, ap_indices=None):
    state = build_channel_state_loop(model, phases, ap_indices)
    return se.sinr_terms(state, model.estimation_state(state))


def replace_ap(terms, l, other):
    """terms with AP l's column taken from the single-AP terms other."""
    arrays = {}
    for name in _ap_arrays(terms):
        arrays[name] = getattr(terms, name).copy()
        arrays[name][..., l] = getattr(other, name)[..., 0]
    return replace(terms, **arrays)


class SerialObjective:
    """Closed-form sum SE, rebuilding one AP's terms per probe."""

    def __init__(self, model, decoder="lsfd"):
        self.model = model
        self.cfg = model.cfg
        self.p = model.drop.p
        self.decoder = decoder

    def set_phases(self, phases):
        self.phases = np.array(phases, dtype=float)
        self.terms = terms_loop(self.model, self.phases)
        return self.value(self.terms)

    def value(self, terms):
        weights = se.decoder_weights(terms, self.decoder, self.p)
        gamma = se.sinr_from_weights(terms, weights, self.p)
        return float(se.se_from_sinr(gamma, self.cfg.tau_c,
                                     self.cfg.tau_p).sum())

    def ap_terms(self, l, ap_phases):
        patched = self.phases.copy()
        patched[l] = ap_phases
        slice_terms = terms_loop(self.model, patched, [l])
        return replace_ap(self.terms, l, slice_terms), patched

    def try_ap(self, l, ap_phases):
        return self.value(self.ap_terms(l, ap_phases)[0])

    def commit_ap(self, l, ap_phases):
        self.terms, self.phases = self.ap_terms(l, ap_phases)


def block_cascade_coeffs_dense(dset, phases, rows, cols):
    """sim_physics.block_cascade_coeffs from the phases (..., M, N): every
    touched layer's product with its folded factor split by full-size
    keep and move row masks, both applied to the whole coefficient
    stack."""
    folded = fold_phasors(dset, np.exp(1j * np.asarray(phases)))
    move = np.zeros(np.shape(phases))
    move[..., rows, cols] = 1.0
    touched = set(np.asarray(rows).tolist())
    u = dset.w_first.shape[-1]
    c = folded.first
    for m in range(dset.n_layers):
        if m:
            c = folded.layers[..., m - 1, :, :] @ c
        if m in touched:
            out = np.zeros((*c.shape[:-1], c.shape[-1] + u), dtype=complex)
            out[..., :-u] = (1.0 - move[..., m, :, None]) * c
            out[..., u:] += move[..., m, :, None] * c
            c = out
    return c.reshape(*c.shape[:-1], -1, u).swapaxes(-3, -2)


def optimize_beamforming_serial(model, init_phases, cfg, rng=None):
    """Blockwise phase search evaluating one probe at a time."""
    rng = np.random.default_rng(rng)
    objective = SerialObjective(model, decoder=cfg.decoder)
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
                    if gain > cfg.min_gain:
                        phases[l] = candidate
                        objective.commit_ap(l, candidate)
                        best += gain
                        trace.append(TraceRow(it, best, True))
                        break
                    trace.append(TraceRow(it, best, False))
    return phases, trace


def optimize_beamforming_per_probe(model, init_phases, cfg, rng=None):
    """Blockwise phase search of one network whose probes each go through
    SumSeObjective.improve alone, one step at a time, in the search's
    order; returns (phases, Trace)."""
    rng = np.random.default_rng(rng)
    objective = SumSeObjective([model], decoder=cfg.decoder)
    phases = wrap_phases(np.array(init_phases, dtype=float))
    objective.set_phases(phases[None])
    n_aps, n_layers, n_atoms = phases.shape
    steps = np.arange(1, cfg.max_probes + 1) * cfg.step_size
    trace = Trace(float(objective.best[0]))
    for _ in range(cfg.sweeps):
        for l in range(n_aps):
            order = rng.permutation(n_layers * n_atoms)
            for start in range(0, order.size, cfg.block_size):
                rows, cols = np.unravel_index(
                    order[start:start + cfg.block_size], (n_layers, n_atoms))
                for i in range(steps.size):
                    if objective.improve(l, rows, cols, steps[i:i + 1],
                                         cfg.min_gain)[0] >= 0:
                        trace.record(i, float(objective.best[0]))
                        break
                else:
                    trace.record(steps.size)
    return objective.phases[0], trace


def run_drop_per_setting(spec, cfg, value, value_index, d, schemes, decoders,
                         need_opt, bf_cfg):
    """Rows of one drop with one Monte-Carlo run per (scheme, decoder)."""
    drop = generate_drop(cfg, _drop_seed(spec, d, 0))
    model = NetworkModel.from_drop(drop, allocate_pilots(drop))
    rand_phases = random_phase_tensor(cfg.L, cfg.M, cfg.N,
                                      _drop_seed(spec, d, 1))
    phase_sets = {"rand": rand_phases}
    if need_opt:
        [(opt_phases, _)] = optimize_beamforming(
            [model], rand_phases, bf_cfg,
            rng=np.random.default_rng(_drop_seed(spec, d, 2)))
        phase_sets["opt"] = opt_phases

    rows = []
    for scheme in schemes:
        phase_kind, power_kind = scheme.split("-")
        terms = model.terms(phase_sets[phase_kind])
        for decoder in decoders:
            weights = se.decoder_weights(terms, decoder, drop.p)
            if power_kind == "maxmin":
                p = maxmin_power_bisection(se.sinr_coefficients(terms, weights),
                                           cfg.p_max, eps=spec.maxmin_eps).p
            else:
                p = drop.p
            gamma = se.sinr_from_weights(terms, weights, p)
            se_vals = se.se_from_sinr(gamma, cfg.tau_c, cfg.tau_p)
            mc_cols = [(MISSING, MISSING)] * cfg.K
            if spec.n_mc_trials > 0:
                state, est = model.states(phase_sets[phase_kind])
                mc = uatf_monte_carlo(
                    state, est, p, weights, spec.n_mc_trials,
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


def write_result_csv_writer(result, out_dir):
    """rows.csv and aggregates.csv of result in out_dir, each row through
    csv.writer with _fmt on every field; returns both paths."""
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
