# simcf/montecarlo.py
# Monte-Carlo estimation of the uplink SINR lower bound directly from its
# defining expectations: sampled channels, pilot observations, MMSE
# estimates, matched-filter combining and CPU-side weighting. Serves as the
# independent oracle for the closed-form engine. The per-link U x U
# applies run as explicit sums over the U axis, and each setting's combined
# products come from one batched matmul over the (AP, antenna) axis, so no
# (batch, L, K, K) product tensor is formed. The pilot map, pilot powers,
# tau_p and sigma2 are read from the estimation state.

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .estimation import (EstimationState, despread_pilot_noise, link_matvec,
                         mmse_estimate)
from .scenario import psd_sqrt


@dataclass(frozen=True)
class UatfEstimate:
    """Monte-Carlo SINR estimates and their standard errors."""
    gamma: np.ndarray     # (..., K), one row per setting
    stderr: np.ndarray    # (..., K) delta-method standard error of gamma
    n_trials: int         # sampled realizations, shared by every setting


class _TrialSampler:
    """Draws batches of (channel, estimate) realizations for all links. The
    NLoS factor of link (l, k) is sqrt(beta_nlos_lk) psd_sqrt(s_l)."""

    def __init__(self, state: ChannelState, est: EstimationState, rng):
        self.state = state
        self.est = est
        self.rng = np.random.default_rng(rng)
        self.nlos_factor = (np.sqrt(state.beta_nlos)[..., None, None]
                            * psd_sqrt(state.s)[:, None])   # (L, K, U, U)
        self.n_pilots = est.pilots.onehot.shape[1]
        self.shape = state.h_bar.shape

    def draw(self, batch):
        """(channels, estimates), each (batch, L, K, U)."""
        n_ap, n_ue, u = self.shape
        phase = self.rng.uniform(-np.pi, np.pi, size=(batch, n_ap, n_ue))
        white = (self.rng.standard_normal((batch, n_ap, n_ue, u))
                 + 1j * self.rng.standard_normal((batch, n_ap, n_ue, u))) / np.sqrt(2.0)
        nlos = link_matvec(self.nlos_factor, white)
        del white
        los = self.state.h_bar * np.exp(1j * phase)[..., None]
        del phase
        noise = despread_pilot_noise(self.rng, self.n_pilots, (batch, n_ap), u,
                                     self.est.pilots.tau_p, self.est.sigma2)
        h_hat = mmse_estimate(self.est, los, nlos, noise)
        los += nlos                                     # the channel
        return los, h_hat


def uatf_monte_carlo(state, est, p, weights, n_trials, rng,
                     batch=4096) -> UatfEstimate:
    """Plug-in Monte-Carlo SINR for fixed powers p (..., K) and CPU weights
    (..., K, L), with the pilots and noise of the estimation state est.

    With x[l, k, j] = (estimate of k at AP l)^H (channel of j at AP l),
    accumulates, per UE k, the per-trial scalars
      u    = sum_l conj(a_kl) x[l, k, k]            (combined useful term)
      w_j  = |sum_l conj(a_kl) x[l, k, j]|^2        (combined interference)
      nv   = sum_l |a_kl|^2 ||estimate_lk||^2        (noise scale)
    and forms gamma_k = p_k |mean u|^2 / (sum_j p_j mean w_j
    - p_k |mean u|^2 + sigma2 mean nv). The standard error comes from the
    delta method on the (K + 3)-dimensional vector of sample means.

    x is never formed: the combined products y[k, j] = sum_l conj(a_kl)
    x[l, k, j] of a setting are one matmul per trial of the weighted
    estimates (K, L*U) with the channels (L*U, K), batched over trials, so
    no (batch, L, K, K) tensor exists. The feature outer products are summed
    over trials by one matmul per UE.

    Leading axes of p and weights (broadcast together, as the candidate
    axes in se) list settings; gamma and stderr are (..., K). All settings
    share one sampling pass: each batch of channels and estimates, with its
    estimate norms, is drawn once and feeds every setting, so the settings
    see common random numbers. Each setting's result equals a call for that
    setting alone with the same rng, bit for bit.
    """
    if n_trials < 2 or batch < 1:
        # one trial has a zero sample covariance, so no standard error
        raise ValueError(f"need n_trials >= 2 and batch >= 1, got "
                         f"n_trials={n_trials}, batch={batch}")
    sampler = _TrialSampler(state, est, rng)
    n_ap, n_ue, u = sampler.shape
    p = np.asarray(p, dtype=float)
    weights = np.asarray(weights, dtype=complex)
    lead = np.broadcast_shapes(p.shape[:-1], weights.shape[:-2])
    p = np.broadcast_to(p, (*lead, n_ue)).reshape(-1, n_ue)
    weights = np.broadcast_to(weights, (*lead, n_ue, n_ap)).reshape(-1, n_ue,
                                                                    n_ap)
    # per-setting weights on the estimate rows (K, L, 1) and their squares
    w_rows = weights.conj()[..., None]
    w_sq = np.abs(weights) ** 2
    dim = n_ue + 3
    acc1 = np.zeros((len(p), n_ue, dim))
    acc2 = np.zeros((len(p), n_ue, dim, dim))
    idx = np.arange(n_ue)
    done = 0
    while done < n_trials:
        b = min(batch, n_trials - done)
        h, h_hat = sampler.draw(b)
        # channels as (b, L*U, K) columns, conjugate estimates as (b, K, L, U)
        cols = h.transpose(0, 1, 3, 2).reshape(b, n_ap * u, n_ue)
        del h
        rows = np.conjugate(h_hat.transpose(0, 2, 1, 3), order="C")
        del h_hat
        # squared estimate norms summed over U, as (K, L, b)
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
    return UatfEstimate(gamma=gamma.reshape(*lead, n_ue),
                        stderr=stderr.reshape(*lead, n_ue), n_trials=n_trials)


def _delta_method(acc1, acc2, p, sigma2, n_trials):
    """(gamma, stderr), each (S, K), of S settings in one pass, from the
    feature sums acc1 (S, K, dim) and acc2 (S, K, dim, dim) and powers p
    (S, K); features are (Re u, Im u, w_1 .. w_K, nv) per UE."""
    mean = acc1 / n_trials
    cov = acc2 / n_trials - mean[..., :, None] * mean[..., None, :]
    u = mean[..., :2]                                  # (S, K, 2)
    num = p * (u ** 2).sum(axis=-1)
    den = np.einsum("skj,sj->sk", mean[..., 2:-1], p) - num \
        + sigma2 * mean[..., -1]
    gamma = num / den
    grad = np.concatenate([
        (2.0 * p * (den + num) / den ** 2)[..., None] * u,
        -(num / den ** 2)[..., None] * p[:, None, :],
        (-num * sigma2 / den ** 2)[..., None],
    ], axis=-1)
    var = np.einsum("ski,skij,skj->sk", grad, cov, grad) / n_trials
    return gamma, np.sqrt(np.maximum(var, 0.0))
