# simcf/montecarlo.py
# Monte-Carlo estimation of the uplink SINR lower bound directly from its
# defining expectations: sampled channels, pilot observations, MMSE
# estimates, matched-filter combining and CPU-side weighting. Serves as the
# independent oracle for the closed-form engine.

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .estimation import EstimationState, despread_pilot_noise, mmse_estimate
from .scenario import psd_sqrt


@dataclass(frozen=True)
class UatfEstimate:
    """Monte-Carlo SINR estimates and their standard errors."""
    gamma: np.ndarray     # (..., K), one row per setting
    stderr: np.ndarray    # (..., K) delta-method standard error of gamma
    n_trials: int         # sampled realizations, shared by every setting


class _TrialSampler:
    """Draws batches of (channel, estimate) realizations for all links."""

    def __init__(self, state: ChannelState, est: EstimationState, pilot_of,
                 p_hat, tau_p, sigma2, rng):
        self.state = state
        self.est = est
        self.pilot_of = np.asarray(pilot_of)
        self.p_hat = np.asarray(p_hat, dtype=float)
        self.tau_p = tau_p
        self.sigma2 = sigma2
        self.rng = np.random.default_rng(rng)
        r = state.r_all()
        n_ap, n_ue, u, _ = r.shape
        self.nlos_factor = np.zeros_like(r)
        for l in range(n_ap):
            for k in range(n_ue):
                self.nlos_factor[l, k] = psd_sqrt(r[l, k])
        self.n_pilots = int(self.pilot_of.max()) + 1
        self.shape = (n_ap, n_ue, u)

    def draw(self, batch):
        """(channels, estimates), each (batch, L, K, U)."""
        n_ap, n_ue, u = self.shape
        phase = self.rng.uniform(-np.pi, np.pi, size=(batch, n_ap, n_ue))
        white = (self.rng.standard_normal((batch, n_ap, n_ue, u))
                 + 1j * self.rng.standard_normal((batch, n_ap, n_ue, u))) / np.sqrt(2.0)
        nlos = np.einsum("lkuv,blkv->blku", self.nlos_factor, white)
        h = self.state.h_bar[None] * np.exp(1j * phase)[..., None] + nlos
        noise = despread_pilot_noise(self.rng, self.n_pilots, (batch, n_ap),
                                     u, self.tau_p, self.sigma2)
        h_hat = mmse_estimate(self.est, self.state.h_bar, phase, nlos,
                              self.pilot_of, self.p_hat, self.tau_p, noise)
        return h, h_hat


def _combined_products(h, h_hat):
    """x[b, l, k, j] = (estimate of k at AP l)^H (channel of j at AP l)."""
    return np.einsum("blku,blju->blkj", h_hat.conj(), h)


def uatf_monte_carlo(state, est, pilot_of, p, p_hat, tau_p, sigma2, weights,
                     n_trials, rng, batch=4096) -> UatfEstimate:
    """Plug-in Monte-Carlo SINR for fixed powers p (..., K) and CPU weights
    (..., K, L).

    Accumulates, per UE k, the per-trial scalars
      u    = sum_l conj(a_kl) x[l, k, k]            (combined useful term)
      w_j  = |sum_l conj(a_kl) x[l, k, j]|^2        (combined interference)
      nv   = sum_l |a_kl|^2 ||estimate_lk||^2        (noise scale)
    and forms gamma_k = p_k |mean u|^2 / (sum_j p_j mean w_j
    - p_k |mean u|^2 + sigma2 mean nv). The standard error comes from the
    delta method on the (K + 3)-dimensional vector of sample means.

    Leading axes of p and weights (broadcast together, as the candidate
    axes in se) list settings; gamma and stderr are (..., K). All settings
    share one sampling pass: each batch of channels and estimates, with its
    products x and estimate norms, is drawn once and feeds every setting,
    so the settings see common random numbers. Each setting's result equals
    a call for that setting alone with the same rng, bit for bit.
    """
    sampler = _TrialSampler(state, est, pilot_of, p_hat, tau_p, sigma2, rng)
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
        h, h_hat = sampler.draw(b)
        x = _combined_products(h, h_hat)
        # a copy, so no view keeps the complex einsum result alive
        vnorm = np.einsum("blku,blku->blk", h_hat.conj(), h_hat).real.copy()
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
    gamma = np.zeros((len(p), n_ue))
    stderr = np.zeros((len(p), n_ue))
    for s in range(len(p)):
        gamma[s], stderr[s] = _delta_method(acc1[s], acc2[s], p[s], sigma2,
                                            n_trials)
    return UatfEstimate(gamma=gamma.reshape(*lead, n_ue),
                        stderr=stderr.reshape(*lead, n_ue), n_trials=n_trials)


def _delta_method(acc1, acc2, p, sigma2, n_trials):
    """(gamma, stderr), each (K,), of one setting from its feature sums."""
    n_ue, dim = acc1.shape
    mean = acc1 / n_trials
    cov = acc2 / n_trials - np.einsum("ki,kj->kij", mean, mean)
    gamma = np.zeros(n_ue)
    stderr = np.zeros(n_ue)
    for k in range(n_ue):
        ur, ui = mean[k, 0], mean[k, 1]
        w = mean[k, 2:2 + n_ue]
        nv = mean[k, -1]
        num = p[k] * (ur ** 2 + ui ** 2)
        den = float(p @ w) - num + sigma2 * nv
        gamma[k] = num / den
        grad = np.zeros(dim)
        grad[0] = 2.0 * p[k] * ur * (den + num) / den ** 2
        grad[1] = 2.0 * p[k] * ui * (den + num) / den ** 2
        grad[2:2 + n_ue] = -num * p / den ** 2
        grad[-1] = -num * sigma2 / den ** 2
        var = float(grad @ cov[k] @ grad) / n_trials
        stderr[k] = np.sqrt(max(var, 0.0))
    return gamma, stderr
