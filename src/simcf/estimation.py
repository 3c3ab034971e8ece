# simcf/estimation.py
# Phase-aware MMSE channel estimation: second-order statistics of every
# (AP, UE) link at once (estimate covariance and estimator core, both from
# the pilot-domain covariance of each (AP, pilot)) and realization-level
# estimates for Monte-Carlo runs. The pilot map, pilot powers, tau_p and
# sigma2 enter here once and travel with the EstimationState.

import logging
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState

log = logging.getLogger(__name__)


class EstimationError(RuntimeError):
    """Raised on broken estimation inputs (singular pilot covariance, ...)."""


@dataclass(frozen=True)
class EstimationState:
    """Batched estimation statistics for every (AP, UE) link, with the
    pilot map, pilot powers, tau_p and sigma2 they were built for.
    build_estimation_state forms the pilot covariance psi per (AP, pilot)
    and keeps only what it solves from psi. mmse_estimate forms the
    estimator matrix sqrt(p_hat_k) core^H from core. The error covariance
    is r - p_hat_k tau_p omega."""
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


def build_estimation_state(state: ChannelState, pilot_of, p_hat, tau_p,
                           sigma2) -> EstimationState:
    """Estimation statistics for all links given a pilot assignment.

    Exploits the factored covariance r[l, k] = beta_nlos[l, k] * s[l]: the
    pilot covariance at AP l depends on the pilot index only. Its condition
    is checked once per (AP, pilot) when DEBUG logging is on.
    """
    pilot_of = np.asarray(pilot_of)
    onehot = _pilot_onehot(pilot_of)
    u = state.h_bar.shape[-1]
    p_hat = np.asarray(p_hat, dtype=float)
    # pilot-domain load per (AP, pilot): tau_p * sum of co-pilot NLoS gains
    load = tau_p * (state.beta_nlos * p_hat[None, :]) @ onehot   # (L, T)
    psi_t = (load[:, :, None, None] * state.s[:, None]
             + sigma2 * np.eye(u)[None, None])                  # (L, T, U, U)
    _monitor_conditioning(psi_t)
    r = state.r_all()
    try:
        core = np.linalg.solve(psi_t[:, pilot_of], r)            # psi^-1 r
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"pilot covariance is singular: {exc}") from exc
    omega = r @ core
    omega = 0.5 * (omega + omega.conj().swapaxes(-1, -2))
    return EstimationState(core=core, omega=omega, pilot_of=pilot_of,
                           p_hat=p_hat, tau_p=tau_p, sigma2=sigma2)


def _monitor_conditioning(psi):
    """Log badly conditioned pilot covariances (debug runs only; the check
    costs a batched eigendecomposition per evaluation)."""
    if not log.isEnabledFor(logging.DEBUG):
        return
    w = np.linalg.eigvalsh(psi)
    worst = float(np.max(w[..., -1] / np.maximum(w[..., 0], 1e-300)))
    if worst > 1e12:
        log.warning("pilot covariance badly conditioned (cond %.3e)", worst)


def despread_pilot_noise(rng, n_pilots, shape_prefix, u, tau_p, sigma2):
    """Noise of the despread pilot observation, CN(0, tau_p sigma2 I_U).

    One independent draw per pilot sequence (UEs sharing a pilot see the
    same despread noise); shape (*shape_prefix, n_pilots, u).
    """
    scale = np.sqrt(tau_p * sigma2 / 2.0)
    shape = (*shape_prefix, n_pilots, u)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def link_matvec(f, v):
    """Per-link matrix-vector products f[l, k] @ v[..., l, k, :] for
    matrices f (L, K, U, U) and vectors v (..., L, K, U), as explicit sums
    over the U axis (one broadcast product per column of f)."""
    out = f[..., 0] * v[..., 0, None]
    for j in range(1, f.shape[-1]):
        out += f[..., j] * v[..., j, None]
    return out


def mmse_estimate(est: EstimationState, los, nlos, pilot_noise):
    """Realization-level estimates from sampled channels.

    los: (..., L, K, U) sampled LoS parts h_bar e^{j phase}; nlos:
    (..., L, K, U) sampled zero-mean channel parts; pilot_noise:
    (..., L, T, U) with T = est.pilot_of.max() + 1. Returns estimates of
    shape (..., L, K, U); the error is (true channel) - (estimate) with
    true = los + nlos. Each pilot's observation (tau_p times its UEs'
    weighted NLoS sum, plus its noise) is formed once and read by every UE
    on it through sqrt(p_hat_k) core^H.
    """
    onehot = _pilot_onehot(est.pilot_of)
    p_root = np.sqrt(est.p_hat)
    # one matmul sums each pilot's weighted NLoS: (..., L, U, K) @ (K, T)
    observed = (est.tau_p * np.tensordot(p_root[:, None] * nlos, onehot,
                                         axes=(-2, 0)).swapaxes(-1, -2)
                + pilot_noise)[..., est.pilot_of, :]
    gain = p_root[None, :, None, None] * est.core.conj().swapaxes(-1, -2)
    estimate = link_matvec(gain, observed)
    estimate += los
    return estimate
