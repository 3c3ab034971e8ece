# simcf/estimation.py
# Phase-aware MMSE channel estimation: second-order statistics of every
# (AP, UE) link at once (pilot-domain covariance, estimate covariance, error
# covariance, estimator gain) and realization-level estimates for
# Monte-Carlo runs.

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState


class EstimationError(RuntimeError):
    """Raised on broken estimation inputs (singular pilot covariance, ...)."""


@dataclass(frozen=True)
class EstimationState:
    """Batched estimation statistics for every (AP, UE) link."""
    psi: np.ndarray       # (L, K, U, U)
    core: np.ndarray      # (L, K, U, U) psi^-1 r
    omega: np.ndarray     # (L, K, U, U)
    err_cov: np.ndarray   # (L, K, U, U)
    gain: np.ndarray      # (L, K, U, U) estimator matrix sqrt(p_hat_k) r psi^-1


def build_estimation_state(state: ChannelState, pilot_of, p_hat, tau_p,
                           sigma2) -> EstimationState:
    """Estimation statistics for all links given a pilot assignment.

    Exploits the factored covariance r[l, k] = beta_nlos[l, k] * s[l]: the
    pilot covariance at AP l depends on the pilot index only.
    """
    pilot_of = np.asarray(pilot_of)
    if np.any(pilot_of < 0):
        raise EstimationError("pilot assignment incomplete (unassigned UEs)")
    n_ap, n_ue, u = state.h_bar.shape
    p_hat = np.asarray(p_hat, dtype=float)
    # pilot-domain load per (AP, pilot): tau_p * sum of co-pilot NLoS gains
    n_pilots = int(pilot_of.max()) + 1
    onehot = np.zeros((n_ue, n_pilots))
    onehot[np.arange(n_ue), pilot_of] = 1.0
    load = tau_p * (state.beta_nlos * p_hat[None, :]) @ onehot   # (L, T)
    psi_t = (load[:, :, None, None] * state.s[:, None]
             + sigma2 * np.eye(u)[None, None])                  # (L, T, U, U)
    psi = psi_t[:, pilot_of]                                     # (L, K, U, U)
    r = state.r_all()
    try:
        core = np.linalg.solve(psi, r)                           # psi^-1 r
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"pilot covariance is singular: {exc}") from exc
    omega = r @ core
    omega = 0.5 * (omega + omega.conj().swapaxes(-1, -2))
    err_cov = r - (p_hat * tau_p)[None, :, None, None] * omega
    gain = np.sqrt(p_hat)[None, :, None, None] * core.conj().swapaxes(-1, -2)
    return EstimationState(psi=psi, core=core, omega=omega, err_cov=err_cov,
                           gain=gain)


def despread_pilot_noise(rng, n_pilots, shape_prefix, u, tau_p, sigma2):
    """Noise of the despread pilot observation, CN(0, tau_p sigma2 I_U).

    One independent draw per pilot sequence (UEs sharing a pilot see the
    same despread noise); shape (*shape_prefix, n_pilots, u).
    """
    scale = np.sqrt(tau_p * sigma2 / 2.0)
    shape = (*shape_prefix, n_pilots, u)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def mmse_estimate(est: EstimationState, h_bar, phase, nlos, pilot_of, p_hat,
                  tau_p, pilot_noise):
    """Realization-level estimates from sampled channels.

    h_bar: (L, K, U) mean channels; phase: (..., L, K) sampled LoS phases;
    nlos: (..., L, K, U) sampled zero-mean channel parts; pilot_noise:
    (..., L, n_pilots, U). Returns estimates of shape (..., L, K, U); the
    error is (true channel) - (estimate) with true = h_bar e^{j phase} + nlos.
    """
    pilot_of = np.asarray(pilot_of)
    n_ue = h_bar.shape[1]
    weighted = np.sqrt(np.asarray(p_hat, dtype=float))[:, None] * nlos
    observed = np.zeros_like(nlos)
    for k in range(n_ue):
        copilots = np.flatnonzero(pilot_of == pilot_of[k])
        observed[..., k, :] = tau_p * weighted[..., copilots, :].sum(axis=-2) \
            + pilot_noise[..., pilot_of[k], :]
    los = h_bar * np.exp(1j * phase)[..., None]
    return los + np.einsum("lkuv,...lkv->...lku", est.gain, observed)
