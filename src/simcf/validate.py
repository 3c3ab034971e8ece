# simcf/validate.py
# Self-contained oracle checks runnable from the CLI: estimation identities,
# closed-form-versus-Monte-Carlo agreement on a small instance, and decoder
# dominance. Each check returns (name, passed, detail) so callers can print
# one line per check.

import numpy as np

from . import se
from .channel import ChannelState
from .config import SystemConfig
from .estimation import build_estimation_state
from .montecarlo import uatf_monte_carlo
from .optimize import allocate_pilots
from .pipeline import NetworkModel
from .scenario import generate_drop


def _random_psd(rng, n_mats, n):
    a = rng.normal(size=(n_mats, n, n)) + 1j * rng.normal(size=(n_mats, n, n))
    return a @ a.conj().swapaxes(-1, -2) / n


def check_estimation_identity(seed=0, n_instances=100, u=3):
    """pilot_power * tau_p * omega + err_cov must reproduce r exactly.

    Each instance is a random factored network (PSD s per AP, NLoS gains,
    pilot reuse) run through the batched build_estimation_state.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        n_ap, n_ue = (int(x) for x in rng.integers(1, 5, size=2))
        tau_p = int(rng.integers(1, n_ue + 1))
        pilot_of = rng.integers(0, tau_p, n_ue)
        state = ChannelState(h_bar=np.zeros((n_ap, n_ue, u), dtype=complex),
                             s=_random_psd(rng, n_ap, u),
                             beta_nlos=rng.uniform(0.1, 1.0, (n_ap, n_ue)))
        p_hat = rng.uniform(0.05, 0.3, n_ue)
        sigma2 = float(rng.uniform(1e-3, 1e-1))
        est = build_estimation_state(state, pilot_of, p_hat, tau_p, sigma2)
        r = state.r_all()
        lhs = (p_hat * tau_p)[None, :, None, None] * est.omega + est.err_cov
        rel = (np.abs(lhs - r).max(axis=(-2, -1))
               / np.abs(r).max(axis=(-2, -1)))
        worst = max(worst, float(rel.max()))
    passed = worst <= 1e-10
    return ("estimation-identity", passed,
            f"max relative deviation {worst:.2e} over {n_instances} instances")


def _small_model(seed, l=3, k=3, u=2, n=9, m=2, tau_p=2):
    cfg = SystemConfig(L=l, K=k, U=u, M=m, N=n, tau_p=tau_p)
    drop = generate_drop(cfg, seed)
    pilots = allocate_pilots(drop)
    model = NetworkModel.from_drop(drop)
    phases = model.random_phases(np.random.default_rng([seed, 11]))
    return cfg, drop, pilots, model, phases


def check_closed_form_vs_mc(seed=0, n_trials=20000, z_limit=4.0):
    """Closed-form SINR must sit within z_limit MC standard errors."""
    cfg, drop, pilots, model, phases = _small_model(seed)
    p_hat = cfg.pilot_powers()
    state, est = model.states(phases, pilots.pilot_of)
    terms = model.terms_from(state, est, pilots.pilot_of)
    weights = np.stack([se.decoder_weights(terms, decoder, drop.p, p_hat,
                                           cfg.tau_p, cfg.sigma2)
                        for decoder in se.DECODERS])
    gamma = se.sinr_from_weights(terms, weights, drop.p, p_hat, cfg.tau_p,
                                 cfg.sigma2)
    mc = uatf_monte_carlo(state, est, pilots.pilot_of, drop.p, p_hat,
                          cfg.tau_p, cfg.sigma2, weights, n_trials,
                          rng=np.random.default_rng([seed, 7]))
    worst = float((np.abs(mc.gamma - gamma) / mc.stderr).max())
    passed = worst <= z_limit
    return ("closed-form-vs-monte-carlo", passed,
            f"worst |z| {worst:.2f} over both decoders, "
            f"{n_trials} trials, limit {z_limit}")


def check_decoder_dominance(seed=0, n_drops=25):
    """Optimal statistical weighting never loses to equal-gain decoding."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for i in range(n_drops):
        cfg, drop, pilots, model, phases = _small_model(int(rng.integers(1 << 31)))
        p_hat = cfg.pilot_powers()
        terms = model.terms(phases, pilots.pilot_of)
        weights = np.stack([se.decoder_weights(terms, decoder, drop.p, p_hat,
                                               cfg.tau_p, cfg.sigma2)
                            for decoder in ("lsfd", "egcd")])
        g_lsfd, g_egcd = se.sinr_from_weights(terms, weights, drop.p, p_hat,
                                              cfg.tau_p, cfg.sigma2)
        worst = min(worst, float((g_lsfd - g_egcd).min()))
    passed = worst >= -1e-9
    return ("decoder-dominance", passed,
            f"min SINR margin {worst:.3e} over {n_drops} drops")


ALL_CHECKS = (check_estimation_identity, check_closed_form_vs_mc,
              check_decoder_dominance)


def run_checks(seed=0, n_trials=20000):
    """Run every check; yields (name, passed, detail)."""
    yield check_estimation_identity(seed)
    yield check_closed_form_vs_mc(seed, n_trials=n_trials)
    yield check_decoder_dominance(seed)
