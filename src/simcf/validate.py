# simcf/validate.py
# Self-contained oracle checks runnable from the CLI: estimation identities,
# closed-form-versus-Monte-Carlo agreement on a small instance, and decoder
# dominance. Each check returns (name, passed, detail) so callers can print
# one line per check.

import numpy as np

from . import se
from .config import SystemConfig
from .estimation import estimation_stats
from .montecarlo import uatf_monte_carlo
from .optimize import allocate_pilots
from .pipeline import NetworkModel
from .scenario import generate_drop


def _random_psd(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T / n


def check_estimation_identity(seed=0, n_instances=100, u=3):
    """pilot_power * tau_p * omega + err_cov must reproduce r exactly."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        n_copilot = int(rng.integers(1, 4))
        mats = [_random_psd(rng, u) for _ in range(n_copilot)]
        powers = rng.uniform(0.05, 0.3, n_copilot)
        tau_p = int(rng.integers(1, 8))
        sigma2 = float(rng.uniform(1e-3, 1e-1))
        stats = estimation_stats(mats[0], mats, powers, powers[0], tau_p, sigma2)
        lhs = powers[0] * tau_p * stats.omega + stats.err_cov
        rel = np.abs(lhs - mats[0]).max() / np.abs(mats[0]).max()
        worst = max(worst, float(rel))
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
        g_lsfd, _ = se.sinr_lsfd(terms, drop.p, p_hat, cfg.tau_p, cfg.sigma2)
        g_egcd = se.sinr_from_weights(terms, se.egcd_weights(terms), drop.p,
                                      p_hat, cfg.tau_p, cfg.sigma2)
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
