# simcf/validate.py
# Self-contained oracle checks runnable from the CLI: the MMSE core against
# each link's own pilot system, closed-form-versus-Monte-Carlo agreement on a
# small instance, and decoder dominance. Each check returns (name, passed,
# detail) so callers can print one line per check.

import numpy as np

from . import se
from .channel import ChannelState
from .config import SystemConfig
from .estimation import build_estimation_state, pilot_map
from .montecarlo import uatf_monte_carlo
from .optimize import allocate_pilots
from .pipeline import NetworkModel
from .scenario import generate_drop


def _random_psd(rng, n_mats, n):
    a = rng.normal(size=(n_mats, n, n)) + 1j * rng.normal(size=(n_mats, n, n))
    return a @ a.conj().swapaxes(-1, -2) / n


def check_pilot_systems(seed=0, n_instances=100, antennas=(3, 2)):
    """The MMSE core of every link must solve that link's pilot system
    psi_lk core_lk = r_lk, with psi_lk = sigma2 I + tau_p sum_j p_hat_j r_lj
    summed one co-pilot j of k at a time; the largest residual is relative
    to the largest entry of r_lk.

    Each instance is a random factored network (PSD s per AP, NLoS gains,
    pilot reuse) run through build_estimation_state, whose core is formed
    from one eigendecomposition of s per AP. n_instances run at each
    antenna count of antennas, in turn.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for u in antennas:
        for _ in range(n_instances):
            worst = max(worst, _pilot_system_residual(rng, u))
    passed = worst <= 1e-10
    counts = " and ".join(str(u) for u in antennas)
    return ("pilot-system-residual", passed,
            f"max relative residual {worst:.2e} over {n_instances} "
            f"instances each at U = {counts}")


def _pilot_system_residual(rng, u):
    """Largest relative residual of the pilot systems of one random
    instance with u antennas per AP."""
    n_ap, n_ue = (int(x) for x in rng.integers(1, 5, size=2))
    tau_p = int(rng.integers(1, n_ue + 1))
    pilot_of = rng.integers(0, tau_p, n_ue)
    state = ChannelState(h_bar=np.zeros((n_ap, n_ue, u), dtype=complex),
                         s=_random_psd(rng, n_ap, u),
                         beta_nlos=rng.uniform(0.1, 1.0, (n_ap, n_ue)))
    p_hat = rng.uniform(0.05, 0.3, n_ue)
    sigma2 = float(rng.uniform(1e-3, 1e-1))
    est = build_estimation_state(state, pilot_map(pilot_of, p_hat, tau_p),
                                 sigma2)
    r = state.beta_nlos[:, :, None, None] * state.s[:, None]
    worst = 0.0
    for k in range(n_ue):
        psi = sigma2 * np.eye(u)
        for j in np.flatnonzero(pilot_of == pilot_of[k]):
            psi = psi + tau_p * p_hat[j] * r[:, j]
        rel = (np.abs(psi @ est.core[:, k] - r[:, k]).max(axis=(-2, -1))
               / np.abs(r[:, k]).max(axis=(-2, -1)))
        worst = max(worst, float(rel.max()))
    return worst


def _small_model(seed, l=3, k=3, u=2, n=9, m=2, tau_p=2):
    cfg = SystemConfig(L=l, K=k, U=u, M=m, N=n, tau_p=tau_p)
    drop = generate_drop(cfg, seed)
    model = NetworkModel.from_drop(drop, allocate_pilots(drop))
    phases = model.random_phases(np.random.default_rng([seed, 11]))
    return drop, model, phases


def check_closed_form_vs_mc(seed=0, n_trials=20000, z_limit=4.0):
    """Closed-form SINR must sit within z_limit MC standard errors."""
    drop, model, phases = _small_model(seed)
    state, est = model.states(phases)
    terms = se.sinr_terms(state, est)
    weights = np.stack([se.decoder_weights(terms, decoder, drop.p)
                        for decoder in se.DECODERS])
    gamma = se.sinr_from_weights(terms, weights, drop.p)
    mc = uatf_monte_carlo(state, est, drop.p, weights, n_trials,
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
        drop, model, phases = _small_model(int(rng.integers(1 << 31)))
        terms = model.terms(phases)
        weights = np.stack([se.decoder_weights(terms, decoder, drop.p)
                            for decoder in ("lsfd", "egcd")])
        g_lsfd, g_egcd = se.sinr_from_weights(terms, weights, drop.p)
        worst = min(worst, float((g_lsfd - g_egcd).min()))
    passed = worst >= -1e-9
    return ("decoder-dominance", passed,
            f"min SINR margin {worst:.3e} over {n_drops} drops")


def run_checks(seed=0, n_trials=20000):
    """Run every check; yields (name, passed, detail)."""
    yield check_pilot_systems(seed)
    yield check_closed_form_vs_mc(seed, n_trials=n_trials)
    yield check_decoder_dominance(seed)
