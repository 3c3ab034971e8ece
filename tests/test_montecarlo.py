import numpy as np
import pytest

from simcf import (lsfd_weights, maxmin_power, sinr_from_weights,
                   uatf_monte_carlo)
from simcf.montecarlo import _TrialSampler
from simcf.se import egcd_weights

from reference import SimUeChannelStats, sample_channel


def _setup(model, pilots, phases, cfg):
    state, est = model.states(phases, pilots.pilot_of)
    p_hat = cfg.pilot_powers()
    return state, est, p_hat


def test_mc_matches_closed_form(small_model, small_pilots, small_phases,
                                small_cfg, small_terms):
    cfg = small_cfg
    state, est, p_hat = _setup(small_model, small_pilots, small_phases, cfg)
    drop = small_model.drop
    for weights in (lsfd_weights(small_terms, drop.p, p_hat, cfg.tau_p,
                                 cfg.sigma2),
                    egcd_weights(small_terms)):
        gamma = sinr_from_weights(small_terms, weights, drop.p, p_hat,
                                  cfg.tau_p, cfg.sigma2)
        mc = uatf_monte_carlo(state, est, small_pilots.pilot_of, drop.p,
                              p_hat, cfg.tau_p, cfg.sigma2, weights,
                              40_000, rng=np.random.default_rng(1))
        z = np.abs(mc.gamma - gamma) / mc.stderr
        assert z.max() <= 4.0


def _settings(small_model, small_terms, cfg):
    """Powers (4, K) and weights (4, K, L): full and max-min powers, each
    with LSFD and EGCD weights."""
    p_hat = cfg.pilot_powers()
    full = small_model.drop.p
    lsfd = lsfd_weights(small_terms, full, p_hat, cfg.tau_p, cfg.sigma2)
    maxmin = maxmin_power(small_terms, lsfd, cfg.p_max, p_hat, cfg.tau_p,
                          cfg.sigma2).p
    assert not np.array_equal(maxmin, full)
    egcd = egcd_weights(small_terms)
    return (np.stack([full, full, maxmin, maxmin]),
            np.stack([lsfd, egcd, lsfd, egcd]))


def _assert_stacked_equals_separate(state, est, pilot_of, p, weights, cfg,
                                    n_trials, seed, **kwargs):
    stacked = uatf_monte_carlo(state, est, pilot_of, p, cfg.pilot_powers(),
                               cfg.tau_p, cfg.sigma2, weights, n_trials,
                               rng=np.random.default_rng(seed), **kwargs)
    lead = np.broadcast_shapes(p.shape[:-1], weights.shape[:-2])
    assert stacked.gamma.shape == stacked.stderr.shape == (*lead, cfg.K)
    assert stacked.n_trials == n_trials
    p = np.broadcast_to(p, (*lead, cfg.K))
    weights = np.broadcast_to(weights, (*lead, *weights.shape[-2:]))
    for i in np.ndindex(lead):
        alone = uatf_monte_carlo(state, est, pilot_of, p[i],
                                 cfg.pilot_powers(), cfg.tau_p, cfg.sigma2,
                                 weights[i], n_trials,
                                 rng=np.random.default_rng(seed), **kwargs)
        assert alone.gamma.shape == (cfg.K,)
        assert np.array_equal(stacked.gamma[i], alone.gamma)
        assert np.array_equal(stacked.stderr[i], alone.stderr)


def test_stacked_settings_equal_separate_calls(small_model, small_pilots,
                                               small_phases, small_cfg,
                                               small_terms):
    cfg = small_cfg
    state, est, _ = _setup(small_model, small_pilots, small_phases, cfg)
    p, weights = _settings(small_model, small_terms, cfg)
    pilot_of = small_pilots.pilot_of
    _assert_stacked_equals_separate(state, est, pilot_of, p, weights, cfg,
                                    2_000, 8, batch=512)
    # two leading axes, and one power vector broadcast over stacked weights
    _assert_stacked_equals_separate(state, est, pilot_of,
                                    p.reshape(2, 2, cfg.K),
                                    weights.reshape(2, 2, cfg.K, cfg.L),
                                    cfg, 2_000, 8, batch=512)
    _assert_stacked_equals_separate(state, est, pilot_of, p[0], weights[:2],
                                    cfg, 2_000, 9)


def test_one_element_settings_axis(small_model, small_pilots, small_phases,
                                   small_cfg, small_terms):
    cfg = small_cfg
    state, est, _ = _setup(small_model, small_pilots, small_phases, cfg)
    p, weights = _settings(small_model, small_terms, cfg)
    _assert_stacked_equals_separate(state, est, small_pilots.pilot_of,
                                    p[2:3], weights[2:3], cfg, 1_000, 10)


def test_stacked_settings_with_partial_last_batch(small_model, small_pilots,
                                                  small_phases, small_cfg,
                                                  small_terms):
    cfg = small_cfg
    state, est, _ = _setup(small_model, small_pilots, small_phases, cfg)
    p, weights = _settings(small_model, small_terms, cfg)
    _assert_stacked_equals_separate(state, est, small_pilots.pilot_of, p,
                                    weights, cfg, 150, 11, batch=64)


def test_stderr_scales_with_trials(small_model, small_pilots, small_phases,
                                   small_cfg, small_terms):
    cfg = small_cfg
    state, est, p_hat = _setup(small_model, small_pilots, small_phases, cfg)
    drop = small_model.drop
    w = egcd_weights(small_terms)
    reps = 6
    ratios = []
    for r in range(reps):
        a = uatf_monte_carlo(state, est, small_pilots.pilot_of, drop.p,
                             p_hat, cfg.tau_p, cfg.sigma2, w, 8_000,
                             rng=np.random.default_rng([2, r]))
        b = uatf_monte_carlo(state, est, small_pilots.pilot_of, drop.p,
                             p_hat, cfg.tau_p, cfg.sigma2, w, 16_000,
                             rng=np.random.default_rng([3, r]))
        ratios.append(b.stderr / a.stderr)
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio == pytest.approx(1 / np.sqrt(2), rel=0.2)


def test_zero_interferer_power_leaves_noise_denominator(small_model,
                                                        small_pilots,
                                                        small_phases,
                                                        small_cfg,
                                                        small_terms):
    # only UE 0 transmits: its MC SINR equals signal over (self-excess +
    # noise) and still matches the closed form
    cfg = small_cfg
    state, est, p_hat = _setup(small_model, small_pilots, small_phases, cfg)
    p = np.zeros(cfg.K)
    p[0] = cfg.p_max
    w = lsfd_weights(small_terms, p, p_hat, cfg.tau_p, cfg.sigma2)
    gamma = sinr_from_weights(small_terms, w, p, p_hat, cfg.tau_p, cfg.sigma2)
    mc = uatf_monte_carlo(state, est, small_pilots.pilot_of, p, p_hat,
                          cfg.tau_p, cfg.sigma2, w, 40_000,
                          rng=np.random.default_rng(4))
    z = abs(mc.gamma[0] - gamma[0]) / mc.stderr[0]
    assert z <= 4.0
    assert np.all(mc.gamma[1:] == 0)


def test_stack_domain_and_antenna_domain_sampling_agree(small_model,
                                                        small_pilots,
                                                        small_phases,
                                                        small_cfg):
    # projecting stack-side draws through the stack matches direct draws
    # from the effective statistics, distribution-wise (first two moments)
    cfg = small_cfg
    state = small_model.channel_state(small_phases)
    from simcf.sim_physics import cascade_through_antennas
    from simcf.channel import sinc_correlation, steering_units

    l, k = 1, 2
    r = state.r_all()[l, k]
    t = cascade_through_antennas(small_model.dset, small_phases[l])
    base = sinc_correlation(small_model.geom.output_grid, cfg.wavelength)
    steer = steering_units(small_model.geom, small_model.drop)[l, k]
    h_bar_sim = np.sqrt(small_model.drop.beta_los[l, k]) * steer
    r_sim = small_model.drop.beta_nlos[l, k] * base
    draws = 60_000
    sim = sample_channel(SimUeChannelStats(h_bar_sim=h_bar_sim, r_sim=r_sim),
                         np.random.default_rng(5), size=draws)
    projected = sim @ t.conj()
    # the random common phase zeroes the mean ...
    scale = np.sqrt(np.abs(np.diag(r)).max()
                    + np.abs(state.h_bar[l, k]).max() ** 2)
    assert np.all(np.abs(projected.mean(axis=0)) <= 5 * scale / np.sqrt(draws))
    # ... and the second moment hits r + h_bar h_bar^H of the effective stats
    second = projected.T @ projected.conj() / draws
    target = r + np.outer(state.h_bar[l, k], state.h_bar[l, k].conj())
    assert np.all(np.abs(second - target)
                  <= 15 * scale ** 2 / np.sqrt(draws))


def test_sampler_pilot_noise_shared_within_pilot(small_model, small_pilots,
                                                 small_phases, small_cfg):
    # UEs on the same pilot see identical despread noise: with all channel
    # randomness suppressed the pilot observations of co-pilot UEs coincide
    cfg = small_cfg
    state = small_model.channel_state(small_phases)
    state = type(state)(h_bar=np.zeros_like(state.h_bar),
                        s=np.zeros_like(state.s),
                        beta_nlos=np.zeros_like(state.beta_nlos))
    est = small_model.estimation_state(state, small_pilots.pilot_of)
    sampler = _TrialSampler(state, est, small_pilots.pilot_of,
                            cfg.pilot_powers(), cfg.tau_p, cfg.sigma2,
                            np.random.default_rng(6))
    _, h_hat = sampler.draw(16)
    pk = small_pilots.pilot_of
    same = np.flatnonzero(pk == pk[0])
    if same.size >= 2:
        a, b = same[:2]
        # estimator gains differ but are invertible at U <= N; undo them
        ga = np.linalg.pinv(est.gain[0, a])
        gb = np.linalg.pinv(est.gain[0, b])
        qa = np.einsum("uv,bv->bu", ga, h_hat[:, 0, a, :])
        qb = np.einsum("uv,bv->bu", gb, h_hat[:, 0, b, :])
        assert np.allclose(qa, qb, atol=1e-12 * max(np.abs(qa).max(), 1e-30))
