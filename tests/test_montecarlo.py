import tracemalloc

import numpy as np
import pytest

from simcf import (SystemConfig, allocate_pilots, generate_drop, lsfd_weights,
                   maxmin_power, montecarlo, sinr_from_weights,
                   uatf_monte_carlo)
from simcf.channel import ChannelState
from simcf.estimation import build_estimation_state, mmse_estimate, pilot_map
from simcf.montecarlo import _delta_method, _TrialSampler, _Workspace
from simcf.pipeline import NetworkModel
from simcf.se import egcd_weights, sinr_coefficients

from reference import (SimUeChannelStats, delta_method_loop, draw, draw_einsum,
                       draw_pilot_noise, r_all, sample_channel,
                       uatf_monte_carlo_batch, uatf_monte_carlo_einsum)


def test_mc_matches_closed_form(small_model, small_phases, small_terms):
    state, est = small_model.states(small_phases)
    drop = small_model.drop
    for weights in (lsfd_weights(small_terms, drop.p),
                    egcd_weights(small_terms)):
        gamma = sinr_from_weights(small_terms, weights, drop.p)
        mc = uatf_monte_carlo(state, est, drop.p, weights, 40_000,
                              rng=np.random.default_rng(1))
        z = np.abs(mc.gamma - gamma) / mc.stderr
        assert z.max() <= 4.0


def _settings(small_model, small_terms, cfg):
    """Powers (4, K) and weights (4, K, L): full and max-min powers, each
    with LSFD and EGCD weights."""
    full = small_model.drop.p
    lsfd = lsfd_weights(small_terms, full)
    maxmin = maxmin_power(sinr_coefficients(small_terms, lsfd), cfg.p_max)[0].p
    assert not np.array_equal(maxmin, full)
    egcd = egcd_weights(small_terms)
    return (np.stack([full, full, maxmin, maxmin]),
            np.stack([lsfd, egcd, lsfd, egcd]))


def _assert_stacked_equals_separate(state, est, p, weights, cfg, n_trials,
                                    seed, **kwargs):
    stacked = uatf_monte_carlo(state, est, p, weights, n_trials,
                               rng=np.random.default_rng(seed), **kwargs)
    lead = np.broadcast_shapes(p.shape[:-1], weights.shape[:-2])
    assert stacked.gamma.shape == stacked.stderr.shape == (*lead, cfg.K)
    assert stacked.n_trials == n_trials
    p = np.broadcast_to(p, (*lead, cfg.K))
    weights = np.broadcast_to(weights, (*lead, *weights.shape[-2:]))
    for i in np.ndindex(lead):
        alone = uatf_monte_carlo(state, est, p[i], weights[i], n_trials,
                                 rng=np.random.default_rng(seed), **kwargs)
        assert alone.gamma.shape == (cfg.K,)
        assert np.array_equal(stacked.gamma[i], alone.gamma)
        assert np.array_equal(stacked.stderr[i], alone.stderr)


def test_stacked_settings_equal_separate_calls(small_model, small_phases,
                                               small_cfg, small_terms):
    cfg = small_cfg
    state, est = small_model.states(small_phases)
    p, weights = _settings(small_model, small_terms, cfg)
    _assert_stacked_equals_separate(state, est, p, weights, cfg, 2_000, 8,
                                    batch=512)
    # two leading axes, and one power vector broadcast over stacked weights
    _assert_stacked_equals_separate(state, est, p.reshape(2, 2, cfg.K),
                                    weights.reshape(2, 2, cfg.K, cfg.L),
                                    cfg, 2_000, 8, batch=512)
    _assert_stacked_equals_separate(state, est, p[0], weights[:2], cfg,
                                    2_000, 9)


def test_one_element_settings_axis(small_model, small_phases, small_cfg,
                                   small_terms):
    cfg = small_cfg
    state, est = small_model.states(small_phases)
    p, weights = _settings(small_model, small_terms, cfg)
    _assert_stacked_equals_separate(state, est, p[2:3], weights[2:3], cfg,
                                    1_000, 10)


def test_stacked_settings_with_partial_last_batch(small_model, small_phases,
                                                  small_cfg, small_terms):
    cfg = small_cfg
    state, est = small_model.states(small_phases)
    p, weights = _settings(small_model, small_terms, cfg)
    _assert_stacked_equals_separate(state, est, p, weights, cfg, 150, 11,
                                    batch=64)


def test_stderr_scales_with_trials(small_model, small_phases, small_terms):
    state, est = small_model.states(small_phases)
    drop = small_model.drop
    w = egcd_weights(small_terms)
    reps = 6
    ratios = []
    for r in range(reps):
        a = uatf_monte_carlo(state, est, drop.p, w, 8_000,
                             rng=np.random.default_rng([2, r]))
        b = uatf_monte_carlo(state, est, drop.p, w, 16_000,
                             rng=np.random.default_rng([3, r]))
        ratios.append(b.stderr / a.stderr)
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio == pytest.approx(1 / np.sqrt(2), rel=0.2)


def test_zero_interferer_power_leaves_noise_denominator(small_model,
                                                        small_phases,
                                                        small_cfg,
                                                        small_terms):
    # only UE 0 transmits: its MC SINR equals signal over (self-excess +
    # noise) and still matches the closed form
    cfg = small_cfg
    state, est = small_model.states(small_phases)
    p = np.zeros(cfg.K)
    p[0] = cfg.p_max
    w = lsfd_weights(small_terms, p)
    gamma = sinr_from_weights(small_terms, w, p)
    mc = uatf_monte_carlo(state, est, p, w, 40_000,
                          rng=np.random.default_rng(4))
    z = abs(mc.gamma[0] - gamma[0]) / mc.stderr[0]
    assert z <= 4.0
    assert np.all(mc.gamma[1:] == 0)


def test_stack_domain_and_antenna_domain_sampling_agree(small_model,
                                                        small_phases,
                                                        small_cfg):
    # projecting stack-side draws through the stack matches direct draws
    # from the effective statistics, distribution-wise (first two moments)
    cfg = small_cfg
    state = small_model.channel_state(small_phases)
    from simcf.sim_physics import cascade_through_antennas
    from simcf.channel import steering_units
    from simcf.sim_physics import sinc_correlation, stack_for

    l, k = 1, 2
    r = r_all(state)[l, k]
    t = cascade_through_antennas(small_model.dset, small_phases[l])
    geom, _ = stack_for(cfg)
    base = sinc_correlation(geom.output_grid, cfg.wavelength)
    steer = steering_units(geom, small_model.drop)[l, k]
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


@pytest.mark.parametrize("u", [1, 2, 3])
def test_nlos_factor_squares_to_each_link_covariance(u):
    # sqrt(beta_nlos) times one square root of s per AP: F F^H = beta_nlos s
    cfg = SystemConfig(L=3, K=4, U=u, M=2, N=9, tau_p=2)
    drop = generate_drop(cfg, 31)
    model = NetworkModel.from_drop(drop, allocate_pilots(drop))
    state, est = model.states(model.random_phases([31, 1]))
    f = _TrialSampler(state, est, 0).nlos_factor
    r = r_all(state)
    assert f.shape == r.shape == (cfg.L, cfg.K, u, u)
    rel = (np.abs(f @ f.conj().swapaxes(-1, -2) - r).max(axis=(-2, -1))
           / np.abs(r).max(axis=(-2, -1)))
    assert rel.max() <= 1e-12


def test_non_psd_correlation_raises_linalg_error():
    # s = diag(1, -1e-6) is indefinite beyond roundoff, yet its pilot
    # covariances stay positive definite over the noise floor, so the
    # estimation state builds and the sampler's square root must refuse s
    state = ChannelState(h_bar=np.zeros((1, 2, 2), dtype=complex),
                         s=np.diag([1.0, -1e-6]).astype(complex)[None],
                         beta_nlos=np.full((1, 2), 1e-9))
    est = build_estimation_state(state, pilot_map([0, 1], np.full(2, 0.2), 2),
                                 1e-12)
    with pytest.raises(np.linalg.LinAlgError, match="not PSD"):
        uatf_monte_carlo(state, est, np.full(2, 0.2), np.ones((2, 1)), 2,
                         rng=0)


def test_sampler_pilot_noise_shared_within_pilot(small_model, small_phases,
                                                 small_cfg):
    # UEs on the same pilot see identical despread noise. With no LoS and no
    # NLoS the estimate of UE k is its estimator matrix sqrt(p_hat_k) core^H
    # applied to the noise of its pilot; undoing that matrix (invertible at
    # U <= N) must give back that pilot's noise row.
    cfg = small_cfg
    p_hat = cfg.pilot_powers()
    state = small_model.channel_state(small_phases)
    rng = np.random.default_rng(6)
    lead = (16, cfg.L, cfg.K)
    for pilot_of in ([0, 1, 0], [1, 0, 1], [1, 1, 0], [0, 0, 0]):
        pilot_of = np.array(pilot_of)
        est = build_estimation_state(
            state, pilot_map(pilot_of, p_hat, cfg.tau_p), cfg.sigma2)
        noise = draw_pilot_noise(rng, pilot_of.max() + 1, lead[:2], cfg.U,
                                 cfg.tau_p, cfg.sigma2)
        h_hat = mmse_estimate(est, np.zeros((*lead, cfg.U)),
                              np.zeros((*lead, cfg.U)), noise)
        gain = (np.sqrt(p_hat)[:, None, None]
                * est.core.conj().swapaxes(-1, -2))
        rows = np.linalg.solve(gain, h_hat[..., None])[..., 0]
        assert np.abs(h_hat).min() > 0
        # row k is the noise of pilot_of[k], so co-pilot rows are equal
        assert np.allclose(rows, noise[:, :, pilot_of], rtol=1e-9, atol=0)


def test_delta_method_matches_per_setting_loop():
    # feature sums of S settings of a K-UE network, with per-trial
    # interference w_k >= |u_k|^2 so every denominator is positive
    rng = np.random.default_rng(13)
    n_trials, n_set, n_ue = 500, 4, 3
    u = rng.normal(1.0, 0.4, (n_trials, n_set, n_ue, 2))
    w = rng.exponential(0.5, (n_trials, n_set, n_ue, n_ue))
    w[..., np.arange(n_ue), np.arange(n_ue)] += (u ** 2).sum(axis=-1)
    nv = rng.uniform(0.5, 2.0, (n_trials, n_set, n_ue, 1))
    feats = np.concatenate([u, w, nv], axis=-1)
    acc1 = feats.sum(axis=0)
    acc2 = np.einsum("bski,bskj->skij", feats, feats)
    p = rng.uniform(0.0, 1.0, (n_set, n_ue))
    p[1, 2] = 0.0                            # a silent UE has SINR 0
    gamma, stderr = _delta_method(acc1, acc2, p, 0.3, n_trials)
    ref_gamma, ref_stderr = delta_method_loop(acc1, acc2, p, 0.3, n_trials)
    assert gamma.shape == stderr.shape == (n_set, n_ue)
    assert np.count_nonzero(ref_stderr) == n_set * n_ue - 1
    assert gamma[1, 2] == stderr[1, 2] == 0.0
    np.testing.assert_allclose(gamma, ref_gamma, rtol=1e-12, atol=0)
    np.testing.assert_allclose(stderr, ref_stderr, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kwargs", [dict(n_trials=0), dict(n_trials=-5),
                                    dict(n_trials=100, batch=0),
                                    dict(n_trials=1),
                                    dict(n_trials=float("inf")),
                                    dict(n_trials=2.5),
                                    dict(n_trials=100, batch=2.5),
                                    dict(n_trials=100, batch=True)])
def test_degenerate_trial_counts_rejected(small_model, small_phases,
                                          small_terms, kwargs):
    state, est = small_model.states(small_phases)
    with pytest.raises(ValueError, match="n_trials >= 2 and batch >= 1"):
        uatf_monte_carlo(state, est, small_model.drop.p,
                         egcd_weights(small_terms),
                         rng=np.random.default_rng(0), **kwargs)


def _network(cfg, seed):
    """(model, pilot_of, state, est, terms) of one drop of cfg."""
    drop = generate_drop(cfg, seed)
    model = NetworkModel.from_drop(drop, allocate_pilots(drop))
    pilot_of = model.pilots.pilot_of
    phases = model.random_phases(np.random.default_rng(seed))
    state, est = model.states(phases)
    return model, pilot_of, state, est, model.terms(phases)


def _complex_settings(model, terms):
    """Powers (2, K) and weights (2, K, L): full and half powers, LSFD and
    turned EGCD weights. LSFD and EGCD weights are real; complex ones
    exercise the conjugate."""
    cfg = model.cfg
    turn = np.exp(1j * np.random.default_rng(0).uniform(-np.pi, np.pi,
                                                        (cfg.K, cfg.L)))
    return (np.stack([model.drop.p, 0.5 * model.drop.p]),
            np.stack([lsfd_weights(terms, model.drop.p),
                      turn * egcd_weights(terms)]))


@pytest.mark.parametrize("u", [1, 2, 3])
def test_sampler_matches_einsum_oracle(u):
    # the explicit U sums and batched matmuls round differently from the
    # einsum contractions through the (b, L, K, K) tensor, by far less
    # than rtol; 150 trials in batches of 64 end on a partial batch
    cfg = SystemConfig(L=3, K=3, U=u, M=2, N=9, tau_p=2)
    model, pilot_of, state, est, terms = _network(cfg, 20 + u)
    pilots = (pilot_of, cfg.pilot_powers(), cfg.tau_p, cfg.sigma2)
    sampler = _TrialSampler(state, est, np.random.default_rng(u))
    oracle = _TrialSampler(state, est, np.random.default_rng(u))
    for b in (64, 22):
        for got, want in zip(draw(sampler, b),
                             draw_einsum(oracle, b, *pilots)):
            assert got.shape == (b, cfg.L, cfg.K, u)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    p, weights = _complex_settings(model, terms)
    mc = uatf_monte_carlo(state, est, p, weights, 150,
                          rng=np.random.default_rng(u), batch=64)
    gamma, stderr = uatf_monte_carlo_einsum(state, est, pilots[0], p,
                                            *pilots[1:], weights, 150,
                                            rng=np.random.default_rng(u),
                                            batch=64)
    np.testing.assert_allclose(mc.gamma, gamma, rtol=1e-12, atol=0)
    np.testing.assert_allclose(mc.stderr, stderr, rtol=1e-12, atol=0)


@pytest.mark.parametrize("u", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_chunks_equal_batch_at_once_oracle(u, chunk, monkeypatch):
    # the chunked pass runs the oracle's arithmetic on runs of trials of a
    # batch drawn in the oracle's stream order: equal bit for bit at chunks
    # of 1, 7 and more than a batch of trials; 150 trials in batches of 64
    # end on a partial batch
    cfg = SystemConfig(L=3, K=3, U=u, M=2, N=9, tau_p=2)
    model, _, state, est, terms = _network(cfg, 20 + u)
    monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS",
                        chunk * cfg.L * cfg.K * u)
    p, weights = _complex_settings(model, terms)
    mc = uatf_monte_carlo(state, est, p, weights, 150,
                          rng=np.random.default_rng(u), batch=64)
    gamma, stderr = uatf_monte_carlo_batch(state, est, p, weights, 150,
                                           rng=np.random.default_rng(u),
                                           batch=64)
    assert np.array_equal(mc.gamma, gamma)
    assert np.array_equal(mc.stderr, stderr)


@pytest.mark.parametrize("n_trials", [40, 128])
def test_workspace_batches_equal_batch_at_once_oracle(n_trials):
    # fewer trials than one batch of 64 (the call's only workspace holds
    # 40 trials) and an exact multiple of it (two batches refill one
    # workspace); a second call on a fresh generator inherits nothing
    cfg = SystemConfig(L=3, K=3, U=2, M=2, N=9, tau_p=2)
    model, _, state, est, terms = _network(cfg, 22)
    p, weights = _complex_settings(model, terms)
    gamma, stderr = uatf_monte_carlo_batch(state, est, p, weights, n_trials,
                                           rng=np.random.default_rng(5),
                                           batch=64)
    for _ in range(2):
        mc = uatf_monte_carlo(state, est, p, weights, n_trials,
                              rng=np.random.default_rng(5), batch=64)
        assert np.array_equal(mc.gamma, gamma)
        assert np.array_equal(mc.stderr, stderr)


def test_numbers_drawn_into_workspace_continue_the_stream(small_model,
                                                          small_phases):
    # batches of 64, 64 (refilling the workspace) and 22 (the fronts of its
    # buffers, C-contiguous like fresh arrays) take the numbers fresh draws
    # of a twin generator give, in the documented order: phases, white real
    # and imaginary parts, pilot noise real and imaginary parts
    state, est = small_model.states(small_phases)
    sampler = _TrialSampler(state, est, np.random.default_rng(12))
    twin = np.random.default_rng(12)
    n_ap, n_ue, u = sampler.shape
    links, pilots = (n_ap, n_ue, u), (n_ap, sampler.n_pilots, u)
    work = _Workspace(sampler, 64, 1)
    for b in (64, 64, 22):
        got = sampler.numbers(work.arrays(b)[0])
        want = (twin.uniform(-np.pi, np.pi, size=(b, n_ap, n_ue)),
                twin.standard_normal((b, *links)),
                twin.standard_normal((b, *links)),
                twin.standard_normal((b, *pilots)),
                twin.standard_normal((b, *pilots)))
        assert len(got) == len(want)
        for x, y, buffer in zip(got, want, work.buffers):
            assert x.shape == y.shape
            assert x.flags.c_contiguous and np.shares_memory(x, buffer)
            assert np.array_equal(x, y)


def test_los_phasors_equal_exp_of_phases():
    # the sampler writes e^{j phase} as cos and sin into the real and
    # imaginary parts; the digests and the batch oracle rely on that
    # being np.exp(1j * phase) bit for bit. With h_bar = 1 and zero
    # white and noise draws each channel is its phasor.
    n_ap, n_ue, b = 4, 5, 2000
    state = ChannelState(h_bar=np.ones((n_ap, n_ue, 1), dtype=complex),
                         s=np.ones((n_ap, 1, 1), dtype=complex),
                         beta_nlos=np.full((n_ap, n_ue), 1e-9))
    est = build_estimation_state(
        state, pilot_map(np.arange(n_ue) % 2, np.full(n_ue, 0.2), 2), 1e-12)
    sampler = _TrialSampler(state, est, 0)
    drawn = sampler.numbers(_Workspace(sampler, b, 1).arrays(b)[0])[0]
    wide = np.random.default_rng(1).uniform(-50.0, 50.0, drawn.shape)
    for phase in (drawn, wide):
        white = np.zeros((b, n_ap, n_ue, 1))
        noise = np.zeros((b, n_ap, sampler.n_pilots, 1))
        h, _ = sampler.realize((phase, white, white, noise, noise))
        assert np.array_equal(h[..., 0], np.exp(1j * phase)), (
            "cos/sin phasors differ from np.exp(1j * phase) on this platform")


def test_one_feature_pass_per_weight_set(small_model, small_phases,
                                         small_cfg, small_terms,
                                         monkeypatch):
    # the Monte-Carlo settings of an experiment cell: weights (decoders, K,
    # L) and powers (power kinds, decoders, K). Each batch forms features
    # once per decoder, not once per setting, and every setting equals its
    # call alone.
    cfg = small_cfg
    state, est = small_model.states(small_phases)
    p, weights = _settings(small_model, small_terms, cfg)
    p, weights = p.reshape(2, 2, cfg.K), weights[:2]
    calls = []
    features = montecarlo._features

    def counted(rows, *args):
        calls.append(len(rows))
        return features(rows, *args)

    monkeypatch.setattr(montecarlo, "_features", counted)
    monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 10 ** 9)
    uatf_monte_carlo(state, est, p, weights, 2_000,
                     rng=np.random.default_rng(8), batch=512)
    # one chunk per batch: 2 passes for each of 3 full batches and the last
    assert calls == [512] * 6 + [464] * 2
    _assert_stacked_equals_separate(state, est, p, weights, cfg, 2_000, 8,
                                    batch=512)


def test_sampler_batch_memory_bounded():
    # Two full batches and a partial one of a paper-default drop, traced:
    # the peak allocation is a fixed multiple of one (b, L, K, U) complex
    # array. The call's workspace holds one batch's random numbers (2.05 of
    # them at tau_p = 4), features and estimate norms (0.45); the full
    # batches refill it, and the partial one takes the fronts of its
    # buffers. With the temporaries of one chunk the peak is 2.90, as it
    # was when each batch allocated its own arrays and freed them before
    # the next draw. The bound adds about ten more chunk-sized
    # temporaries. Realizing a whole batch at once peaked at 5.84 for one
    # batch and 9.04 for these three, since a batch's arrays lived on while
    # the next one was drawn.
    cfg = SystemConfig()
    model, pilot_of, state, est, terms = _network(cfg, 1)
    b = 4096
    unit = b * cfg.L * cfg.K * cfg.U * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        uatf_monte_carlo(state, est, model.drop.p, egcd_weights(terms),
                         2 * b + 1000, rng=np.random.default_rng(3), batch=b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * unit
