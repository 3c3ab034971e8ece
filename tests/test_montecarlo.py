import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from simcf import (SystemConfig, allocate_pilots, generate_drop, lsfd_weights,
                   maxmin_power, montecarlo, sinr_from_weights,
                   uatf_monte_carlo)
from simcf.channel import ChannelState
from simcf.estimation import build_estimation_state, mmse_estimate, pilot_map
from simcf.montecarlo import _delta_method, _TrialSampler
from simcf.pipeline import NetworkModel
from simcf.se import egcd_weights, sinr_coefficients

from reference import (SimUeChannelStats, chunk_streams, delta_method_loop,
                       draw_einsum, draw_pilot_noise, r_all, sample_channel,
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


def _set_chunk(monkeypatch, cfg, trials):
    """Sets the chunk size of cfg's networks to trials."""
    monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS",
                        trials * cfg.L * cfg.K * cfg.U)


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
                                    seed):
    stacked = uatf_monte_carlo(state, est, p, weights, n_trials,
                               rng=np.random.default_rng(seed))
    lead = np.broadcast_shapes(p.shape[:-1], weights.shape[:-2])
    assert stacked.gamma.shape == stacked.stderr.shape == (*lead, cfg.K)
    assert stacked.n_trials == n_trials
    p = np.broadcast_to(p, (*lead, cfg.K))
    weights = np.broadcast_to(weights, (*lead, *weights.shape[-2:]))
    for i in np.ndindex(lead):
        alone = uatf_monte_carlo(state, est, p[i], weights[i], n_trials,
                                 rng=np.random.default_rng(seed))
        assert alone.gamma.shape == (cfg.K,)
        assert np.array_equal(stacked.gamma[i], alone.gamma)
        assert np.array_equal(stacked.stderr[i], alone.stderr)


def test_stacked_settings_equal_separate_calls(small_model, small_phases,
                                               small_cfg, small_terms):
    cfg = small_cfg
    state, est = small_model.states(small_phases)
    p, weights = _settings(small_model, small_terms, cfg)
    _assert_stacked_equals_separate(state, est, p, weights, cfg, 2_000, 8)
    # two leading axes, and one power vector broadcast over stacked weights
    _assert_stacked_equals_separate(state, est, p.reshape(2, 2, cfg.K),
                                    weights.reshape(2, 2, cfg.K, cfg.L),
                                    cfg, 2_000, 8)
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
                                                  small_cfg, small_terms,
                                                  monkeypatch):
    # 150 trials in chunks of 7 end on a partial chunk of 3, and the 22
    # chunks in windows of 4 on a partial window of 2
    cfg = small_cfg
    _set_chunk(monkeypatch, cfg, 7)
    monkeypatch.setattr(montecarlo, "_WINDOW_CHUNKS", 4)
    state, est = small_model.states(small_phases)
    p, weights = _settings(small_model, small_terms, cfg)
    _assert_stacked_equals_separate(state, est, p, weights, cfg, 150, 11)


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
                                    dict(n_trials=True),
                                    dict(n_trials=1),
                                    dict(n_trials=float("inf")),
                                    dict(n_trials=2.5),
                                    dict(n_trials=100.0),
                                    dict(n_trials="100")])
def test_degenerate_trial_counts_rejected(small_model, small_phases,
                                          small_terms, kwargs):
    state, est = small_model.states(small_phases)
    with pytest.raises(ValueError, match="n_trials >= 2"):
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
def test_sampler_matches_einsum_oracle(u, monkeypatch):
    # the explicit U sums and batched matmuls round differently from the
    # einsum contractions through the (b, L, K, K) tensor, by far less
    # than rtol; 150 trials in chunks of 64 end on a partial chunk
    cfg = SystemConfig(L=3, K=3, U=u, M=2, N=9, tau_p=2)
    _set_chunk(monkeypatch, cfg, 64)
    model, pilot_of, state, est, terms = _network(cfg, 20 + u)
    pilots = (pilot_of, cfg.pilot_powers(), cfg.tau_p, cfg.sigma2)
    sampler = _TrialSampler(state, est, np.random.default_rng(u))
    oracle = _TrialSampler(state, est, np.random.default_rng(u))
    streams = chunk_streams(oracle, 150)
    assert [b for _, b in streams] == [64, 64, 22]
    for i, (stream, b) in enumerate(streams):
        for got, want in zip(sampler.realize(sampler.numbers(i, b)),
                             draw_einsum(oracle, stream, b, *pilots)):
            assert got.shape == (b, cfg.L, cfg.K, u)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    p, weights = _complex_settings(model, terms)
    mc = uatf_monte_carlo(state, est, p, weights, 150,
                          rng=np.random.default_rng(u))
    gamma, stderr = uatf_monte_carlo_einsum(state, est, pilots[0], p,
                                            *pilots[1:], weights, 150,
                                            rng=np.random.default_rng(u))
    np.testing.assert_allclose(mc.gamma, gamma, rtol=1e-12, atol=0)
    np.testing.assert_allclose(mc.stderr, stderr, rtol=1e-12, atol=0)


@pytest.mark.parametrize("u", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_chunks_equal_batch_at_once_oracle(u, chunk, monkeypatch):
    # the lanes run the oracle's arithmetic on each chunk, drawn from the
    # chunk's spawned stream in the oracle's order, and the sums add in
    # chunk order: equal bit for bit at chunks of 1, 7 and more than all
    # 150 trials
    cfg = SystemConfig(L=3, K=3, U=u, M=2, N=9, tau_p=2)
    model, _, state, est, terms = _network(cfg, 20 + u)
    _set_chunk(monkeypatch, cfg, chunk)
    p, weights = _complex_settings(model, terms)
    mc = uatf_monte_carlo(state, est, p, weights, 150,
                          rng=np.random.default_rng(u))
    gamma, stderr = uatf_monte_carlo_batch(state, est, p, weights, 150,
                                           rng=np.random.default_rng(u))
    assert np.array_equal(mc.gamma, gamma)
    assert np.array_equal(mc.stderr, stderr)


@pytest.mark.parametrize("n_trials", [40, 128])
def test_partial_and_whole_chunks_equal_batch_at_once_oracle(n_trials,
                                                             monkeypatch):
    # fewer trials than one chunk of 64 and an exact multiple of it; a
    # second call on a fresh generator inherits nothing
    cfg = SystemConfig(L=3, K=3, U=2, M=2, N=9, tau_p=2)
    _set_chunk(monkeypatch, cfg, 64)
    model, _, state, est, terms = _network(cfg, 22)
    p, weights = _complex_settings(model, terms)
    gamma, stderr = uatf_monte_carlo_batch(state, est, p, weights, n_trials,
                                           rng=np.random.default_rng(5))
    for _ in range(2):
        mc = uatf_monte_carlo(state, est, p, weights, n_trials,
                              rng=np.random.default_rng(5))
        assert np.array_equal(mc.gamma, gamma)
        assert np.array_equal(mc.stderr, stderr)


def test_chunk_numbers_come_from_their_spawned_streams(small_model,
                                                       small_phases):
    # chunks 0, 1 and 2 of 64, 64 and 22 trials take fresh C-contiguous
    # arrays of the numbers that a twin of their stream gives, the i-th
    # child of one spawn of the seed's SeedSequence, in the documented
    # order: phases, white real and imaginary parts, pilot noise real and
    # imaginary parts
    state, est = small_model.states(small_phases)
    sampler = _TrialSampler(state, est, 12)
    twins = np.random.SeedSequence(12).spawn(1)[0].spawn(3)
    n_ap, n_ue, u = sampler.shape
    links, pilots = (n_ap, n_ue, u), (n_ap, sampler.n_pilots, u)
    for i, b in enumerate((64, 64, 22)):
        got = sampler.numbers(i, b)
        twin = np.random.default_rng(twins[i])
        want = (twin.uniform(-np.pi, np.pi, size=(b, n_ap, n_ue)),
                twin.standard_normal((b, *links)),
                twin.standard_normal((b, *links)),
                twin.standard_normal((b, *pilots)),
                twin.standard_normal((b, *pilots)))
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x.shape == y.shape and x.flags.c_contiguous
            assert np.array_equal(x, y)
    # a partial chunk starts its stream as a whole one does
    assert np.array_equal(sampler.numbers(1, 22)[0],
                          sampler.numbers(1, 64)[0][:22])


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
    drawn = sampler.numbers(0, b)[0]
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
    # L) and powers (power kinds, decoders, K). Each chunk forms features
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
    _set_chunk(monkeypatch, cfg, 512)
    uatf_monte_carlo(state, est, p, weights, 2_000,
                     rng=np.random.default_rng(8))
    # 2 passes for each of 3 whole chunks and the last
    assert sorted(calls) == [464] * 2 + [512] * 6
    _assert_stacked_equals_separate(state, est, p, weights, cfg, 2_000, 8)


def _traced_peak(monkeypatch, lanes, n_trials):
    """The traced peak allocation of a call of n_trials trials on a
    paper-default drop at lanes lanes, in units of one chunk's (c, L, K, U)
    complex array."""
    monkeypatch.setattr(montecarlo, "_cpus", lambda: lanes)
    cfg = SystemConfig()
    model, _, state, est, terms = _network(cfg, 1)
    sampler = _TrialSampler(state, est, 0)
    unit = sampler.chunk * cfg.L * cfg.K * cfg.U * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        uatf_monte_carlo(state, est, model.drop.p, egcd_weights(terms),
                         n_trials, rng=np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / unit


@pytest.mark.parametrize("lanes", [1, 2])
def test_sampler_batch_memory_bounded(lanes, monkeypatch):
    # Two windows and a partial one of a paper-default drop (128-trial
    # chunks), traced: the peak allocation is a fixed multiple of one
    # chunk's (c, L, K, U) complex array. Each lane holds one chunk's
    # random numbers (2.05 of these units at tau_p = 4), its realization,
    # features and sums: one lane peaked at 10.80, two at 20.45 to 20.84
    # and three at 28.7 to 29.9. A window's 32 slots hold 0.45.
    peak = _traced_peak(monkeypatch, lanes, 2 * 32 * 128 + 1000)
    assert peak <= 10.5 * lanes + 0.5


def test_sampler_memory_does_not_grow_with_windows(monkeypatch):
    # one lane, windows of 4 chunks: 8 windows of trials peak where 2 do
    # (10.31 units each); the chunk sums of all 32 chunks of the longer
    # call, were they held at once, would add 0.34
    monkeypatch.setattr(montecarlo, "_WINDOW_CHUNKS", 4)
    short, long = (_traced_peak(monkeypatch, 1, n * 4 * 128) for n in (2, 8))
    assert long <= short + 0.05


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="glibc's malloc trim threshold")
def test_lanes_do_not_fault_their_chunks_back_in():
    # a fresh process, so that no earlier allocation has lifted glibc's
    # trim threshold: two 20 000-trial calls on two lanes after a warm-up
    # call took 50 to 75 minor page faults in 24 runs and once 660; with
    # each lane's heap top handed back to the system after every chunk
    # they took 14 000 to 64 000
    code = """if True:
        import resource, sys
        sys.path.insert(0, sys.argv[1])
        import numpy as np
        from simcf import (SystemConfig, allocate_pilots, generate_drop,
                           montecarlo)
        from simcf.pipeline import NetworkModel
        from simcf.se import egcd_weights
        montecarlo._cpus = lambda: 2
        drop = generate_drop(SystemConfig(), 1)
        model = NetworkModel.from_drop(drop, allocate_pilots(drop))
        phases = model.random_phases(np.random.default_rng(1))
        args = (*model.states(phases), drop.p,
                egcd_weights(model.terms(phases)), 20_000)
        montecarlo.uatf_monte_carlo(*args, rng=0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for seed in (1, 2):
            montecarlo.uatf_monte_carlo(*args, rng=seed)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert int(run.stdout) < 2000


def _on_counted_lanes(monkeypatch, lanes):
    """Sets the CPUs the sampler sees to lanes; returns the list that
    records the lane count of every window."""
    counts = []
    on_lanes = montecarlo._on_lanes

    def counted(work, n):
        counts.append(n)
        return on_lanes(work, n)

    monkeypatch.setattr(montecarlo, "_cpus", lambda: lanes)
    monkeypatch.setattr(montecarlo, "_on_lanes", counted)
    return counts


def test_lane_count_changes_nothing(small_model, small_phases, small_cfg,
                                    small_terms, monkeypatch):
    # chunks of 7 trials: 110 trials are 15 whole chunks and one of 5, in
    # windows of 7, 7 and 2 chunks, which neither 2 nor 3 lanes divide;
    # four settings over two weight sets. Every chunk is realized once, on
    # whichever lane takes it, also with the interpreter switching threads
    # every few microseconds and more lanes than cores.
    cfg = small_cfg
    state, est = small_model.states(small_phases)
    p, weights = _settings(small_model, small_terms, cfg)
    _set_chunk(monkeypatch, cfg, 7)
    monkeypatch.setattr(montecarlo, "_WINDOW_CHUNKS", 7)
    realize, sizes = _TrialSampler.realize, []

    def counted(self, numbers):
        sizes.append(len(numbers[0]))
        return realize(self, numbers)

    monkeypatch.setattr(_TrialSampler, "realize", counted)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for lanes in (1, 2, 3, 5):
            counts = _on_counted_lanes(monkeypatch, lanes)
            sizes.clear()
            results[lanes] = uatf_monte_carlo(
                state, est, p.reshape(2, 2, cfg.K), weights[:2], 110,
                rng=np.random.default_rng(4))
            assert counts == [lanes, lanes, min(lanes, 2)]
            assert sorted(sizes) == [5] + [7] * 15
    finally:
        sys.setswitchinterval(interval)
    for lanes in (2, 3, 5):
        assert np.array_equal(results[lanes].gamma, results[1].gamma)
        assert np.array_equal(results[lanes].stderr, results[1].stderr)
    # lanes never outnumber a window's chunks
    counts = _on_counted_lanes(monkeypatch, 8)
    uatf_monte_carlo(state, est, p, weights, 110,
                     rng=np.random.default_rng(4))
    assert counts == [7, 7, 2]


def test_window_changes_nothing(small_model, small_phases, small_cfg,
                                small_terms, monkeypatch):
    # windows of 1, 3 and all 16 chunks of 110 trials in chunks of 7, on
    # two lanes: the same chunk sums, added in the same order
    cfg = small_cfg
    state, est = small_model.states(small_phases)
    p, weights = _settings(small_model, small_terms, cfg)
    _set_chunk(monkeypatch, cfg, 7)
    results = []
    for window in (1, 3, 16):
        monkeypatch.setattr(montecarlo, "_WINDOW_CHUNKS", window)
        counts = _on_counted_lanes(monkeypatch, 2)
        results.append(uatf_monte_carlo(state, est, p, weights, 110,
                                        rng=np.random.default_rng(4)))
        assert len(counts) == -(-16 // window)
    for mc in results[1:]:
        assert np.array_equal(mc.gamma, results[0].gamma)
        assert np.array_equal(mc.stderr, results[0].stderr)


@pytest.mark.parametrize("n_trials, window", [(110, 1), (110, 3), (6, 1)])
def test_no_two_chunks_share_a_stream(small_model, small_phases, small_cfg,
                                      small_terms, n_trials, window,
                                      monkeypatch):
    # chunks of 7 trials, keyed by their index in the call: at windows of
    # one chunk an index within the window would give every chunk chunk
    # 0's stream. 110 trials end on a partial chunk; 6 trials are one
    # partial chunk, so only a second call on the same generator can meet
    # it. Each stream's first phases tell it apart.
    cfg = small_cfg
    state, est = small_model.states(small_phases)
    _set_chunk(monkeypatch, cfg, 7)
    monkeypatch.setattr(montecarlo, "_WINDOW_CHUNKS", window)
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
    numbers, drawn = _TrialSampler.numbers, []

    def recorded(self, i, c):
        out = numbers(self, i, c)
        drawn.append((i, tuple(out[0][0, 0])))
        return out

    monkeypatch.setattr(_TrialSampler, "numbers", recorded)
    rng = np.random.default_rng(4)
    n_chunks = -(-n_trials // 7)
    for _ in range(2):
        before = len(drawn)
        uatf_monte_carlo(state, est, small_model.drop.p,
                         egcd_weights(small_terms), n_trials, rng=rng)
        assert sorted(i for i, _ in drawn[before:]) == list(range(n_chunks))
    firsts = [first for _, first in drawn]
    assert len(set(firsts)) == len(firsts) == 2 * n_chunks


def test_equal_seeds_equal_results_and_reused_generator_fresh_streams(
        small_model, small_phases, small_terms):
    # any seed numpy's default_rng takes; a call spawns one child of the
    # generator's SeedSequence and draws none of the generator's numbers,
    # so the second call on one Generator samples from the next child
    state, est = small_model.states(small_phases)
    args = (state, est, small_model.drop.p, egcd_weights(small_terms), 500)
    first = uatf_monte_carlo(*args, rng=5)
    reused = np.random.default_rng(5)
    same = [uatf_monte_carlo(*args, rng=rng) for rng in (
        np.random.default_rng(5), np.random.SeedSequence(5), reused)]
    second = uatf_monte_carlo(*args, rng=reused)
    for mc in same:
        assert np.array_equal(mc.gamma, first.gamma)
        assert np.array_equal(mc.stderr, first.stderr)
    assert not np.any(second.gamma == first.gamma)
    child = uatf_monte_carlo(
        *args, rng=np.random.SeedSequence(5, n_children_spawned=1))
    assert np.array_equal(second.gamma, child.gamma)
    assert np.array_equal(second.stderr, child.stderr)
    assert reused.random() == np.random.default_rng(5).random()


def test_lanes_keep_the_callers_numpy_error_state():
    seen = []
    with np.errstate(divide="raise"):
        montecarlo._on_lanes(lambda: seen.append(np.geterr()["divide"]), 3)
    assert seen == ["raise"] * 3


@pytest.mark.parametrize("failing", ["caller", "thread"])
def test_lane_error_raises_in_caller_after_every_lane_ends(
        small_model, small_phases, small_terms, failing, monkeypatch):
    # both lanes take a chunk before either goes on (the barrier), then the
    # failing lane raises; the call raises its error once the other lane
    # has realized the rest of the window, and no thread outlives the call
    state, est = small_model.states(small_phases)
    monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 1)
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
    realize = _TrialSampler.realize
    both_in = threading.Barrier(2, timeout=10)
    caller, seen = threading.current_thread(), set()

    def failing_realize(self, numbers):
        thread = threading.current_thread()
        if thread not in seen:
            seen.add(thread)
            both_in.wait()
        if (thread is caller) == (failing == "caller"):
            raise FloatingPointError(f"lane on the {failing} failed")
        return realize(self, numbers)

    monkeypatch.setattr(_TrialSampler, "realize", failing_realize)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=failing):
        uatf_monte_carlo(state, est, small_model.drop.p,
                         egcd_weights(small_terms), 200,
                         rng=np.random.default_rng(2))
    assert threading.active_count() == before
    assert len(seen) == 2
