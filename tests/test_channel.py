import numpy as np
import pytest

from simcf import SystemConfig, allocate_pilots, generate_drop
from simcf.channel import block_channel_state, probe_powers
from simcf.pipeline import NetworkModel
from simcf.scenario import psd_sqrt
from simcf.sim_physics import (fold_phasors, random_phase_tensor,
                               sinc_correlation, stack_for)

from reference import (SimUeChannelStats, build_channel_state_loop,
                       build_channel_state_slices, cascade, effective_stats,
                       r_all, sample_channel, sim_ue_stats, steering_vector,
                       turned_slices)


def test_sinc_values():
    wl = 0.15
    pts = np.array([[0, 0, 0], [wl / 2, 0, 0], [wl / 4, 0, 0]])
    r = sinc_correlation(pts, wl)
    assert np.allclose(np.diag(r), 1.0)
    assert r[0, 1] == pytest.approx(0.0, abs=1e-15)        # half wavelength
    assert r[0, 2] == pytest.approx(2 / np.pi)             # quarter wavelength
    assert np.allclose(r, r.T)


def test_sinc_zeros_on_half_wavelength_grid():
    cfg = SystemConfig(L=1, K=1, U=1, M=1, N=16)
    geom, _ = stack_for(cfg)
    r = sinc_correlation(geom.output_grid, cfg.wavelength)
    nx, ny = geom.grid_shape
    # distinct atoms aligned along an axis sit at integer multiples of
    # lambda/2, where the correlation has exact zeros
    for n in range(cfg.N):
        for m in range(cfg.N):
            ix, iy = divmod(n, ny)
            jx, jy = divmod(m, ny)
            if n != m and (ix == jx or iy == jy):
                assert abs(r[n, m]) < 1e-15


def test_steering_matches_scalar_loop():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(7, 3))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    wl = 0.15
    vec = steering_vector(pts, direction, wl)
    center = pts.mean(axis=0)
    for n in range(7):
        advance = float(np.dot(pts[n] - center, direction))
        assert vec[n] == pytest.approx(np.exp(1j * 2 * np.pi * advance / wl))
    assert np.allclose(np.abs(vec), 1.0)


def test_single_point_boresight():
    vec = steering_vector(np.zeros((1, 3)), [0, 0, -1.0], 0.15)
    assert vec[0] == pytest.approx(1.0)


def test_los_vector_norm():
    cfg = SystemConfig(L=1, K=1, U=1, M=1, N=25)
    geom, _ = stack_for(cfg)
    r = sinc_correlation(geom.output_grid, cfg.wavelength)
    beta_los, beta_nlos = 3e-9, 1e-9
    stats = sim_ue_stats(geom.output_grid, [0.3, -0.2, -0.93], beta_los,
                         beta_nlos, r, cfg.wavelength)
    assert np.linalg.norm(stats.h_bar_sim) ** 2 == pytest.approx(
        cfg.N * beta_los, rel=1e-9)


def test_effective_stats_identity_sandwich():
    rng = np.random.default_rng(1)
    n = 4
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r_sim = a @ a.conj().T
    h_bar = rng.normal(size=n) + 1j * rng.normal(size=n)
    stats = SimUeChannelStats(h_bar_sim=h_bar, r_sim=r_sim)
    eff = effective_stats(np.eye(n), np.eye(n), stats)
    assert np.allclose(eff.r_eff, r_sim)
    assert np.allclose(eff.h_bar, h_bar)
    zero = effective_stats(np.eye(n), np.eye(n),
                           SimUeChannelStats(h_bar_sim=h_bar,
                                             r_sim=np.zeros((n, n))))
    assert np.allclose(zero.r_eff, 0.0)


def test_effective_stats_scaling_equivariance():
    cfg = SystemConfig(L=1, K=1, U=2, M=2, N=9)
    geom, dset = stack_for(cfg)
    rng = np.random.default_rng(2)
    g = cascade(dset, rng.uniform(0, 2 * np.pi, (2, 9)))
    r = sinc_correlation(geom.output_grid, cfg.wavelength)
    h = steering_vector(geom.output_grid, [0, 0, -1.0], cfg.wavelength)
    base = effective_stats(dset.w_first, g,
                           SimUeChannelStats(h_bar_sim=h, r_sim=r))
    scaled = effective_stats(dset.w_first, g,
                             SimUeChannelStats(h_bar_sim=h, r_sim=5.0 * r))
    assert np.allclose(scaled.r_eff, 5.0 * base.r_eff)


def test_effective_cov_psd_over_random_phases():
    cfg = SystemConfig(L=1, K=1, U=2, M=2, N=16)
    geom, dset = stack_for(cfg)
    r = sinc_correlation(geom.output_grid, cfg.wavelength)
    h = steering_vector(geom.output_grid, [0.1, 0.1, -0.99], cfg.wavelength)
    stats = SimUeChannelStats(h_bar_sim=h, r_sim=r)
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = cascade(dset, rng.uniform(0, 2 * np.pi, (2, 16)))
        eff = effective_stats(dset.w_first, g, stats)
        assert np.linalg.eigvalsh(eff.r_eff).min() >= -1e-10


def test_common_phase_invariance():
    # a scalar phase on the stack-side channel leaves the effective
    # covariance and mean magnitudes unchanged
    cfg = SystemConfig(L=1, K=1, U=2, M=2, N=9)
    geom, dset = stack_for(cfg)
    rng = np.random.default_rng(4)
    g = cascade(dset, rng.uniform(0, 2 * np.pi, (2, 9)))
    r = sinc_correlation(geom.output_grid, cfg.wavelength)
    h = steering_vector(geom.output_grid, [0, 0.2, -0.98], cfg.wavelength)
    eff = effective_stats(dset.w_first, g,
                          SimUeChannelStats(h_bar_sim=h, r_sim=r))
    rot = effective_stats(dset.w_first, g,
                          SimUeChannelStats(h_bar_sim=h * np.exp(1j * 0.7),
                                            r_sim=r))
    assert np.allclose(rot.r_eff, eff.r_eff)
    assert np.allclose(np.abs(rot.h_bar), np.abs(eff.h_bar))


def test_sample_channel_moments():
    rng = np.random.default_rng(5)
    n = 4
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r_sim = a @ a.conj().T / n
    h_bar = rng.normal(size=n) + 1j * rng.normal(size=n)
    stats = SimUeChannelStats(h_bar_sim=h_bar, r_sim=r_sim)
    draws = 100_000
    h = sample_channel(stats, np.random.default_rng(6), size=draws)
    # random common phase averages the mean to zero
    scale = np.sqrt((np.abs(h_bar) ** 2 + np.diag(r_sim).real) / draws)
    assert np.all(np.abs(h.mean(axis=0)) <= 3 * scale)
    # NLoS part has covariance r_sim (checked with the LoS turned off)
    stats0 = SimUeChannelStats(h_bar_sim=np.zeros(n, dtype=complex),
                               r_sim=r_sim)
    g = sample_channel(stats0, np.random.default_rng(7), size=draws)
    cov = g.T @ g.conj() / draws      # E{g g^H}
    bound = 3 * np.sqrt(np.outer(np.diag(r_sim).real, np.diag(r_sim).real)
                        / draws)
    assert np.all(np.abs(cov - r_sim) <= bound + 1e-12)


def test_sample_channel_pure_los():
    h_bar = np.array([1.0 + 0j, 2.0, -1.0])
    stats = SimUeChannelStats(h_bar_sim=h_bar, r_sim=np.zeros((3, 3)))
    h = sample_channel(stats, np.random.default_rng(8), size=64)
    assert np.allclose(np.abs(h), np.abs(h_bar)[None, :])


def test_psd_sqrt_rejects_indefinite():
    bad = np.diag([1.0, -0.5])
    with pytest.raises(np.linalg.LinAlgError):
        psd_sqrt(bad)
    ok = psd_sqrt(np.diag([4.0, 0.0]))
    assert np.allclose(ok, np.diag([2.0, 0.0]))
    # in a stack each matrix is judged against its own largest eigenvalue:
    # a tiny indefinite matrix next to a large PSD one is still broken
    good, tiny = np.diag([1e6, 1.0]), np.diag([1e-6, -1e-9])
    psd_sqrt(np.stack([good, good]))
    for stack in (np.stack([good, tiny]), np.stack([tiny, good]),
                  np.stack([[good, good], [good, tiny]])):
        with pytest.raises(np.linalg.LinAlgError, match="not PSD"):
            psd_sqrt(stack)


def test_psd_sqrt_stack_equals_per_matrix_calls():
    rng = np.random.default_rng(3)
    for n in (2, 3, 9):
        a = rng.normal(size=(4, 3, n, n)) + 1j * rng.normal(size=(4, 3, n, n))
        mats = a @ a.conj().swapaxes(-1, -2)
        mats[1, 2] = 0.0                    # a zero slice is PSD too
        mats[2, 0, :, 0] = mats[2, 0, 0, :] = 0.0   # rank deficient
        stacked = psd_sqrt(mats)
        assert stacked.shape == mats.shape
        for i in np.ndindex(mats.shape[:2]):
            assert np.array_equal(stacked[i], psd_sqrt(mats[i]))
        assert np.allclose(stacked @ stacked, mats, atol=1e-12 * n)


def test_build_channel_state_matches_single_link(small_cfg, small_drop):
    model = NetworkModel.from_drop(small_drop, allocate_pilots(small_drop))
    phases = random_phase_tensor(small_cfg.L, small_cfg.M, small_cfg.N, rng=9)
    state = model.channel_state(phases)
    directions = small_drop.link_directions()
    geom, _ = stack_for(small_cfg)
    r_base = sinc_correlation(geom.output_grid, small_cfg.wavelength)
    for l in (0, small_cfg.L - 1):
        g = cascade(model.dset, phases[l])
        for k in range(small_cfg.K):
            stats = sim_ue_stats(geom.output_grid, directions[l, k],
                                 small_drop.beta_los[l, k],
                                 small_drop.beta_nlos[l, k], r_base,
                                 small_cfg.wavelength)
            eff = effective_stats(model.dset.w_first, g, stats)
            assert np.allclose(state.h_bar[l, k], eff.h_bar)
            assert np.allclose(r_all(state)[l, k], eff.r_eff)
    # a block state at a zero turn agrees with the full build's AP
    part = block_channel_state(fold_phasors(model.dset,
                                            np.exp(1j * phases[1])),
                               np.array([0]), np.array([4]),
                               probe_powers([0.0], 1), model.base_corr,
                               model.block_context(1).amp)
    assert np.allclose(part.h_bar[..., 0], state.h_bar[1])
    assert np.allclose(part.s[0], state.s[1])


@pytest.mark.parametrize("paper_scale", [False, True])
def test_build_channel_state_equals_per_ap_loop(small_model, small_phases,
                                                paper_scale):
    model, phases = small_model, small_phases
    if paper_scale:
        drop = generate_drop(SystemConfig(), 3)
        model = NetworkModel.from_drop(drop, allocate_pilots(drop))
        phases = model.random_phases(4)
    state = model.channel_state(phases)
    ref = build_channel_state_loop(model, phases)
    assert np.array_equal(state.h_bar, ref.h_bar)
    assert np.array_equal(state.s, ref.s)
    assert np.array_equal(state.beta_nlos, ref.beta_nlos)
    # the per-slice oracle, with an AP listed twice, against the loop
    aps = [2, 0, 2]
    sliced = build_channel_state_slices(model, phases[aps], aps)
    ref = build_channel_state_loop(model, phases, aps)
    for name in ("h_bar", "s", "beta_nlos"):
        assert np.array_equal(getattr(sliced, name), getattr(ref, name))


@pytest.mark.parametrize("paper_scale", [False, True])
def test_block_channel_state_matches_turned_slices(small_model, small_phases,
                                                   paper_scale):
    model, phases = small_model, small_phases
    if paper_scale:
        drop = generate_drop(SystemConfig(), 3)
        model = NetworkModel.from_drop(drop, allocate_pilots(drop))
        phases = model.random_phases(4)
    _, n_layers, n_atoms = phases.shape
    rng = np.random.default_rng(6)
    steps = np.concatenate([np.arange(1, 17), -np.arange(1, 17)]) * np.pi / 8
    l = 1
    folded = fold_phasors(model.dset, np.exp(1j * phases[l]))
    powers, amp = probe_powers(steps, n_layers), model.block_context(l).amp
    for block_size in (1, 3, 4, 5):
        block = rng.permutation(n_layers * n_atoms)[:block_size]
        rows, cols = np.unravel_index(block, (n_layers, n_atoms))
        state = block_channel_state(folded, rows, cols, powers,
                                    model.base_corr, amp)
        ref = build_channel_state_slices(
            model, turned_slices(phases[l], rows, cols, steps),
            [l] * steps.size)
        # h_bar in the parts' layout, the probes last
        assert state.h_bar.flags.c_contiguous
        for name, got in (("h_bar", np.moveaxis(state.h_bar, -1, 0)),
                          ("s", state.s)):
            want = getattr(ref, name)
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
        assert np.array_equal(state.s, state.s.conj().swapaxes(-1, -2))
        # each probe's statistics are what a one-probe call gives
        for i in (0, 7, steps.size - 1):
            one = block_channel_state(folded, rows, cols,
                                      probe_powers(steps[i:i + 1], n_layers),
                                      model.base_corr, amp)
            assert np.array_equal(one.h_bar[..., 0], state.h_bar[..., i])
            assert np.array_equal(one.s[0], state.s[i])
