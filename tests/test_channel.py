import numpy as np
import pytest

from simcf import SystemConfig, generate_drop
from simcf.channel import sinc_correlation
from simcf.pipeline import NetworkModel
from simcf.scenario import psd_sqrt
from simcf.sim_physics import random_phase_tensor, stack_for

from reference import (SimUeChannelStats, build_channel_state_loop, cascade,
                       effective_stats, sample_channel, sim_ue_stats,
                       steering_vector)


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


def test_build_channel_state_matches_single_link(small_cfg, small_drop):
    model = NetworkModel.from_drop(small_drop)
    phases = random_phase_tensor(small_cfg.L, small_cfg.M, small_cfg.N, rng=9)
    state = model.channel_state(phases)
    directions = small_drop.link_directions()
    r_base = sinc_correlation(model.geom.output_grid, small_cfg.wavelength)
    for l in (0, small_cfg.L - 1):
        g = cascade(model.dset, phases[l])
        for k in range(small_cfg.K):
            stats = sim_ue_stats(model.geom.output_grid, directions[l, k],
                                 small_drop.beta_los[l, k],
                                 small_drop.beta_nlos[l, k], r_base,
                                 small_cfg.wavelength)
            eff = effective_stats(model.dset.w_first, g, stats)
            assert np.allclose(state.h_bar[l, k], eff.h_bar)
            assert np.allclose(state.r_all()[l, k], eff.r_eff)
    # AP-subset build agrees with the full build
    part = model.channel_state(phases, ap_indices=[1])
    assert np.allclose(part.h_bar[0], state.h_bar[1])
    assert np.allclose(part.s[0], state.s[1])


@pytest.mark.parametrize("paper_scale", [False, True])
def test_build_channel_state_equals_per_ap_loop(small_model, small_phases,
                                                paper_scale):
    model, phases = small_model, small_phases
    if paper_scale:
        model = NetworkModel.from_drop(generate_drop(SystemConfig(), 3))
        phases = model.random_phases(4)
    for aps in (None, [2, 0, 2]):
        state = model.channel_state(phases, ap_indices=aps)
        ref = build_channel_state_loop(model, phases, aps)
        assert np.array_equal(state.h_bar, ref.h_bar)
        assert np.array_equal(state.s, ref.s)
        assert np.array_equal(state.beta_nlos, ref.beta_nlos)
