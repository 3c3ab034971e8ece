import numpy as np
import pytest

from simcf import SystemConfig, correlated_shadowing, generate_drop
from simcf.config import ConfigError, most_square_factors
from simcf.scenario import (PILOT_UNASSIGNED, ScenarioError, _corr_sqrt,
                            pathloss_db, rician_kappa, rician_split,
                            torus_displacement, torus_distance)


def test_pathloss_reference_point():
    # log10(1) = 0, so 1 m with zero shadowing gives the raw intercept
    assert pathloss_db(1.0) == pytest.approx(-30.18)
    assert pathloss_db(10.0) == pytest.approx(-30.18 - 26.0)


def test_rician_kappa_at_100m():
    assert rician_kappa(100.0) == pytest.approx(10.0)


def test_rician_split_cases():
    beta = np.array([2.0, 3.0])
    los, nlos = rician_split(beta, np.zeros(2))
    assert np.all(los == 0) and np.allclose(nlos, beta)
    los, nlos = rician_split(beta, np.full(2, 1e9))
    assert np.allclose(nlos, 0.0, atol=1e-8)
    los, nlos = rician_split(beta, np.ones(2))
    assert np.allclose(los, beta / 2) and np.allclose(nlos, beta / 2)


def test_rician_split_sums_to_beta():
    rng = np.random.default_rng(0)
    beta = rng.uniform(1e-12, 1e-6, (4, 5))
    kappa = rng.uniform(0, 50, (4, 5))
    los, nlos = rician_split(beta, kappa)
    assert np.max(np.abs(los + nlos - beta) / beta) <= 1e-12


def test_torus_distance_properties():
    rng = np.random.default_rng(1)
    side = 500.0
    a = rng.uniform(0, side, (6, 2))
    b = rng.uniform(0, side, (4, 2))
    d = torus_distance(a, b, side)
    assert np.all(d >= 0)
    assert np.all(d <= side * np.sqrt(2) / 2 + 1e-9)
    assert np.allclose(d, torus_distance(b, a, side).T)
    # wrap actually shortens straight-line distances near opposite edges
    near = torus_distance(np.array([[1.0, 1.0]]), np.array([[499.0, 499.0]]), side)
    assert near[0, 0] == pytest.approx(np.sqrt(8.0))


def test_displacement_matches_distance():
    rng = np.random.default_rng(2)
    a = rng.uniform(0, 500, (3, 2))
    b = rng.uniform(0, 500, (5, 2))
    disp = torus_displacement(a, b, 500.0)
    assert np.allclose(np.linalg.norm(disp, axis=-1),
                       torus_distance(a, b, 500.0))


def test_generate_drop_deterministic(small_cfg):
    d1 = generate_drop(small_cfg, 123)
    d2 = generate_drop(small_cfg, 123)
    for name in ("ap_pos", "ue_pos", "beta", "kappa", "shadowing", "p"):
        assert np.array_equal(getattr(d1, name), getattr(d2, name))
    d3 = generate_drop(small_cfg, 124)
    assert not np.array_equal(d1.beta, d3.beta)


def test_generate_drop_contents(small_cfg):
    drop = generate_drop(small_cfg, 5)
    assert np.all(drop.pilot_of == PILOT_UNASSIGNED)
    assert np.allclose(drop.p, small_cfg.p_max)
    assert np.all(drop.beta > 0)
    assert np.allclose(drop.beta_los + drop.beta_nlos, drop.beta)
    assert np.all(drop.dist >= small_cfg.h_ap - small_cfg.h_ue)
    # drop is immutable
    with pytest.raises(ValueError):
        drop.beta[0, 0] = 1.0


def test_beta_decreasing_in_distance():
    d = np.linspace(10, 800, 50)
    pl = pathloss_db(d)
    assert np.all(np.diff(pl) < 0)


def test_shadowing_covariance_oracle():
    # sample covariance of the AP factor must match the exponential kernel
    cfg = SystemConfig(L=4, K=3, M=1, N=4, U=1, tau_p=1)
    rng = np.random.default_rng(3)
    ap = rng.uniform(0, cfg.area_side, (cfg.L, 2))
    ue = rng.uniform(0, cfg.area_side, (cfg.K, 2))
    n = 100_000
    draws = correlated_shadowing(cfg, ap, ue, np.random.default_rng(4),
                                 n_draws=n)
    assert draws.shape == (n, cfg.L, cfg.K)
    # variance of each F entry is delta_sf^2
    var = draws.var(axis=0)
    se_var = cfg.delta_sf ** 2 * np.sqrt(2.0 / n)   # std of a Gaussian variance estimate
    assert np.all(np.abs(var - cfg.delta_sf ** 2) <= 3 * se_var)
    # cross-AP covariance at a fixed UE: the shared UE factor contributes a
    # constant (1 - delta_f) delta_sf^2 on top of delta_f times the kernel
    dist = torus_distance(ap, ap, cfg.area_side)
    kernel = cfg.delta_sf ** 2 * np.exp2(-dist / cfg.d_dc)
    target = cfg.delta_f * kernel + (1 - cfg.delta_f) * cfg.delta_sf ** 2
    for k in range(cfg.K):
        cov = np.cov(draws[:, :, k].T)
        # fluctuation bound for Gaussian sample covariances
        bound = 3 * np.sqrt((np.outer(np.diag(target), np.diag(target))
                             + target ** 2) / n)
        assert np.all(np.abs(cov - target) <= bound + 1e-12)


def test_shadowing_colocated_aps_fully_correlated():
    cfg = SystemConfig(L=2, K=2, M=1, N=4, U=1, tau_p=1, delta_f=1.0)
    ap = np.array([[10.0, 10.0], [10.0, 10.0]])
    ue = np.array([[100.0, 100.0], [400.0, 400.0]])
    draws = correlated_shadowing(cfg, ap, ue, np.random.default_rng(5),
                                 n_draws=2000)
    # with delta_f = 1 the UE factor drops out; co-located APs are identical
    assert np.allclose(draws[:, 0, :], draws[:, 1, :], atol=1e-9)


def test_broken_shadowing_covariance_raises_scenario_error():
    # a kernel growing with distance is not a covariance
    pos = np.array([[0.0, 0.0], [10.0, 0.0], [30.0, 0.0]])
    with pytest.raises(ScenarioError, match="not PSD"):
        _corr_sqrt(pos, 100.0, 8.0, -5.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        SystemConfig(L=0)
    with pytest.raises(ConfigError):
        SystemConfig(tau_p=300, tau_c=200)
    with pytest.raises(ConfigError):
        SystemConfig(wavelength=-1.0)
    with pytest.raises(ConfigError):
        SystemConfig(p_hat=(0.1, -0.2, 0.1, 0.1, 0.1))


def test_config_defaults_follow_wavelength():
    cfg = SystemConfig(wavelength=0.3)
    assert cfg.d_meta == pytest.approx(0.15)
    assert cfg.t_sim == pytest.approx(1.5)
    assert cfg.d_layer == pytest.approx(1.5 / cfg.M)


def test_config_grid_factorization():
    assert most_square_factors(64) == (8, 8)
    assert most_square_factors(48) == (6, 8)
    assert most_square_factors(7) == (1, 7)
    assert SystemConfig(N=48).grid_shape == (6, 8)


def test_config_json_roundtrip(tmp_path):
    cfg = SystemConfig(L=4, K=3, N=16, tau_p=2)
    path = tmp_path / "cfg.json"
    import json

    path.write_text(json.dumps(cfg.to_dict()))
    assert SystemConfig.from_json(path) == cfg
    with pytest.raises(ConfigError):
        SystemConfig.from_dict({"bogus_key": 1})


def test_pilot_powers_vector():
    cfg = SystemConfig(K=3, p_hat=(0.1, 0.2, 0.15), L=2, N=4, M=1, U=1, tau_p=2)
    assert np.allclose(cfg.pilot_powers(), [0.1, 0.2, 0.15])
    assert np.allclose(SystemConfig(K=3, L=2, N=4, M=1, U=1, tau_p=2).pilot_powers(), 0.2)
