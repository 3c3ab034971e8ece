import numpy as np
import pytest

from simcf import SystemConfig, allocate_pilots, generate_drop
from simcf.estimation import EstimationError, despread_pilot_noise
from simcf.montecarlo import _TrialSampler
from simcf.pipeline import NetworkModel

from reference import estimation_stats


def random_psd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a @ a.conj().T) / n


def test_scalar_isotropic_closed_form():
    # single UE on the pilot with an isotropic covariance beta * I
    beta, p_hat, tau_p, sigma2, u = 2.5e-9, 0.2, 4, 1e-10, 3
    r = beta * np.eye(u)
    stats = estimation_stats(r, [r], [p_hat], p_hat, tau_p, sigma2)
    expected = beta ** 2 / (p_hat * tau_p * beta + sigma2)
    assert np.allclose(stats.omega, expected * np.eye(u))
    assert np.allclose(stats.err_cov,
                       (beta - p_hat * tau_p * expected) * np.eye(u))


def test_high_noise_limit():
    rng = np.random.default_rng(0)
    r = random_psd(rng, 3)
    stats = estimation_stats(r, [r], [0.2], 0.2, 4, sigma2=1e12)
    assert np.max(np.abs(stats.omega)) <= 1e-6 * np.max(np.abs(r))
    assert np.allclose(stats.err_cov, r, rtol=1e-6)


def test_identity_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = int(rng.integers(2, 5))
        n_cop = int(rng.integers(1, 4))
        mats = [random_psd(rng, u) for _ in range(n_cop)]
        powers = rng.uniform(0.05, 0.3, n_cop)
        tau_p = int(rng.integers(1, 8))
        sigma2 = float(rng.uniform(1e-3, 1e-1))
        stats = estimation_stats(mats[0], mats, powers, powers[0], tau_p,
                                 sigma2)
        lhs = powers[0] * tau_p * stats.omega + stats.err_cov
        assert np.max(np.abs(lhs - mats[0])) <= 1e-10 * np.max(np.abs(mats[0]))
        assert np.linalg.eigvalsh(stats.omega).min() >= -1e-12
        assert np.linalg.eigvalsh(stats.err_cov).min() >= -1e-10 * np.max(
            np.abs(mats[0]))


def test_copilot_order_invariance():
    rng = np.random.default_rng(2)
    mats = [random_psd(rng, 3) for _ in range(3)]
    powers = [0.1, 0.2, 0.3]
    a = estimation_stats(mats[0], mats, powers, 0.1, 4, 1e-2)
    b = estimation_stats(mats[0], mats[::-1], powers[::-1], 0.1, 4, 1e-2)
    assert np.allclose(a.omega, b.omega)


def test_batched_matches_single_link(small_model, small_pilots, small_phases,
                                     small_cfg):
    state = small_model.channel_state(small_phases)
    est = small_model.estimation_state(state, small_pilots.pilot_of)
    p_hat = small_cfg.pilot_powers()
    r = state.r_all()
    for l in range(small_cfg.L):
        for k in range(small_cfg.K):
            cop = np.flatnonzero(small_pilots.pilot_of
                                 == small_pilots.pilot_of[k])
            single = estimation_stats(r[l, k], [r[l, j] for j in cop],
                                      p_hat[cop], p_hat[k],
                                      small_cfg.tau_p, small_cfg.sigma2)
            assert np.allclose(est.psi[l, k], single.psi)
            assert np.allclose(est.omega[l, k], single.omega)
            assert np.allclose(est.err_cov[l, k], single.err_cov)


def test_unassigned_pilots_rejected(small_model, small_phases):
    state = small_model.channel_state(small_phases)
    with pytest.raises(EstimationError):
        small_model.estimation_state(state, np.array([-1, 0, 1]))


def _sampler_for(model, pilot_of, phases, seed):
    cfg = model.cfg
    state = model.channel_state(phases)
    est = model.estimation_state(state, pilot_of)
    sampler = _TrialSampler(state, est, pilot_of, cfg.pilot_powers(),
                            cfg.tau_p, cfg.sigma2, np.random.default_rng(seed))
    return est, sampler


def test_error_moments(small_model, small_pilots, small_phases, small_cfg):
    est, sampler = _sampler_for(small_model, small_pilots.pilot_of,
                                small_phases, seed=3)
    n = 100_000
    h, h_hat = sampler.draw(n)
    err = h - h_hat
    # estimation error has zero mean ...
    err_std = err.std(axis=0)
    assert np.all(np.abs(err.mean(axis=0)) <= 4 * err_std / np.sqrt(n))
    # ... and its covariance matches the closed form at every link
    for l in range(small_cfg.L):
        for k in range(small_cfg.K):
            cov = err[:, l, k, :].T @ err[:, l, k, :].conj() / n
            ref = est.err_cov[l, k]
            diag = np.diag(ref).real
            bound = 3 * np.sqrt(np.outer(diag, diag) / n) + 1e-15
            assert np.all(np.abs(cov - ref) <= bound)


def test_estimate_conditional_covariance_and_orthogonality(small_model,
                                                           small_pilots,
                                                           small_cfg):
    # with the LoS zeroed, the conditional estimate covariance is exactly
    # pilot_power * tau_p * omega and the error is uncorrelated with the
    # estimate
    cfg = small_cfg
    phases = small_model.random_phases(np.random.default_rng(11))
    state = small_model.channel_state(phases)
    state = type(state)(h_bar=np.zeros_like(state.h_bar), s=state.s,
                        beta_nlos=state.beta_nlos)
    est = small_model.estimation_state(state, small_pilots.pilot_of)
    sampler = _TrialSampler(state, est, small_pilots.pilot_of,
                            cfg.pilot_powers(), cfg.tau_p, cfg.sigma2,
                            np.random.default_rng(12))
    n = 100_000
    h, h_hat = sampler.draw(n)
    p_hat = cfg.pilot_powers()
    for l in range(cfg.L):
        for k in range(cfg.K):
            target = p_hat[k] * cfg.tau_p * est.omega[l, k]
            cov = h_hat[:, l, k, :].T @ h_hat[:, l, k, :].conj() / n
            diag = np.diag(target).real
            bound = 3 * np.sqrt(np.outer(diag, diag) / n) + 1e-15
            assert np.all(np.abs(cov - target) <= bound)
            err = h[:, l, k, :] - h_hat[:, l, k, :]
            cross = h_hat[:, l, k, :].T @ err.conj() / n
            diag_err = np.diag(est.err_cov[l, k]).real
            cbound = 3 * np.sqrt(np.outer(diag, diag_err) / n) + 1e-15
            assert np.all(np.abs(cross) <= cbound)


def test_noiseless_estimate_recovers_channel():
    # orthogonal pilots for everyone and vanishing noise: the MMSE estimate
    # converges to the true channel
    cfg = SystemConfig(L=2, K=3, U=2, M=2, N=9, tau_p=3, sigma2=1e-24)
    drop = generate_drop(cfg, 21)
    model = NetworkModel.from_drop(drop)
    pilots = allocate_pilots(drop)
    assert len(set(pilots.pilot_of.tolist())) == cfg.K   # no sharing
    phases = model.random_phases(np.random.default_rng(13))
    _, sampler = _sampler_for(model, pilots.pilot_of, phases, seed=14)
    h, h_hat = sampler.draw(200)
    assert np.abs(h - h_hat).max() <= 1e-3 * np.abs(h).max()


def test_despread_noise_variance():
    rng = np.random.default_rng(15)
    tau_p, sigma2 = 4, 0.3
    noise = despread_pilot_noise(rng, 2, (50_000,), 3, tau_p, sigma2)
    var = np.mean(np.abs(noise) ** 2)
    assert var == pytest.approx(tau_p * sigma2, rel=0.02)
