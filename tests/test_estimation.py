import logging
import warnings

import numpy as np
import pytest

from simcf import SystemConfig, allocate_pilots, generate_drop
from simcf.channel import ChannelState
from simcf.estimation import (EstimationError, build_estimation_state,
                              link_matvec, mmse_estimate, pilot_map,
                              scaled_complex)
from simcf.montecarlo import _TrialSampler
from simcf.pipeline import NetworkModel
from simcf.se import decoder_weights, sinr_coefficients, sinr_terms
from simcf.sim_physics import random_phase_tensor

from reference import (draw, draw_pilot_noise, estimation_stats,
                       link_matvec_broadcast, mmse_estimate_loop, omega_of,
                       r_all)


def same_map(a, b):
    """Two PilotMaps agree in every array and in tau_p."""
    return a.tau_p == b.tau_p and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("pilot_of", "p_hat", "onehot", "members", "sharing",
                     "pick", "coherent"))


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
    est = small_model.estimation_state(state)
    p_hat = small_cfg.pilot_powers()
    r, omega = r_all(state), omega_of(est)
    for l in range(small_cfg.L):
        for k in range(small_cfg.K):
            cop = np.flatnonzero(small_pilots.pilot_of
                                 == small_pilots.pilot_of[k])
            single = estimation_stats(r[l, k], [r[l, j] for j in cop],
                                      p_hat[cop], p_hat[k],
                                      small_cfg.tau_p, small_cfg.sigma2)
            assert np.allclose(omega[l, k], single.omega)
            assert np.allclose(
                r[l, k] - p_hat[k] * small_cfg.tau_p * omega[l, k],
                single.err_cov)


def test_unassigned_pilots_rejected(small_cfg):
    with pytest.raises(EstimationError):
        pilot_map(np.array([-1, 0, 1]), small_cfg.pilot_powers(),
                  small_cfg.tau_p)


def test_badly_conditioned_pilot_covariance_logged_at_debug(caplog):
    # a rank-1 antenna correlation over a vanishing noise floor gives
    # cond(psi) near 1e20; the check runs only when DEBUG is on
    state = ChannelState(h_bar=np.zeros((1, 2, 2), dtype=complex),
                         s=np.diag([1.0, 0.0]).astype(complex)[None],
                         beta_nlos=np.full((1, 2), 1e-9))
    args = (state, pilot_map([0, 1], np.full(2, 0.2), 2))
    with caplog.at_level(logging.INFO, logger="simcf.estimation"):
        build_estimation_state(*args, sigma2=1e-30)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="simcf.estimation"):
        build_estimation_state(*args, sigma2=1e-9)     # cond 1.8
        assert caplog.records == []
        build_estimation_state(*args, sigma2=1e-30)
    assert "badly conditioned" in caplog.text


@pytest.mark.parametrize("tau_p, pilot_of", [
    (1, [0, 0, 0]),           # a single pilot
    (3, [0, 0, 0]),           # full reuse, two pilots idle
    (2, [0, 1, 0]),
    (2, [1, 1, 0]),
    (2, [1, 0, 1]),
    (2, [1, 1, 1]),           # pilot 0 idle
    (3, [0, 1, 2]),           # orthogonal pilots
    (3, [2, 0, 1]),
])
def test_mmse_estimate_matches_copilot_loop(small_model, small_phases,
                                            tau_p, pilot_of):
    # the per-pilot sum multiplies by exact 0/1 weights and adds each
    # pilot's UEs in index order, as the loop does: equal bit for bit
    cfg = small_model.cfg
    pilot_of = np.array(pilot_of)
    state = small_model.channel_state(small_phases)
    p_hat = np.array([0.1, 0.2, 0.15])
    est = build_estimation_state(state, pilot_map(pilot_of, p_hat, tau_p),
                                 cfg.sigma2)
    rng = np.random.default_rng(int(tau_p * 100 + pilot_of @ [9, 3, 1]))
    lead = (5, cfg.L)
    phase = rng.uniform(-np.pi, np.pi, (*lead, cfg.K))
    nlos = (rng.normal(size=(*lead, cfg.K, cfg.U))
            + 1j * rng.normal(size=(*lead, cfg.K, cfg.U)))
    noise = draw_pilot_noise(rng, pilot_of.max() + 1, lead, cfg.U, tau_p,
                             cfg.sigma2)
    los = state.h_bar * np.exp(1j * phase)[..., None]
    assert np.array_equal(
        mmse_estimate(est, los, nlos, noise),
        mmse_estimate_loop(est, los, nlos, pilot_of, p_hat, tau_p, noise))


def _error_cov(state, est, cfg):
    """r - p_hat_k tau_p omega of every link, with the pilot powers and
    tau_p of cfg."""
    return (r_all(state) - (cfg.pilot_powers() * cfg.tau_p)[:, None, None]
            * omega_of(est))


def _sampler_for(model, phases, seed):
    state, est = model.states(phases)
    sampler = _TrialSampler(state, est, np.random.default_rng(seed))
    return state, est, sampler


def test_error_moments(small_model, small_phases, small_cfg):
    state, est, sampler = _sampler_for(small_model, small_phases, seed=3)
    err_cov = _error_cov(state, est, small_cfg)
    n = 100_000
    h, h_hat = draw(sampler, n)
    err = h - h_hat
    # estimation error has zero mean ...
    err_std = err.std(axis=0)
    assert np.all(np.abs(err.mean(axis=0)) <= 4 * err_std / np.sqrt(n))
    # ... and its covariance matches the closed form at every link
    for l in range(small_cfg.L):
        for k in range(small_cfg.K):
            cov = err[:, l, k, :].T @ err[:, l, k, :].conj() / n
            ref = err_cov[l, k]
            diag = np.diag(ref).real
            bound = 3 * np.sqrt(np.outer(diag, diag) / n) + 1e-15
            assert np.all(np.abs(cov - ref) <= bound)


def test_estimate_conditional_covariance_and_orthogonality(small_model,
                                                           small_cfg):
    # with the LoS zeroed, the conditional estimate covariance is exactly
    # pilot_power * tau_p * omega and the error is uncorrelated with the
    # estimate
    cfg = small_cfg
    phases = small_model.random_phases(np.random.default_rng(11))
    state = small_model.channel_state(phases)
    state = type(state)(h_bar=np.zeros_like(state.h_bar), s=state.s,
                        beta_nlos=state.beta_nlos)
    est = small_model.estimation_state(state)
    err_cov = _error_cov(state, est, cfg)
    sampler = _TrialSampler(state, est, np.random.default_rng(12))
    n = 100_000
    h, h_hat = draw(sampler, n)
    p_hat, omega = cfg.pilot_powers(), omega_of(est)
    for l in range(cfg.L):
        for k in range(cfg.K):
            target = p_hat[k] * cfg.tau_p * omega[l, k]
            cov = h_hat[:, l, k, :].T @ h_hat[:, l, k, :].conj() / n
            diag = np.diag(target).real
            bound = 3 * np.sqrt(np.outer(diag, diag) / n) + 1e-15
            assert np.all(np.abs(cov - target) <= bound)
            err = h[:, l, k, :] - h_hat[:, l, k, :]
            cross = h_hat[:, l, k, :].T @ err.conj() / n
            diag_err = np.diag(err_cov[l, k]).real
            cbound = 3 * np.sqrt(np.outer(diag, diag_err) / n) + 1e-15
            assert np.all(np.abs(cross) <= cbound)


def test_noiseless_estimate_recovers_channel():
    # orthogonal pilots for everyone and vanishing noise: the MMSE estimate
    # converges to the true channel
    cfg = SystemConfig(L=2, K=3, U=2, M=2, N=9, tau_p=3, sigma2=1e-24)
    drop = generate_drop(cfg, 21)
    model = NetworkModel.from_drop(drop, allocate_pilots(drop))
    assert len(set(model.pilots.pilot_of.tolist())) == cfg.K   # no sharing
    phases = model.random_phases(np.random.default_rng(13))
    _, _, sampler = _sampler_for(model, phases, seed=14)
    h, h_hat = draw(sampler, 200)
    assert np.abs(h - h_hat).max() <= 1e-3 * np.abs(h).max()


@pytest.mark.parametrize("u", [1, 2, 3])
def test_link_matvec_equals_broadcast_products(u):
    # one output entry at a time runs the same products and sums as the
    # products broadcast along the U axis: equal bit for bit
    rng = np.random.default_rng(u)
    f = rng.normal(size=(4, 3, u, u)) + 1j * rng.normal(size=(4, 3, u, u))
    v = rng.normal(size=(7, 4, 3, u)) + 1j * rng.normal(size=(7, 4, 3, u))
    got = link_matvec(f, v)
    assert got.shape == v.shape
    assert np.array_equal(got, link_matvec_broadcast(f, v))
    np.testing.assert_allclose(got, (f @ v[..., None])[..., 0], rtol=1e-12)


def test_scaled_complex_equals_complex_arithmetic():
    # written part by part, bit for bit what complex arithmetic gives, for
    # a product with a real scale and for the division of the white draws
    rng = np.random.default_rng(16)
    re, im = rng.normal(size=(2, 64, 5, 3))
    scale = np.sqrt(4 * 0.3 / 2.0)
    assert np.array_equal(scaled_complex(re, im, scale),
                          scale * (re + 1j * im))
    assert np.array_equal(scaled_complex(re, im, 1.0 / np.sqrt(2.0)),
                          (re + 1j * im) / np.sqrt(2.0))


def test_despread_noise_variance():
    rng = np.random.default_rng(15)
    tau_p, sigma2 = 4, 0.3
    noise = draw_pilot_noise(rng, 2, (50_000,), 3, tau_p, sigma2)
    var = np.mean(np.abs(noise) ** 2)
    assert var == pytest.approx(tau_p * sigma2, rel=0.02)


def test_drop_batch_states_equal_each_drop_alone():
    # the chain on a leading drop axis: every array of drop i equals that
    # of drop i alone, with co-pilot counts that differ across the batch
    cfg = SystemConfig(L=3, K=10, U=2, M=2, N=9, tau_p=4)
    seeds = [[3, d, 0] for d in range(3)]
    drop = generate_drop(cfg, seeds)
    model = NetworkModel.from_drop(drop, allocate_pilots(drop))
    pilots = model.pilots
    phases = np.stack([random_phase_tensor(cfg.L, cfg.M, cfg.N, [3, d, 1])
                       for d in range(3)])
    state, est = model.states(phases)
    terms = sinr_terms(state, est)
    assert len({pilots.at(d).pick.shape[-2] for d in range(3)}) == 3
    for d, seed in enumerate(seeds):
        drop_d = generate_drop(cfg, seed)
        alone = NetworkModel.from_drop(drop_d, allocate_pilots(drop_d))
        assert np.array_equal(pilots.pilot_of[d], alone.pilots.pilot_of)
        state_d, est_d = alone.states(phases[d])
        for name in ("h_bar", "s", "beta_nlos"):
            assert np.array_equal(getattr(state.at(d), name),
                                  getattr(state_d, name))
        for name in ("eig", "basis", "beta", "den", "gain", "core"):
            assert np.array_equal(getattr(est.at(d), name),
                                  getattr(est_d, name))
            assert np.array_equal(getattr(est, name)[d], getattr(est_d, name))
        assert same_map(est.at(d).pilots, est_d.pilots)
        terms_d = sinr_terms(state_d, est_d)
        for name in ("z", "lam", "delta", "beta", "nu", "spec", "power",
                     "cross"):
            assert np.array_equal(getattr(terms, name)[d],
                                  getattr(terms_d, name))
        for decoder in ("lsfd", "egcd"):
            w = decoder_weights(terms, decoder, alone.drop.p)
            w_d = decoder_weights(terms_d, decoder, alone.drop.p)
            assert np.array_equal(w[d], w_d)
            coeffs = sinr_coefficients(terms, w)
            coeffs_d = sinr_coefficients(terms_d, w_d)
            for name in ("signal", "d", "noise"):
                assert np.array_equal(getattr(coeffs, name)[d],
                                      getattr(coeffs_d, name))


def test_batch_pilot_map_needs_one_pilot_count():
    p_hat = np.ones(5)
    with pytest.raises(ValueError, match="one count"):
        pilot_map([[0, 0, 0, 1, 2], [0, 0, 1, 1, 1]], p_hat, 3)
    assignments = [[0, 0, 0, 1, 2], [2, 1, 2, 0, 1]]
    batch = pilot_map(assignments, p_hat, 3)
    for d, pilot_of in enumerate(assignments):
        alone = pilot_map(pilot_of, p_hat, 3)
        for name in ("onehot", "members", "sharing", "coherent"):
            assert np.array_equal(getattr(batch, name)[d],
                                  getattr(alone, name))
        assert same_map(batch.at(d), alone)
    # drop 1 has one co-pilot per UE at most, drop 0 two: its lists are
    # padded with a UE of zero coherent scale
    assert batch.pick.shape == (2, 5, 2, 5)
    assert np.array_equal(batch.pick[0], pilot_map(assignments[0], p_hat,
                                                   3).pick)
    assert np.array_equal(batch.pick[1, :, 0],
                          pilot_map(assignments[1], p_hat, 3).pick[:, 0])
    assert (batch.pick.sum(axis=-1) == 1).all()
    padded = (batch.pick[1] @ batch.coherent[1][..., None])[..., 0]
    assert not padded[:, 1].any() and padded[:, 0].any()


def _hermitian_2x2(a, d, b):
    """Stack of [[a, conj(b)], [b, d]] over the broadcast shape of a, d, b."""
    a, d, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                                  np.asarray(d, dtype=float),
                                  np.asarray(b, dtype=complex))
    s = np.empty(a.shape + (2, 2), dtype=complex)
    s[..., 0, 0], s[..., 1, 1] = a, d
    s[..., 1, 0], s[..., 0, 1] = b, b.conj()
    return s


def _degenerate_2x2_cases():
    rng = np.random.default_rng(31)
    g = rng.normal(size=(4, 3, 2, 2)) + 1j * rng.normal(size=(4, 3, 2, 2))
    v = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    near = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    q, _ = np.linalg.qr(near)
    yield "zero", np.zeros((2, 2), dtype=complex)
    yield "tiny b", _hermitian_2x2([1.0, 2.0], [2.0, 1.0], 1e-9 + 2e-9j)
    yield "rank one", v[:, :, None] * v[:, None, :].conj()
    for ratio in (1e-14, 1e-16):     # eigenvalues (ratio, 1), random basis
        yield (f"near singular {ratio:g}",
               (q * [ratio, 1.0]) @ q.conj().swapaxes(-1, -2))
    yield "scaled 1e-20", 1e-20 * (g @ g.conj().swapaxes(-1, -2))
    # real dtype; the second matrix is indefinite, with eigenvalues 1, -5
    yield "real symmetric", _hermitian_2x2([1.0, -2.0], [4.0, -2.0],
                                           [0.5, 3.0]).real


@pytest.mark.parametrize("label, s", list(_degenerate_2x2_cases()),
                         ids=[label for label, _ in _degenerate_2x2_cases()])
def test_degenerate_correlations_solve_their_pilot_systems(label, s):
    # one AP per matrix, UEs 0 and 2 on one pilot; sigma2 keeps every psi
    # positive definite, the indefinite matrix's too
    s = s.reshape(-1, 2, 2)
    rng = np.random.default_rng(33)
    beta = rng.uniform(0.5, 1.0, (len(s), 3))
    pilot_of, p_hat = [0, 1, 0], np.array([0.2, 0.3, 0.25])
    tau_p, sigma2 = 2, 5.0
    state = ChannelState(h_bar=np.zeros((len(s), 3, 2), dtype=complex), s=s,
                         beta_nlos=beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no 0 / 0 on a zero matrix
        est = build_estimation_state(state, pilot_map(pilot_of, p_hat, tau_p),
                                     sigma2)
    assert np.all(np.diff(est.eig, axis=-1) >= 0), label
    if not s.any():
        assert not est.core.any()
        return
    r = beta[:, :, None, None] * s[:, None]
    for k in range(3):
        psi = sigma2 * np.eye(2)
        for j in np.flatnonzero(np.equal(pilot_of, pilot_of[k])):
            psi = psi + tau_p * p_hat[j] * r[:, j]
        rel = (np.abs(psi @ est.core[:, k] - r[:, k]).max(axis=(-2, -1))
               / np.abs(r[:, k]).max(axis=(-2, -1)))
        assert rel.max() <= 1e-10, (label, k)
