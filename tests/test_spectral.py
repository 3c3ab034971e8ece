# The spectral estimation state and closed-form terms against the
# solve-based estimation and einsum terms they replace (tests/reference.py),
# and the properties of the spectral form itself: a typed error for a pilot
# covariance that is not positive definite, the condition number that comes
# with the eigendecomposition, and C-contiguous terms.

import logging
from dataclasses import fields, replace

import numpy as np
import pytest

from simcf import SystemConfig, allocate_pilots, generate_drop, se
from simcf.channel import ChannelState
from simcf.estimation import (EstimationError, build_estimation_state,
                              pilot_map)
from simcf.optimize import SumSeObjective
from simcf.pipeline import NetworkModel

from reference import (build_channel_state_slices,
                       build_estimation_state_solve, copilot_of, factors_loop,
                       lsfd_weights_loop, omega_of,
                       sinr_coefficients_loop, sinr_parts_loop,
                       sinr_terms_einsum, term, turned_slices)

RTOL = 1e-12


def _drops(k_ues, n_ant, shared):
    """(model, phases) of 6 random drops; shared gives the UEs tau_p = 2
    pilots (co-pilots from K = 3 on), else one pilot each."""
    tau_p = min(k_ues, 2) if shared else k_ues
    cfg = SystemConfig(L=3, K=k_ues, U=n_ant, M=2, N=9, tau_p=tau_p)
    for seed in range(6):
        drop = generate_drop(cfg, [seed, k_ues, n_ant, shared])
        model = NetworkModel.from_drop(drop, allocate_pilots(drop))
        yield model, model.random_phases([seed, 1])


def _close(got, want, what):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0, err_msg=what)


@pytest.mark.parametrize("shared", [False, True], ids=["own-pilots",
                                                       "co-pilots"])
@pytest.mark.parametrize("n_ant", [1, 2, 3])
@pytest.mark.parametrize("k_ues", [1, 4, 5])
def test_spectral_terms_match_solve_and_einsum_oracles(k_ues, n_ant, shared):
    # 18 settings x 6 drops = 108 drops
    rng = np.random.default_rng([k_ues, n_ant, shared])
    for model, phases in _drops(k_ues, n_ant, shared):
        cfg = model.cfg
        args = (cfg.pilot_powers(), cfg.tau_p, cfg.sigma2)
        state = model.channel_state(phases)
        est = model.estimation_state(state)
        ref = sinr_terms_einsum(state, build_estimation_state_solve(
            state, model.pilots.pilot_of, *args))
        terms = se.sinr_terms(state, est)
        assert copilot_of(terms).any() == (shared and k_ues > 2)
        assert terms.delta.dtype == float
        for name in ("z", "xi", "delta", "lam"):
            _close(term(terms, name), term(ref, name), name)
        one_zero = rng.uniform(0, cfg.p_max, cfg.K)
        one_zero[rng.integers(cfg.K)] = 0.0
        for p in (model.drop.p, one_zero):
            # the compact dg against the materialised xi of both
            dg, dp = se._factors(terms, p)
            dg_xi, _ = factors_loop(terms, p, *args)
            dg_ref, dp_ref = factors_loop(ref, p, *args)
            _close(dg, dg_xi, "dg from xi")
            _close(dg, dg_ref, "dg")
            _close(dp, dp_ref, "Delta'")
            for decoder in se.DECODERS:
                for i, (got, want) in enumerate(zip(
                        se.sinr_parts(terms, decoder, p),
                        sinr_parts_loop(ref, decoder, p, *args))):
                    _close(got, want, f"{decoder} part {i}")
            weights = (se.lsfd_weights(terms, p), se.egcd_weights(terms))
            _close(weights[0], lsfd_weights_loop(ref, p, *args),
                   "lsfd weights")
            for w in weights:
                got = se.sinr_coefficients(terms, w)
                want = sinr_coefficients_loop(ref, w, *args)
                for name in ("signal", "d", "noise"):
                    _close(getattr(got, name), getattr(want, name),
                           f"coefficients {name}")


def test_estimation_matrices_match_the_solve(small_model, small_pilots,
                                             small_phases, small_cfg):
    state = small_model.channel_state(small_phases)
    est = small_model.estimation_state(state)
    ref = build_estimation_state_solve(
        state, small_pilots.pilot_of, small_cfg.pilot_powers(),
        small_cfg.tau_p, small_cfg.sigma2)
    omega = omega_of(est)
    for name, got in (("core", est.core), ("omega", omega)):
        want = getattr(ref, name)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())
    assert np.array_equal(omega, omega.conj().swapaxes(-1, -2))


def _rank_one_state(n_ue=2, beta=1e-9):
    """One AP with the antenna correlation diag(1, 0) (rank 1, exactly)."""
    return ChannelState(h_bar=np.zeros((1, n_ue, 2), dtype=complex),
                        s=np.diag([1.0, 0.0]).astype(complex)[None],
                        beta_nlos=np.full((1, n_ue), beta))


@pytest.mark.parametrize("s", [
    np.diag([1.0, 0.0]),
    np.diag([2.0, 0.0, 0.5]),
    np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
], ids=["u2-rank1", "u3-rank2", "u3-rank1"])
def test_singular_pilot_covariance_raises_estimation_error(s):
    # sigma2 = 0 and a rank-deficient s: psi = load s is singular, with a
    # zero eigenvalue on every pilot in use
    u = s.shape[0]
    state = ChannelState(h_bar=np.ones((2, 3, u), dtype=complex),
                         s=np.repeat(s.astype(complex)[None], 2, axis=0),
                         beta_nlos=np.full((2, 3), 1e-9))
    pilots = pilot_map([0, 1, 0], np.full(3, 0.2), 2)
    with pytest.raises(EstimationError, match="singular"):
        build_estimation_state(state, pilots, sigma2=0.0)
    # any noise makes it regular again: no error, finite terms
    est = build_estimation_state(state, pilots, sigma2=1e-12)
    terms = se.sinr_terms(state, est)
    assert all(np.all(np.isfinite(getattr(terms, f.name)))
               for f in fields(terms)
               if isinstance(getattr(terms, f.name), np.ndarray))


def test_idle_pilot_is_not_checked():
    # pilot 0 is held by no UE: with sigma2 = 0 its covariance is 0, which
    # no link solves with
    state = ChannelState(h_bar=np.zeros((1, 2, 1), dtype=complex),
                         s=np.ones((1, 1, 1), dtype=complex),
                         beta_nlos=np.full((1, 2), 1e-9))
    est = build_estimation_state(state, pilot_map([1, 1], np.full(2, 0.2), 2),
                                 sigma2=0.0)
    assert est.condition == 1.0
    np.testing.assert_allclose(est.core[0, :, 0, 0], 1e-9 / (2 * 0.4e-9),
                               rtol=1e-15)


def _indefinite_probe_model(decoder):
    """(objective at its start phases, AP l, block rows and cols, steps,
    index of the first failing probe) on a network whose output-grid
    correlation diag(1, -1, 0, 0) is indefinite, with sigma2 = 0: every
    pilot covariance is positive definite at the start phases and under
    the first step of AP l's block, and not under a later step."""
    cfg = SystemConfig(L=2, K=2, U=1, M=2, N=4, tau_p=1, sigma2=0.0)
    drop = generate_drop(cfg, 3)
    model = replace(NetworkModel.from_drop(drop, allocate_pilots(drop)),
                    base_corr=np.diag([1.0, -1.0, 0.0, 0.0]))
    objective = SumSeObjective([model], decoder=decoder)
    steps = np.arange(1, 16) * np.pi / 8
    rng = np.random.default_rng(4)
    for _ in range(200):
        phases = model.random_phases(rng)
        try:
            objective.set_phases(phases[None])
        except EstimationError:
            continue
        l = int(rng.integers(cfg.L))
        rows, cols = np.unravel_index(rng.permutation(cfg.M * cfg.N)[:2],
                                      (cfg.M, cfg.N))
        fails = []
        for step in steps:
            try:
                model.estimation_state(build_channel_state_slices(
                    model, turned_slices(phases[l], rows, cols, [step]), [l]))
                fails.append(False)
            except EstimationError:
                fails.append(True)
        if any(fails) and not fails[0]:
            return objective, l, rows, cols, steps, fails.index(True)
    raise AssertionError("no network with an indefinite probe found")


@pytest.mark.parametrize("decoder", se.DECODERS)
def test_indefinite_probe_raises_only_when_reached(decoder):
    objective, l, rows, cols, steps, bad = _indefinite_probe_model(decoder)
    start = objective.phases.copy()
    assert bad > 0
    # the batch holds the probe, so it fails as a whole ...
    with pytest.raises(EstimationError, match="indefinite"):
        objective.probe(l, rows, cols, steps)
    # ... but the search takes probe 0 and never evaluates it alone
    objective.best[:] = -1.0     # below every sum SE
    assert objective.improve(l, rows, cols, steps, 0.0)[0] == 0
    objective.set_phases(start)
    # when no probe before it is accepted, the search reaches it and raises
    objective.best[:] = np.inf
    with pytest.raises(EstimationError, match="indefinite"):
        objective.improve(l, rows, cols, steps, 0.0)
    assert np.array_equal(objective.phases, start)


def test_condition_number_matches_numpy_on_rank_one_case():
    # the rank-1 case of test_badly_conditioned_pilot_covariance_logged_at_
    # debug: psi = diag(0.4e-9 + sigma2, sigma2)
    for sigma2 in (1e-9, 1e-30):
        est = build_estimation_state(
            _rank_one_state(), pilot_map([0, 1], np.full(2, 0.2), 2), sigma2)
        psi = 2 * 0.2 * 1e-9 * np.diag([1.0, 0.0]) + sigma2 * np.eye(2)
        assert est.condition == pytest.approx(np.linalg.cond(psi), rel=1e-12)


def test_condition_number_matches_numpy_on_random_covariances():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n_ap, n_ue, u = (int(x) for x in rng.integers(1, 5, size=3))
        tau_p = int(rng.integers(1, n_ue + 1))
        pilot_of = rng.integers(0, tau_p, n_ue)
        a = (rng.normal(size=(n_ap, u, u))
             + 1j * rng.normal(size=(n_ap, u, u)))
        state = ChannelState(h_bar=np.zeros((n_ap, n_ue, u), dtype=complex),
                             s=a @ a.conj().swapaxes(-1, -2) / u,
                             beta_nlos=rng.uniform(0.1, 1.0, (n_ap, n_ue)))
        p_hat = rng.uniform(0.05, 0.3, n_ue)
        sigma2 = float(rng.uniform(1e-3, 1e-1))
        est = build_estimation_state(state, pilot_map(pilot_of, p_hat, tau_p),
                                     sigma2)
        worst = 0.0
        for l in range(n_ap):
            for t in np.unique(pilot_of):
                load = tau_p * p_hat[pilot_of == t] @ state.beta_nlos[
                    l, pilot_of == t]
                psi = load * state.s[l] + sigma2 * np.eye(u)
                worst = max(worst, np.linalg.cond(psi))
        assert est.condition == pytest.approx(worst, rel=1e-9)


def test_conditioning_log_reads_the_condition_number(caplog):
    state = _rank_one_state()
    pilots = pilot_map([0, 1], np.full(2, 0.2), 2)
    with caplog.at_level(logging.DEBUG, logger="simcf.estimation"):
        est = build_estimation_state(state, pilots, sigma2=1e-30)
    assert f"{est.condition:.3e}" in caplog.text


def _array_fields(terms):
    return {f.name: getattr(terms, f.name) for f in fields(terms)
            if isinstance(getattr(terms, f.name), np.ndarray)}


def test_terms_are_c_contiguous_and_layout_free(small_model, small_phases):
    terms = small_model.terms(small_phases)
    arrays = _array_fields(terms)
    assert set(arrays) == {"z", "lam", "delta", "beta", "nu", "spec",
                           "power", "cross"}
    for name, arr in arrays.items():
        assert arr.flags.c_contiguous, name
        assert arr.shape[-1] == terms.z.shape[-1]
    copied = replace(terms, **{name: np.ascontiguousarray(arr.copy())
                               for name, arr in arrays.items()})
    for w in (se.lsfd_weights(terms, small_model.drop.p),
              se.egcd_weights(terms)):
        got = se.sinr_coefficients(terms, w)
        again = se.sinr_coefficients(copied, w)
        for name in ("signal", "d", "noise"):
            assert np.array_equal(getattr(got, name),
                                  getattr(again, name)), name
