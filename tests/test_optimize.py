from dataclasses import replace

import numpy as np
import pytest

from simcf import SystemConfig, generate_drop
from simcf.estimation import EstimationError
from simcf.optimize import (BeamformingConfig, SumSeObjective,
                            allocate_pilots, maxmin_power,
                            optimize_beamforming, pilot_interference,
                            sinr_coefficients)
from simcf.pipeline import NetworkModel
from simcf.se import (SinrComputationError, egcd_weights, lsfd_weights,
                      sinr_from_weights)

from reference import (optimize_beamforming_serial, replace_ap,
                       sinr_coefficients_loop, terms_loop)


def test_pilots_identity_when_enough():
    cfg = SystemConfig(L=2, K=4, U=1, M=1, N=4, tau_p=4)
    drop = generate_drop(cfg, 0)
    pa = allocate_pilots(drop)
    assert np.array_equal(pa.pilot_of, np.arange(4))
    assert np.all(np.bincount(pa.pilot_of, minlength=cfg.tau_p) == 1)


def test_colocated_twin_avoided():
    # UE 2 sits on top of UE 0 while UE 1 is weak everywhere; the greedy
    # rule must steer UE 2 away from its co-located twin's pilot
    cfg = SystemConfig(L=3, K=3, U=1, M=1, N=4, tau_p=2)
    drop = generate_drop(cfg, 1)
    beta = drop.beta.copy()
    beta[:, 2] = beta[:, 0]            # same large-scale profile as UE 0
    beta[:, 1] = 1e-3 * beta[:, 0]     # distant third UE
    object.__setattr__(drop, "beta", beta)
    pa = allocate_pilots(drop)
    assert pa.pilot_of[2] == pa.pilot_of[1] != pa.pilot_of[0]
    # exhaustive check: chosen pilot minimizes the interference metric
    ui = pilot_interference(drop, 2, np.array([0, 1]), pa.pilot_of)
    assert pa.pilot_of[2] == np.argmin(ui)


def test_greedy_beats_random_median():
    cfg = SystemConfig(L=4, K=8, U=1, M=1, N=4, tau_p=3)
    drop = generate_drop(cfg, 2)

    def worst_ui(pilot_of):
        total = 0.0
        for k in range(cfg.K):
            others = np.flatnonzero(pilot_of == pilot_of[k])
            others = others[others != k]
            if others.size:
                total = max(total, (drop.beta[:, k][:, None]
                                    * drop.beta[:, others]).sum())
        return total

    greedy = worst_ui(allocate_pilots(drop).pilot_of)
    rng = np.random.default_rng(3)
    randoms = []
    for _ in range(1000):
        assignment = np.concatenate([np.arange(cfg.tau_p),
                                     rng.integers(0, cfg.tau_p,
                                                  cfg.K - cfg.tau_p)])
        randoms.append(worst_ui(assignment))
    assert greedy <= np.median(randoms)


def test_pilot_allocation_deterministic(small_drop):
    a = allocate_pilots(small_drop).pilot_of
    b = allocate_pilots(small_drop).pilot_of
    assert np.array_equal(a, b)


def test_beamforming_infinite_threshold_is_identity(small_model,
                                                    small_pilots,
                                                    small_phases):
    cfg = BeamformingConfig(min_gain=np.inf, max_probes=2)
    out, trace = optimize_beamforming(small_model, small_pilots.pilot_of,
                                      small_phases, cfg, rng=0)
    assert np.array_equal(out, np.mod(small_phases, 2 * np.pi))
    assert all(not row.accepted for row in trace)
    assert trace[0].objective == trace[-1].objective


def test_beamforming_monotone_and_improving(small_model, small_pilots,
                                            small_phases):
    cfg = BeamformingConfig(block_size=3, max_probes=8)
    out, trace = optimize_beamforming(small_model, small_pilots.pilot_of,
                                      small_phases, cfg, rng=1)
    objs = [row.objective for row in trace]
    assert all(b - a >= 0 for a, b in zip(objs, objs[1:]))
    accepted = [row for row in trace if row.accepted]
    assert trace[-1].objective >= trace[0].objective
    # every accepted step improves by more than the threshold
    prev = trace[0].objective
    for row in trace:
        if row.accepted:
            assert row.objective > prev + cfg.min_gain
        prev = row.objective if row.accepted else prev
    assert np.all((out >= 0) & (out < 2 * np.pi))
    assert len(accepted) > 0


def test_beamforming_deterministic(small_model, small_pilots, small_phases):
    cfg = BeamformingConfig(max_probes=4)
    out1, _ = optimize_beamforming(small_model, small_pilots.pilot_of,
                                   small_phases, cfg, rng=11)
    out2, _ = optimize_beamforming(small_model, small_pilots.pilot_of,
                                   small_phases, cfg, rng=11)
    assert np.array_equal(out1, out2)


def test_incremental_objective_matches_full_rebuild(small_model,
                                                    small_pilots,
                                                    small_phases):
    obj = SumSeObjective(small_model, small_pilots.pilot_of)
    obj.set_phases(small_phases)
    rng = np.random.default_rng(4)
    candidate = np.mod(small_phases[1] + rng.uniform(0, 1, small_phases[1].shape),
                       2 * np.pi)
    fast = obj.value_of(obj.probe(1, [candidate]), 0)
    full = small_phases.copy()
    full[1] = candidate
    slow = obj.set_phases(full)
    assert fast == pytest.approx(slow, rel=1e-12)


def test_final_phases_reproduce_reported_objective(small_model, small_pilots,
                                                   small_phases):
    cfg = BeamformingConfig(max_probes=6)
    out, trace = optimize_beamforming(small_model, small_pilots.pilot_of,
                                      small_phases, cfg, rng=5)
    obj = SumSeObjective(small_model, small_pilots.pilot_of)
    assert obj.set_phases(out) == pytest.approx(trace[-1].objective,
                                                rel=1e-12)


def test_beamforming_config_validation():
    with pytest.raises(ValueError):
        BeamformingConfig(step_size=0.0)
    with pytest.raises(ValueError):
        BeamformingConfig(max_probes=0)
    with pytest.raises(ValueError):
        BeamformingConfig(min_gain=-1.0)


def test_maxmin_single_ue():
    cfg = SystemConfig(L=2, K=1, U=2, M=1, N=4, tau_p=1)
    drop = generate_drop(cfg, 7)
    model = NetworkModel.from_drop(drop)
    pilots = allocate_pilots(drop)
    phases = model.random_phases(8)
    terms = model.terms(phases, pilots.pilot_of)
    p_hat = cfg.pilot_powers()
    w = lsfd_weights(terms, drop.p, p_hat, cfg.tau_p, cfg.sigma2)
    full = sinr_from_weights(terms, w, drop.p, p_hat, cfg.tau_p, cfg.sigma2)
    eps = 1e-4
    sol = maxmin_power(terms, w, cfg.p_max, p_hat, cfg.tau_p, cfg.sigma2,
                       eps=eps)
    # single-UE SINR is monotone in power: the optimum is full power
    assert sol.p[0] == pytest.approx(cfg.p_max, rel=1e-3)
    assert abs(sol.t_star - full[0]) <= eps
    assert sol.bracket[1] - sol.bracket[0] < eps


def _maxmin_setup(seed):
    cfg = SystemConfig(L=4, K=4, U=2, M=2, N=9, tau_p=2)
    drop = generate_drop(cfg, seed)
    model = NetworkModel.from_drop(drop)
    pilots = allocate_pilots(drop)
    phases = model.random_phases([seed, 5])
    terms = model.terms(phases, pilots.pilot_of)
    p_hat = cfg.pilot_powers()
    w = lsfd_weights(terms, drop.p, p_hat, cfg.tau_p, cfg.sigma2)
    return cfg, drop, terms, p_hat, w


def test_maxmin_improves_minimum():
    for seed in range(8):
        cfg, drop, terms, p_hat, w = _maxmin_setup(30 + seed)
        full = sinr_from_weights(terms, w, drop.p, p_hat, cfg.tau_p,
                                 cfg.sigma2)
        eps = 1e-4
        sol = maxmin_power(terms, w, cfg.p_max, p_hat, cfg.tau_p, cfg.sigma2,
                           eps=eps)
        after = sinr_from_weights(terms, w, sol.p, p_hat, cfg.tau_p,
                                  cfg.sigma2)
        assert after.min() >= full.min() - eps
        assert np.all(sol.p >= 0) and np.all(sol.p <= cfg.p_max * (1 + 1e-9))
        # achieved minimum matches the certified bisection value
        assert after.min() >= sol.t_star - eps
        # the fixed point equalizes the SINRs of active UEs
        assert after.max() - after.min() <= max(2 * eps, 1e-3 * after.max())


def test_maxmin_iteration_bound():
    cfg, drop, terms, p_hat, w = _maxmin_setup(50)
    coeffs = sinr_coefficients(terms, w, p_hat, cfg.tau_p, cfg.sigma2)
    full_max = coeffs.gamma(drop.p).max()
    eps = 1e-3
    sol = maxmin_power(terms, w, cfg.p_max, p_hat, cfg.tau_p, cfg.sigma2,
                       eps=eps)
    assert sol.iterations <= int(np.ceil(np.log2(2 * full_max / eps)))


def test_maxmin_coefficients_match_direct_evaluation():
    cfg, drop, terms, p_hat, w = _maxmin_setup(60)
    coeffs = sinr_coefficients(terms, w, p_hat, cfg.tau_p, cfg.sigma2)
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = rng.uniform(0, cfg.p_max, cfg.K)
        direct = sinr_from_weights(terms, w, p, p_hat, cfg.tau_p, cfg.sigma2)
        assert np.allclose(coeffs.gamma(p), direct, rtol=1e-10)


@pytest.mark.parametrize("decoder", ["lsfd", "egcd"])
def test_sinr_coefficients_match_per_ue_loop(decoder):
    for seed in range(10):
        cfg, drop, terms, p_hat, w = _maxmin_setup(80 + seed)
        if decoder == "egcd":
            w = egcd_weights(terms)
        args = (p_hat, cfg.tau_p, cfg.sigma2)
        fast = sinr_coefficients(terms, w, *args)
        ref = sinr_coefficients_loop(terms, w, *args)
        for name in ("signal", "d", "noise"):
            want = getattr(ref, name)
            assert np.allclose(getattr(fast, name), want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


def test_maxmin_with_egcd_weights():
    cfg, drop, terms, p_hat, _ = _maxmin_setup(70)
    w = egcd_weights(terms)
    sol = maxmin_power(terms, w, cfg.p_max, p_hat, cfg.tau_p, cfg.sigma2)
    after = sinr_from_weights(terms, w, sol.p, p_hat, cfg.tau_p, cfg.sigma2)
    full = sinr_from_weights(terms, w, drop.p, p_hat, cfg.tau_p, cfg.sigma2)
    assert after.min() >= full.min() - 1e-3


@pytest.mark.parametrize("overrides", [
    {},
    {"symmetric_probe": True},
    {"sweeps": 2},
    {"block_size": 3},
    {"block_size": 5},          # 18 atoms: the last block holds 3
    {"max_probes": 1},
    {"min_gain": np.inf},
    {"decoder": "egcd"},
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "default")
def test_batched_search_equals_serial_search(small_model, small_pilots,
                                             small_phases, overrides):
    cfg = BeamformingConfig(**overrides)
    out, trace = optimize_beamforming(small_model, small_pilots.pilot_of,
                                      small_phases, cfg, rng=1)
    ref_out, ref_trace = optimize_beamforming_serial(
        small_model, small_pilots.pilot_of, small_phases, cfg, rng=1)
    assert np.array_equal(out, ref_out)
    assert trace == ref_trace


def test_probe_batch_equals_one_ap_rebuilds(small_model, small_pilots,
                                            small_phases):
    obj = SumSeObjective(small_model, small_pilots.pilot_of)
    obj.set_phases(small_phases)
    rng = np.random.default_rng(8)
    l = 2
    slices = np.mod(small_phases[l] + rng.uniform(0, 1, (6, 2, 9)),
                    2 * np.pi)
    batch = obj.probe(l, slices)
    for i, ap_phases in enumerate(slices):
        patched = small_phases.copy()
        patched[l] = ap_phases
        one_ap = terms_loop(small_model, patched, small_pilots.pilot_of, [l])
        expected = replace_ap(obj.terms, l, one_ap)
        got = batch.terms.candidate(i)
        for name in ("z", "xi", "delta", "lam"):
            assert np.array_equal(getattr(got, name), getattr(expected, name))
        assert obj.value_of(batch, i) == obj.value_of(
            obj.probe(l, [ap_phases]), 0)
    obj.commit_ap(batch, 4)
    assert np.array_equal(obj.phases[l], slices[4])
    assert np.array_equal(obj.terms.xi, batch.terms.xi[4])
    assert obj.set_phases(obj.phases) == pytest.approx(obj.value_of(batch, 4),
                                                       rel=1e-12)


def _corrupt_probe(model, monkeypatch, index, failure="sinr"):
    """Make candidate `index` of the first probe batch, and that phase
    slice wherever it is evaluated again, fail: "sinr" gives it a negative
    interference term, so its EGCD SINR denominator is nonpositive;
    "estimation" raises EstimationError while it is in the batch."""
    real = model.ap_terms
    target = []

    def ap_terms(l, slices, pilot_of):
        if not target:
            target.append(slices[index].copy())
        hit = [i for i, s in enumerate(slices)
               if np.array_equal(s, target[0])]
        if hit and failure == "estimation":
            raise EstimationError("pilot covariance is singular")
        terms = real(l, slices, pilot_of)
        xi = terms.xi.copy()
        xi[..., hit] = -1e6 * np.abs(xi).max()
        return replace(terms, xi=xi)

    monkeypatch.setattr(model, "ap_terms", ap_terms)


@pytest.mark.parametrize("failure", ["sinr", "estimation"])
@pytest.mark.parametrize("symmetric", [False, True])
def test_failing_probe_past_the_accepted_one_is_never_raised(
        small_drop, small_pilots, small_phases, monkeypatch, symmetric,
        failure):
    cfg = BeamformingConfig(decoder="egcd", symmetric_probe=symmetric)
    model = NetworkModel.from_drop(small_drop)
    clean = optimize_beamforming(model, small_pilots.pilot_of, small_phases,
                                 cfg, rng=3)
    first = next(row for row in clean[1] if row.accepted)
    assert first.iteration < cfg.max_probes   # accepted in block 1, early
    # forward probe first.iteration + 1 (index first.iteration) is never
    # evaluated, and neither is its mirror
    index = first.iteration + (cfg.max_probes if symmetric else 0)
    _corrupt_probe(model, monkeypatch, index, failure)
    out, trace = optimize_beamforming(model, small_pilots.pilot_of,
                                      small_phases, cfg, rng=3)
    assert np.array_equal(out, clean[0])
    assert trace == clean[1]


@pytest.mark.parametrize("failure, error", [
    ("sinr", SinrComputationError), ("estimation", EstimationError)])
def test_failing_probe_reached_by_the_search_raises(small_drop, small_pilots,
                                                    small_phases, monkeypatch,
                                                    failure, error):
    cfg = BeamformingConfig(decoder="egcd")
    model = NetworkModel.from_drop(small_drop)
    _, trace = optimize_beamforming(model, small_pilots.pilot_of,
                                    small_phases, cfg, rng=3)
    first = next(row for row in trace if row.accepted)
    _corrupt_probe(model, monkeypatch, first.iteration - 1, failure)
    with pytest.raises(error):
        optimize_beamforming(model, small_pilots.pilot_of, small_phases, cfg,
                             rng=3)
