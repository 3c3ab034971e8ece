import json
from dataclasses import fields, replace

import numpy as np
import pytest

from simcf import (SystemConfig, channel, estimation, fig3_spec,
                   generate_drop, optimize, pipeline, random_phase_tensor, se,
                   table1_spec)
from simcf.estimation import EstimationError, PilotMap, pilot_map
from simcf.optimize import (BeamformingConfig, SumSeObjective, Trace,
                            TraceRow, allocate_pilots, maxmin_power,
                            optimize_beamforming, pilot_interference)
from simcf.pipeline import NetworkModel
from simcf.se import (SinrCoefficients, SinrComputationError, egcd_weights,
                      lsfd_weights, se_from_sinr, sinr_coefficients,
                      sinr_from_parts, sinr_from_weights)

from reference import (candidate, denominator_matrices,
                       maxmin_power_bisection,
                       optimize_beamforming_per_probe,
                       optimize_beamforming_serial, probe_terms_slices,
                       replace_ap, sinr_breakdown, sinr_coefficients_loop,
                       sinr_of_breakdown, splice_ap, term, terms_loop,
                       turned_slices)


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


def test_pilot_interference_sums_cost_per_pilot():
    # equal bit for bit to adding each assigned UE's cost in index order
    for tau_p in (1, 2, 3):
        cfg = SystemConfig(L=3, K=6, U=1, M=1, N=4, tau_p=tau_p)
        drop = generate_drop(cfg, tau_p)
        pilot_of = np.arange(cfg.K) % tau_p
        assigned = np.arange(5)
        expected = np.zeros(tau_p)
        for j in assigned:
            expected[pilot_of[j]] += (drop.beta[:, 5] * drop.beta[:, j]).sum()
        got = pilot_interference(drop, 5, assigned, pilot_of)
        assert np.array_equal(got, expected)
    # an unassigned UE (-1) among the assigned ones is an error, not a
    # charge on the last pilot
    with pytest.raises(ValueError):
        pilot_interference(drop, 5, assigned, np.array([0, 1, -1, 0, 1, 2]))


def test_batch_allocation_equals_each_drop_alone():
    # the greedy step runs for every drop of a batch at once
    for L, K, tau_p in ((3, 10, 4), (12, 9, 3), (2, 3, 4)):
        cfg = SystemConfig(L=L, K=K, U=1, M=1, N=4, tau_p=tau_p)
        seeds = [[5, d, 0] for d in range(6)]
        batch = allocate_pilots(generate_drop(cfg, seeds)).pilot_of
        assert batch.shape == (6, K)
        for d, seed in enumerate(seeds):
            alone = allocate_pilots(generate_drop(cfg, seed)).pilot_of
            assert np.array_equal(batch[d], alone)


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


def test_beamforming_infinite_threshold_is_identity(small_model, small_phases):
    cfg = BeamformingConfig(min_gain=np.inf, max_probes=2)
    [(out, trace)] = optimize_beamforming([small_model], small_phases,
                                          cfg, rng=0)
    assert np.array_equal(out, np.mod(small_phases, 2 * np.pi))
    assert all(not row.accepted for row in trace)
    assert trace[0].objective == trace[-1].objective


def test_beamforming_monotone_and_improving(small_model, small_phases):
    cfg = BeamformingConfig(block_size=3, max_probes=8)
    [(out, trace)] = optimize_beamforming([small_model], small_phases,
                                          cfg, rng=1)
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


def test_trace_rows_from_its_accepts():
    trace = Trace(1.0)
    trace.record(2)
    trace.record(1, 1.5)
    trace.record(3, 2.0)
    trace.record(0, 2.5)
    rows = [TraceRow(0, 1.0, False), TraceRow(1, 1.0, False),
            TraceRow(2, 1.0, False), TraceRow(3, 1.0, False),
            TraceRow(4, 1.5, True), TraceRow(5, 1.5, False),
            TraceRow(6, 1.5, False), TraceRow(7, 1.5, False),
            TraceRow(8, 2.0, True), TraceRow(9, 2.5, True)]
    assert len(trace) == 10 and list(trace) == rows and trace == rows
    assert trace[-1] == rows[-1] and trace[3:6] == rows[3:6]
    assert trace != rows[:-1] and trace != None   # noqa: E711
    with pytest.raises(IndexError):
        trace[10]


def test_trace_rows_hold_python_types(small_model, small_phases):
    # every field of every row has the type its annotation names, from the
    # first accept on as well, so that a trace serializes as it is
    [(_, trace)] = optimize_beamforming([small_model], small_phases,
                                        BeamformingConfig(sweeps=2), rng=1)
    assert type(trace.__len__()) is int
    assert sum(row.accepted for row in trace) > 0
    for row in trace:
        for field in fields(TraceRow):
            assert type(getattr(row, field.name)) is field.type
    json.dumps([(row.iteration, row.objective, row.accepted)
                for row in trace])


def test_beamforming_deterministic(small_model, small_phases):
    cfg = BeamformingConfig(max_probes=4)
    [(out1, _)] = optimize_beamforming([small_model], small_phases, cfg,
                                       rng=11)
    [(out2, _)] = optimize_beamforming([small_model], small_phases, cfg,
                                       rng=11)
    assert np.array_equal(out1, out2)


def test_incremental_objective_matches_full_rebuild(small_model, small_phases):
    obj = SumSeObjective([small_model])
    obj.set_phases(small_phases[None])
    rows, cols = np.array([0, 1, 1]), np.array([3, 3, 8])
    for step in (0.7, -2.5):
        fast = float(obj.probe(1, rows, cols, [step])[0][0, 0])
        full = small_phases.copy()
        full[1] = turned_slices(small_phases[1], rows, cols, [step])[0]
        slow = obj.set_phases(full[None])[0]
        assert fast == pytest.approx(slow, rel=1e-12)
        obj.set_phases(small_phases[None])


def _paper_scale_cases():
    """(model, phases): 5 drops at every Table I pitch and at the
    Fig. 3 cell L = 40 (N = 6). Their denominator matrices reach condition
    numbers of 2.6e5 (pitch lambda/8) to 3.3e8 (L = 40)."""
    cfgs = [table1_spec().config_for(v) for v in table1_spec().values]
    for cfg in cfgs + [fig3_spec().config_for(40)]:
        for d in range(5):
            drop = generate_drop(cfg, [17, d, 0])
            yield (NetworkModel.from_drop(drop, allocate_pilots(drop)),
                   random_phase_tensor(cfg.L, cfg.M, cfg.N, [17, d, 1]))


def _dense_lsfd(terms, args):
    """(weights, SINR) of LSFD from a dense solve of every b_k."""
    w = np.linalg.solve(denominator_matrices(terms, *args),
                        terms.z.astype(complex)[..., None])[..., 0]
    return w, args[0] * np.real(np.einsum("...kl,...kl->...k", terms.z, w))


def test_woodbury_lsfd_and_probes_match_dense_solves():
    rng = np.random.default_rng(23)
    for model, phases in _paper_scale_cases():
        cfg = model.cfg
        args = (model.drop.p, cfg.pilot_powers(), cfg.tau_p, cfg.sigma2)
        obj = SumSeObjective([model])
        [value] = obj.set_phases(phases[None])
        terms = model.terms(phases)
        w_ref, gamma_ref = _dense_lsfd(terms, args)
        w = lsfd_weights(terms, model.drop.p)
        assert np.all(np.linalg.norm(w - w_ref, axis=-1)
                      <= 1e-9 * np.linalg.norm(w_ref, axis=-1))
        gamma = sinr_from_parts([part[0].sum(axis=-1) for part in obj.parts],
                                "lsfd", model.drop.p)
        np.testing.assert_allclose(gamma, gamma_ref, rtol=1e-12, atol=0)
        assert value == pytest.approx(
            se_from_sinr(gamma_ref, cfg.tau_c, cfg.tau_p).sum(), rel=1e-12)
        # the other-AP sums of the first and the last AP
        for l in (0, cfg.L - 1):
            block = rng.permutation(cfg.M * cfg.N)[:4]
            rows, cols = np.unravel_index(block, (cfg.M, cfg.N))
            steps = np.array([1, 6, 11]) * np.pi / 8
            [values], _ = obj.probe(l, rows, cols, steps)
            stack = splice_ap(terms, l, probe_terms_slices(
                model, phases, l, rows, cols, steps))
            _, gamma_ref = _dense_lsfd(stack, args)
            np.testing.assert_allclose(
                values, se_from_sinr(gamma_ref, cfg.tau_c, cfg.tau_p).sum(-1),
                rtol=1e-12, atol=0)
            for i, turned in enumerate(turned_slices(phases[l], rows, cols,
                                                     steps)):
                rebuilt = SumSeObjective([model])
                patched = phases.copy()
                patched[l] = turned
                assert values[i] == pytest.approx(
                    rebuilt.set_phases(patched[None])[0], rel=1e-12)


def test_final_phases_reproduce_reported_objective(small_model, small_phases):
    cfg = BeamformingConfig(max_probes=6)
    [(out, trace)] = optimize_beamforming([small_model], small_phases,
                                          cfg, rng=5)
    obj = SumSeObjective([small_model])
    assert obj.set_phases(out[None])[0] == pytest.approx(trace[-1].objective,
                                                         rel=1e-12)


def test_beamforming_config_validation():
    with pytest.raises(ValueError):
        BeamformingConfig(step_size=0.0)
    with pytest.raises(ValueError):
        BeamformingConfig(max_probes=0)
    with pytest.raises(ValueError):
        BeamformingConfig(min_gain=-1.0)
    with pytest.raises(ValueError, match="decoder"):
        BeamformingConfig(decoder="lsdf")
    # these constructed, and then failed mid-sweep (block_size=2.5) or made
    # every probe fail its acceptance test (min_gain=nan)
    for name in ("max_probes", "block_size", "sweeps"):
        for bad in (2.5, 1.0, True, "2"):
            with pytest.raises(ValueError,
                               match=f"{name} must be a positive integer"):
                BeamformingConfig(**{name: bad})
    with pytest.raises(ValueError, match="min_gain"):
        BeamformingConfig(min_gain=float("nan"))
    BeamformingConfig(max_probes=np.int64(3), block_size=2, sweeps=1,
                      min_gain=np.inf)


def test_default_probes_skip_the_identity_turn():
    # a probe that turns the block by a whole turn only re-evaluates the
    # current phases, so it can never clear min_gain
    cfg = BeamformingConfig()
    steps = np.arange(1, cfg.max_probes + 1) * cfg.step_size
    turns = steps / (2 * np.pi)
    assert np.all(np.abs(turns - np.round(turns)) > 1e-9)


def test_maxmin_single_ue():
    cfg = SystemConfig(L=2, K=1, U=2, M=1, N=4, tau_p=1)
    drop = generate_drop(cfg, 7)
    model = NetworkModel.from_drop(drop, allocate_pilots(drop))
    phases = model.random_phases(8)
    terms = model.terms(phases)
    w = lsfd_weights(terms, drop.p)
    full = sinr_from_weights(terms, w, drop.p)
    eps = 1e-4
    sol = maxmin_power(sinr_coefficients(terms, w), cfg.p_max, eps=eps)[0]
    # single-UE SINR is monotone in power: the optimum is full power
    assert sol.p[0] == pytest.approx(cfg.p_max, rel=1e-3)
    assert abs(sol.t_star - full[0]) <= eps
    assert sol.bracket[1] - sol.bracket[0] < eps


def _maxmin_setup(seed):
    cfg = SystemConfig(L=4, K=4, U=2, M=2, N=9, tau_p=2)
    drop = generate_drop(cfg, seed)
    model = NetworkModel.from_drop(drop, allocate_pilots(drop))
    phases = model.random_phases([seed, 5])
    terms = model.terms(phases)
    w = lsfd_weights(terms, drop.p)
    return cfg, drop, terms, cfg.pilot_powers(), w


def test_maxmin_improves_minimum():
    for seed in range(8):
        cfg, drop, terms, _, w = _maxmin_setup(30 + seed)
        full = sinr_from_weights(terms, w, drop.p)
        eps = 1e-4
        sol = maxmin_power(sinr_coefficients(terms, w), cfg.p_max, eps=eps)[0]
        after = sinr_from_weights(terms, w, sol.p)
        assert after.min() >= full.min() - eps
        assert np.all(sol.p >= 0) and np.all(sol.p <= cfg.p_max * (1 + 1e-9))
        # achieved minimum matches the certified bisection value
        assert after.min() >= sol.t_star - eps
        # the fixed point equalizes the SINRs of active UEs
        assert after.max() - after.min() <= max(2 * eps, 1e-3 * after.max())


def test_maxmin_iteration_bound():
    cfg, drop, terms, _, w = _maxmin_setup(50)
    coeffs = sinr_coefficients(terms, w)
    full_max = coeffs.sinr(drop.p).max()
    eps = 1e-3
    sol = maxmin_power(coeffs, cfg.p_max, eps=eps)[0]
    assert sol.iterations <= int(np.ceil(np.log2(2 * full_max / eps)))


def test_maxmin_rejects_nan_tolerance():
    # a NaN bracket width would skip the bisection and return full power
    cfg, drop, terms, _, w = _maxmin_setup(50)
    with pytest.raises(ValueError, match="eps must be > 0"):
        maxmin_power(sinr_coefficients(terms, w), cfg.p_max, eps=float("nan"))


def _spy_solves(monkeypatch):
    """The targets t of every optimize._feasible_powers call from now on."""
    real = optimize._feasible_powers
    calls = []

    def spy(coeffs, t, p_max):
        calls.append(t)
        return real(coeffs, t, p_max)

    monkeypatch.setattr(optimize, "_feasible_powers", spy)
    return calls


def _in_guard_band(coeffs, p_max, t):
    rho = optimize._perron_root(coeffs, p_max)
    return abs(t * rho - 1.0) <= optimize._GUARD_BAND


def test_maxmin_solves_only_the_guard_band_and_the_result(monkeypatch):
    cfg, drop, terms, _, w = _maxmin_setup(55)
    coeffs = sinr_coefficients(terms, w)
    real = optimize._feasible_powers
    calls = _spy_solves(monkeypatch)
    sol = maxmin_power(coeffs, cfg.p_max)[0]
    assert sol.t_star > 0 and sol.iterations > 1
    # at most 1 + (guard-band midpoints) solves: every solve but the last,
    # the one for the powers, is of a midpoint near the optimum
    band = [t for t in calls[:-1] if _in_guard_band(coeffs, cfg.p_max, t)]
    assert band == calls[:-1] and calls[-1] == sol.t_star
    # the stored powers are the least solution at the final t_star
    assert np.array_equal(sol.p, real(coeffs, sol.t_star, cfg.p_max))


def _assert_same_solution(coeffs, p_max, eps=1e-3):
    new = maxmin_power(coeffs, p_max, eps=eps)[0]
    old = maxmin_power_bisection(coeffs, p_max, eps=eps)
    assert np.array_equal(new.p, old.p)
    assert new.t_star == old.t_star
    assert new.iterations == old.iterations
    assert new.bracket == old.bracket
    return new


@pytest.mark.parametrize("k_ues,n_ant", [(1, 1), (1, 2), (4, 1), (4, 2),
                                         (5, 1), (5, 2)])
def test_maxmin_equals_bisection_oracle(k_ues, n_ant):
    # 34 drops per (K, U), 204 in all, each under both decoders
    for seed in range(34):
        cfg = SystemConfig(L=3, K=k_ues, U=n_ant, M=2, N=4,
                           tau_p=min(k_ues, 2))
        drop = generate_drop(cfg, [seed, k_ues, n_ant])
        model = NetworkModel.from_drop(drop, allocate_pilots(drop))
        terms = model.terms(model.random_phases([seed, 1]))
        for w in (lsfd_weights(terms, drop.p), egcd_weights(terms)):
            _assert_same_solution(sinr_coefficients(terms, w), cfg.p_max)


def _coeffs(signal, d, noise):
    return SinrCoefficients(signal=np.asarray(signal, dtype=float),
                            d=np.asarray(d, dtype=float),
                            noise=np.asarray(noise, dtype=float))


def test_maxmin_nonpositive_full_power_bracket():
    # a zero power cap: every full-power SINR is 0, t_hi <= 0, no bisection
    coeffs = _coeffs([1.0, 1.0], [[0.5, 0.1], [0.1, 0.5]], [0.1, 0.1])
    sol = _assert_same_solution(coeffs, 0.0)
    assert sol.iterations == 0 and sol.bracket == (0.0, 0.0)
    assert np.array_equal(sol.p, [0.0, 0.0])
    # every full-power denominator negative is a broken input, not an
    # empty bracket
    coeffs = _coeffs([1.0, 1.0], [[-2.0, 0.0], [0.0, -2.0]], [0.1, 0.1])
    with pytest.raises(SinrComputationError, match="SINR denominator"):
        maxmin_power(coeffs, 1.0)


def test_maxmin_infinite_bracket_top_raises():
    # a zero full-power denominator would put the bracket top at inf, which
    # the bisection never narrows
    coeffs = _coeffs([1.0, 1.0], np.zeros((2, 2)), [0.0, 1.0])
    with pytest.raises(SinrComputationError,
                       match="nonpositive SINR denominator for UE 0"):
        maxmin_power(coeffs, 1.0)


@pytest.mark.parametrize("name", ["signal", "d", "noise"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_maxmin_rejects_non_finite_coefficients(name, bad):
    # a non-finite entry of any coefficient is a broken input, raised before
    # any eigvals or solve
    good = dict(signal=[1.0, 1.0], d=[[0.5, 0.1], [0.1, 0.5]],
                noise=[0.1, 0.1])
    for setting in (good, {k: [v, v] for k, v in good.items()}):
        broken = {k: np.array(v, dtype=float) for k, v in setting.items()}
        broken[name].reshape(-1)[-1] = bad
        with pytest.raises(SinrComputationError, match="non-finite"):
            maxmin_power(_coeffs(**broken), 1.0)


def test_maxmin_no_feasible_midpoint_keeps_full_power(monkeypatch):
    # no interference: the optimum is the weaker UE's full-power SINR, 1e-5,
    # below every midpoint of the bracket [0, 2000]
    coeffs = _coeffs([1.0, 1e-5], np.zeros((2, 2)), [1e-3, 1.0])
    calls = _spy_solves(monkeypatch)
    sol = _assert_same_solution(coeffs, 1.0)
    assert sol.t_star == 0.0 and sol.iterations > 1
    assert np.array_equal(sol.p, [1.0, 1.0])
    # every midpoint was decided without a solve, and full power needs none
    assert calls == []


def test_maxmin_guard_band_midpoint_is_solved(monkeypatch):
    # one UE: the optimum is its full-power SINR, 2.5, and the bracket
    # [0, 5] puts the first midpoint on it
    coeffs = _coeffs([2.0], [[0.3]], [0.5])
    t_opt = float(coeffs.sinr(np.ones(1))[0])
    assert _in_guard_band(coeffs, 1.0, t_opt)
    calls = _spy_solves(monkeypatch)
    sol = _assert_same_solution(coeffs, 1.0)
    # the fallback solve at the midpoint, then the one for the powers
    assert calls == [t_opt, sol.t_star]


def test_maxmin_rejected_final_solve_raises(monkeypatch):
    cfg, drop, terms, _, w = _maxmin_setup(55)
    monkeypatch.setattr(optimize, "_feasible_powers",
                        lambda coeffs, t, p_max: np.full(coeffs.signal.shape,
                                                         np.nan))
    with pytest.raises(SinrComputationError, match="no feasible powers"):
        maxmin_power(sinr_coefficients(terms, w), cfg.p_max)


def test_maxmin_certified_at_low_noise():
    # nonnegative D~ with rho(D~) = 1 and noise 1e-12 of rho p_max: past
    # 1/rho(D~) the least solution is tiny and negative, inside the
    # bisection solve's -1e-9 p_max slack
    rng = np.random.default_rng(4)
    d = rng.uniform(0.1, 1.0, (4, 4))
    d /= np.max(np.abs(np.linalg.eigvals(d)))
    p_max = 0.2
    coeffs = _coeffs(np.ones(4), d, np.full(4, 1e-12 * p_max))
    t_opt = 1.0 / optimize._perron_root(coeffs, p_max)
    eps = 1e-3
    sol = maxmin_power(coeffs, p_max, eps=eps)[0]
    assert sol.t_star <= t_opt * (1.0 + optimize._GUARD_BAND)
    assert coeffs.sinr(sol.p).min() >= sol.t_star - eps
    assert np.all(sol.p > 0) and np.all(sol.p <= p_max)
    # the bisection that solves every midpoint accepts targets far above,
    # with the slightly negative powers clipped to 0
    old = maxmin_power_bisection(coeffs, p_max, eps=eps)
    assert old.t_star > 2.0 * t_opt and np.all(old.p == 0)


def _stack_coeffs(settings):
    return SinrCoefficients(*(np.stack([getattr(c, name) for c in settings])
                              for name in ("signal", "d", "noise")))


def test_maxmin_batch_equals_each_setting_alone(monkeypatch):
    # one batch of settings of every kind, at one power cap: an empty
    # bracket (the full-power SINRs underflow to 0), no feasible midpoint
    # (full power), a bracket narrower than eps from the start (no
    # midpoint, as at lambda/8), a midpoint on the optimum (solved in the
    # guard band) and the LSFD and EGCD coefficients of a drop
    p_max = 0.2
    cfg = SystemConfig(L=3, K=2, U=2, M=2, N=4, tau_p=1)
    drop = generate_drop(cfg, 3)
    model = NetworkModel.from_drop(drop, allocate_pilots(drop))
    terms = model.terms(model.random_phases(4))
    band = _coeffs([2.0, 2.0], np.diag([0.3, 0.3]), [0.1, 0.1])
    settings = [_coeffs([1e-200, 1e-200], np.zeros((2, 2)), [1e200, 1e200]),
                _coeffs([1.0, 1e-5], np.zeros((2, 2)), [1e-3, 1.0]),
                _coeffs([1e-5, 2e-5], np.zeros((2, 2)), [1.0, 1.0]),
                band,
                sinr_coefficients(terms, lsfd_weights(terms, drop.p)),
                sinr_coefficients(terms, egcd_weights(terms))]
    assert _in_guard_band(band, p_max, 2.5)
    calls = _spy_solves(monkeypatch)
    batch = maxmin_power(_stack_coeffs(settings), p_max)
    # the guard-band midpoint of one setting, then one stacked final solve
    # of the three settings with a feasible midpoint
    assert calls[:-1] == [2.5] and calls[-1].shape == (3,)
    assert len(batch) == len(settings)
    for got, coeffs in zip(batch, settings):
        for want in (maxmin_power(coeffs, p_max)[0],
                     maxmin_power_bisection(coeffs, p_max)):
            assert np.array_equal(got.p, want.p)
            assert got.t_star == want.t_star
            assert got.iterations == want.iterations
            assert got.bracket == want.bracket
    empty, full, narrow = batch[:3]
    assert empty.iterations == 0 and empty.bracket == (0.0, 0.0)
    assert full.t_star == 0.0 and full.iterations > 1
    t_hi = 2.0 * float(settings[2].sinr(np.full(2, p_max)).max())
    assert 0 < t_hi < 1e-3
    assert narrow.iterations == 0 and narrow.t_star == 0.0
    assert narrow.bracket == (0.0, t_hi)
    for sol in batch[:3]:
        assert np.array_equal(sol.p, [p_max, p_max])
    assert all(sol.t_star > 0 for sol in batch[3:])
    # two leading axes give the same solutions, in C order
    grid = maxmin_power(_stack_coeffs([_stack_coeffs(settings[i:i + 2])
                                       for i in (0, 2, 4)]), p_max)
    assert [(sol.t_star, sol.bracket) for sol in grid] == \
        [(sol.t_star, sol.bracket) for sol in batch]


def test_feasible_powers_stack_with_a_singular_system():
    # t d / signal = 1 makes the first system singular: infeasible (NaN),
    # and the other system is solved as it is alone
    coeffs = _coeffs([[1.0], [1.0]], [[[0.5]], [[0.1]]], [[0.1], [0.1]])
    p = optimize._feasible_powers(coeffs, np.array([2.0, 2.0]), 1.0)
    alone = optimize._feasible_powers(
        _coeffs([1.0], [[0.1]], [0.1]), 2.0, 1.0)
    assert np.isnan(p[0]).all() and np.array_equal(p[1], alone)
    assert alone.shape == (1,) and alone[0] > 0


def test_maxmin_coefficients_match_direct_evaluation():
    # the coefficients max-min bisects over give, at any power vector, the
    # SINR the term-by-term breakdown oracle assembles
    cfg, drop, terms, p_hat, w = _maxmin_setup(60)
    coeffs = sinr_coefficients(terms, w)
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = rng.uniform(0, cfg.p_max, cfg.K)
        direct = sinr_of_breakdown(
            sinr_breakdown(terms, w, p, p_hat, cfg.tau_p, cfg.sigma2))
        np.testing.assert_allclose(coeffs.sinr(p), direct, rtol=1e-10)


@pytest.mark.parametrize("decoder", ["lsfd", "egcd"])
def test_sinr_coefficients_match_per_ue_loop(decoder):
    for seed in range(10):
        cfg, drop, terms, p_hat, w = _maxmin_setup(80 + seed)
        if decoder == "egcd":
            w = egcd_weights(terms)
        fast = sinr_coefficients(terms, w)
        ref = sinr_coefficients_loop(terms, w, p_hat, cfg.tau_p, cfg.sigma2)
        for name in ("signal", "d", "noise"):
            want = getattr(ref, name)
            assert np.allclose(getattr(fast, name), want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


def test_maxmin_with_egcd_weights():
    cfg, drop, terms, _, _ = _maxmin_setup(70)
    w = egcd_weights(terms)
    sol = maxmin_power(sinr_coefficients(terms, w), cfg.p_max)[0]
    after = sinr_from_weights(terms, w, sol.p)
    full = sinr_from_weights(terms, w, drop.p)
    assert after.min() >= full.min() - 1e-3


@pytest.mark.parametrize("overrides", [
    {},
    {"sweeps": 2},
    {"block_size": 3},
    {"block_size": 5},          # 18 atoms: the last block holds 3
    {"max_probes": 1},
    {"min_gain": np.inf},
    {"decoder": "egcd"},
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "default")
def test_batched_search_equals_serial_search(small_model, small_phases,
                                             overrides):
    cfg = BeamformingConfig(**overrides)
    [(out, trace)] = optimize_beamforming([small_model], small_phases,
                                          cfg, rng=1)
    ref_out, ref_trace = optimize_beamforming_serial(
        small_model, small_phases, cfg, rng=1)
    assert np.array_equal(out, ref_out)
    assert [(r.iteration, r.accepted) for r in trace] == \
        [(r.iteration, r.accepted) for r in ref_trace]
    for row, ref_row in zip(trace, ref_trace):
        assert row.objective == pytest.approx(ref_row.objective, rel=1e-12)


def _pitch_group(drop):
    """Models of the drop at its pitch and at half of it (a pitch sweep)."""
    half = replace(drop, cfg=drop.cfg.replace(d_meta=drop.cfg.d_meta / 2))
    pilots = allocate_pilots(drop)
    return [NetworkModel.from_drop(drop, pilots),
            NetworkModel.from_drop(half, pilots)]


def test_probe_batch_equals_one_ap_rebuilds(small_drop, small_phases):
    models = _pitch_group(small_drop)
    start = np.stack([small_phases] * 2)
    obj = SumSeObjective(models)
    obj.set_phases(start)
    l = 2
    rows, cols = np.array([1, 0, 1]), np.array([2, 6, 7])
    steps = np.array([1, 2, 5, 16, -3, -8]) * np.pi / 8
    values, parts = obj.probe(l, rows, cols, steps)
    assert values.shape == (2, steps.size)
    slices = turned_slices(small_phases[l], rows, cols, steps)
    for s, model in enumerate(models):
        base = model.terms(small_phases)
        terms = splice_ap(base, l, probe_terms_slices(
            model, small_phases, l, rows, cols, steps))
        for i in range(steps.size):
            patched = small_phases.copy()
            patched[l] = slices[i]
            one_ap = terms_loop(model, patched, [l])
            expected = replace_ap(base, l, one_ap)
            got = candidate(terms, i)
            for name in ("z", "xi", "delta", "lam"):
                want = term(expected, name)
                np.testing.assert_allclose(term(got, name), want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())
            one = steps[i:i + 1]
            assert values[s, i] == obj.probe(l, rows, cols, one)[0][s, 0]
        # the network searched alone sees the same values, bit for bit
        alone = SumSeObjective([model])
        alone.set_phases(small_phases[None])
        assert np.array_equal(alone.probe(l, rows, cols, steps)[0][0],
                              values[s])
    # no probe beats the best value: nothing is committed
    obj.best[:] = values.max(axis=1)
    assert np.array_equal(obj.improve(l, rows, cols, steps, 0.0), [-1, -1])
    assert np.array_equal(obj.phases, start)
    # above the worst value, the first better probe of each network is
    # committed, with its parts taken from the batch
    worst = values.min(axis=1)
    obj.best[:] = worst
    first = [int(np.flatnonzero(v > v.min())[0]) for v in values]
    assert np.array_equal(obj.improve(l, rows, cols, steps, 0.0), first)
    for s, i in enumerate(first):
        assert obj.best[s] == worst[s] + (values[s, i] - worst[s])
        assert np.array_equal(obj.phases[s, l], slices[i])
        for part, new in zip(obj.parts, parts):
            assert np.array_equal(part[s, ..., l], new[s, ..., i])
    committed = [part.copy() for part in obj.parts]
    np.testing.assert_allclose(obj.set_phases(obj.phases),
                               values[[0, 1], first], rtol=1e-12, atol=0)
    for part, rebuilt in zip(committed, obj.parts):
        np.testing.assert_allclose(part, rebuilt, rtol=1e-12, atol=0)


@pytest.mark.parametrize("tau_p", [2, 3], ids=["co-pilots", "own-pilots"])
def test_group_search_equals_searches_alone(small_cfg, small_phases, tau_p):
    # a pitch group of three (its own pitch, half and a quarter of it):
    # each network's phases and trace are those of its search alone, with
    # and without UEs that share a pilot
    drop = generate_drop(small_cfg.replace(tau_p=tau_p), 42)
    quarter = replace(drop, cfg=drop.cfg.replace(d_meta=drop.cfg.d_meta / 4))
    models = _pitch_group(drop) + [NetworkModel.from_drop(
        quarter, allocate_pilots(quarter))]
    for decoder in se.DECODERS:
        cfg = BeamformingConfig(decoder=decoder, sweeps=2)
        found = optimize_beamforming(models, small_phases, cfg, rng=4)
        assert len(found) == 3
        for model, (out, trace) in zip(models, found):
            [(ref_out, ref_trace)] = optimize_beamforming(
                [model], small_phases, cfg, rng=4)
            assert np.array_equal(out, ref_out)
            assert trace == ref_trace
        assert sum(row.accepted for _, trace in found for row in trace) > 0


def test_batch_of_different_drops_equals_searches_alone(small_cfg,
                                                       small_model,
                                                       small_pilots,
                                                       small_phases):
    # each network reads its own drop and pilot map: two different drops,
    # one drop under two pilot maps (UEs 0 and 1 swap), and drops whose UEs
    # have one and two co-pilots (a padded batch map) are searched together
    # as each is alone
    other_drop = generate_drop(small_cfg, 43)
    other = NetworkModel.from_drop(other_drop, allocate_pilots(other_drop))
    swapped = pilot_map(small_pilots.pilot_of[[1, 0, 2]],
                        small_cfg.pilot_powers(), small_cfg.tau_p)
    assert not np.array_equal(swapped.pilot_of, small_pilots.pilot_of)
    assert not np.array_equal(other_drop.beta, small_model.drop.beta)
    five = [generate_drop(small_cfg.replace(K=5, tau_p=3), seed)
            for seed in (6, 7)]
    copilots = [NetworkModel.from_drop(drop, allocate_pilots(drop))
                for drop in five]
    assert [model.pilots.pick.shape[-2] for model in copilots] == [1, 2]
    for models in ([small_model, other],
                   [small_model, replace(small_model, pilots=swapped)],
                   copilots):
        for decoder in se.DECODERS:
            cfg = BeamformingConfig(decoder=decoder, sweeps=2)
            found = optimize_beamforming(models, small_phases, cfg, rng=4)
            assert len(found) == 2
            for model, (out, trace) in zip(models, found):
                [(ref_out, ref_trace)] = optimize_beamforming(
                    [model], small_phases, cfg, rng=4)
                assert np.array_equal(out, ref_out)
                assert trace == ref_trace
            assert found[0][1] != found[1][1]


@pytest.mark.parametrize("failure", ["sinr", "estimation"])
def test_failing_probe_in_a_padded_batch_equals_searches_alone(
        small_cfg, small_phases, monkeypatch, failure):
    # drops whose UEs have one and two co-pilots (a padded batch map), with
    # a probe of the first batch failing past network 0's first accept:
    # each network's phases and trace are those of its search alone (the
    # permutation seed 3 puts that accept inside the first batch under both
    # decoders)
    five = [generate_drop(small_cfg.replace(K=5, tau_p=3), seed)
            for seed in (6, 7)]
    models = [NetworkModel.from_drop(drop, allocate_pilots(drop))
              for drop in five]
    assert [model.pilots.pick.shape[-2] for model in models] == [1, 2]
    for decoder in se.DECODERS:
        cfg = BeamformingConfig(decoder=decoder, sweeps=2)
        clean = optimize_beamforming(models, small_phases, cfg, rng=3)
        first = next(row for row in clean[0][1] if row.accepted)
        assert first.iteration < cfg.max_probes    # in the first batch
        failing = (first.iteration, failure, 0)
        with monkeypatch.context() as patch:
            _corrupt_probe(patch, *failing)
            found = optimize_beamforming(models, small_phases, cfg, rng=3)
        alone = _searches_alone(monkeypatch, models, small_phases, cfg, 3,
                                failing)
        for (out, trace), (ref, ref_trace) in zip(found, alone):
            assert np.array_equal(out, ref)
            assert trace == ref_trace


def test_batch_needs_equal_dimensions_and_noise(small_cfg, small_drop,
                                                small_model, small_pilots,
                                                small_phases):
    # the same drop with another noise power is another network
    noisy = replace(small_drop, cfg=small_cfg.replace(sigma2=1e-9))
    with pytest.raises(ValueError, match="must share"):
        SumSeObjective(_pitch_group(small_drop)
                       + [NetworkModel.from_drop(noisy, small_pilots)])
    # and a network of another UE count has no common batch
    more_cfg = small_cfg.replace(K=4)
    more = generate_drop(more_cfg, 42)
    with pytest.raises(ValueError, match="must share"):
        optimize_beamforming(
            [small_model, NetworkModel.from_drop(more, allocate_pilots(more))],
            small_phases)


@pytest.mark.parametrize("failure", ["sinr", "estimation"])
def test_search_keeps_one_model_for_its_life(small_drop, small_phases,
                                             monkeypatch, failure):
    # the search stacks its networks once and builds no model or pilot map
    # after SumSeObjective.__init__, in a clean search and in one whose
    # first batch fails; each network of the failing search equals its
    # search alone and the clean search
    models = _pitch_group(small_drop)
    cfg = BeamformingConfig(sweeps=2)
    events = []
    real_init = SumSeObjective.__init__
    real_stack = NetworkModel.stack.__func__

    def init_spy(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        events.append("init")

    def stack_spy(cls, members):
        events.append("stack")
        return real_stack(cls, members)

    def spy(name, real):
        def called(*args, **kwargs):
            events.append(name)
            return real(*args, **kwargs)
        return called

    monkeypatch.setattr(SumSeObjective, "__init__", init_spy)
    monkeypatch.setattr(NetworkModel, "stack", classmethod(stack_spy))
    monkeypatch.setattr(NetworkModel, "at", spy("NetworkModel.at",
                                                NetworkModel.at))
    monkeypatch.setattr(PilotMap, "at", spy("PilotMap.at", PilotMap.at))
    for module in (estimation, pipeline, optimize):
        monkeypatch.setattr(module, "pilot_map",
                            spy("pilot_map", estimation.pilot_map))

    def search():
        events.clear()
        found = optimize_beamforming(models, small_phases, cfg, rng=3)
        init = events.index("init")
        assert events[:init].count("stack") == 1 and events[init + 1:] == []
        return found

    clean = search()
    first = next(row for row in clean[0][1] if row.accepted)
    with monkeypatch.context() as patch:
        _corrupt_probe(patch, first.iteration, failure, 0)
        found = search()
    alone = _searches_alone(monkeypatch, models, small_phases, cfg, 3,
                            (first.iteration, failure, 0))
    for (out, trace), (ref, ref_trace), (clean_out, clean_trace) in zip(
            found, alone, clean):
        assert np.array_equal(out, ref) and trace == ref_trace
        assert np.array_equal(out, clean_out) and trace == clean_trace


def test_probes_never_run_the_full_cascade(small_model, small_phases,
                                           monkeypatch):
    # only a full build (set_phases) may run cascade_through_antennas, once
    # per build; a probe batch works from the block's polynomial
    calls, builds, open_builds = [], [], []
    real_cascade = channel.cascade_through_antennas
    real_set = SumSeObjective.set_phases

    def cascade_spy(dset, phases):
        calls.append((bool(open_builds), np.shape(phases)))
        return real_cascade(dset, phases)

    def set_spy(self, phases):
        builds.append(phases)
        open_builds.append(phases)
        try:
            return real_set(self, phases)
        finally:
            open_builds.pop()

    monkeypatch.setattr(channel, "cascade_through_antennas", cascade_spy)
    monkeypatch.setattr(SumSeObjective, "set_phases", set_spy)
    cfg = BeamformingConfig(sweeps=2)
    [(_, trace)] = optimize_beamforming([small_model], small_phases, cfg,
                                        rng=2)
    assert len(trace) > 1 and len(builds) == 1
    assert calls == [(True, (1, *small_phases.shape))]


def _corrupt_probe(monkeypatch, index, failure, net):
    """Make probe `index` of the first probe batch of network net (an index
    into each search's batch), and that probe wherever network net
    evaluates it again, fail: "sinr" makes its denominator diagonals dg
    (which the block factors hold) negative, so its EGCD SINR denominator
    and its LSFD diagonal are nonpositive; "estimation" gives it a
    negative definite antenna correlation s, -c I with c load > sigma2, so
    that every pilot covariance of it is indefinite. A probe is known by
    its network's folded stack, its block and its step power."""
    real_factors = NetworkModel.block_factors
    real_state = pipeline.block_channel_state
    target, negated = [], []

    def block_factors(self, context, folded, rows, cols, powers, ok):
        base = (folded.first[net].tobytes(), folded.layers[net].tobytes(),
                np.asarray(rows).tobytes(), np.asarray(cols).tobytes())
        keys = [base + (z.tobytes(),) for z in powers.z[:, 1]]
        if not target:
            target.append(keys[index])
        hit = [i for i, key in enumerate(keys) if key == target[0]]
        if hit and failure == "estimation":
            negated.append((hit, 1.0 + 2.0 * self.cfg.sigma2
                            / context.constants.load[net].min()))
        try:
            z, dg, dp = real_factors(self, context, folded, rows, cols,
                                     powers, ok)
        finally:
            negated.clear()
        if hit and failure == "sinr":
            dg = dg.copy()
            dg[net, ..., hit] = -1e6 * np.abs(dg).max()
        return z, dg, dp

    def block_channel_state(*args):
        state = real_state(*args)
        for hit, c in negated:
            s = state.s.copy()
            s[net, hit] = -c * np.eye(s.shape[-1])
            state = replace(state, s=s)
        return state

    monkeypatch.setattr(NetworkModel, "block_factors", block_factors)
    monkeypatch.setattr(pipeline, "block_channel_state", block_channel_state)


def _searches_alone(monkeypatch, models, phases, cfg, rng, failing=None):
    """(phases, trace) of each model's search alone; failing = (index,
    failure, net) runs network net's with that probe failing
    (_corrupt_probe) and the others clean."""
    found = []
    for s, model in enumerate(models):
        with monkeypatch.context() as patch:
            if failing is not None and s == failing[2]:
                _corrupt_probe(patch, *failing[:2], 0)
            found += optimize_beamforming([model], phases, cfg, rng=rng)
    return found


def test_cached_phasors_equal_exp_of_phases(small_drop, small_pilots,
                                            small_phases, monkeypatch):
    # after a group search, and after one whose first batch fails, the
    # objective's phasors are np.exp(1j * phases) bit for bit
    objectives = []
    real_init = SumSeObjective.__init__

    def init_spy(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        objectives.append(self)

    monkeypatch.setattr(SumSeObjective, "__init__", init_spy)

    def check(found):
        obj = objectives[-1]
        assert sum(row.accepted for _, trace in found for row in trace) > 1
        assert np.array_equal(obj.phases, [out for out, _ in found])
        assert np.array_equal(obj.shifts, np.exp(1j * obj.phases))

    models = _pitch_group(small_drop)
    cfg = BeamformingConfig(sweeps=2)
    clean = optimize_beamforming(models, small_phases, cfg, rng=3)
    check(clean)
    first = next(row for row in clean[0][1] if row.accepted)
    for failure in ("estimation", "sinr"):
        with monkeypatch.context() as patch:
            _corrupt_probe(patch, first.iteration, failure, 0)
            found = optimize_beamforming(models, small_phases, cfg, rng=3)
        check(found)
        for (out, trace), (clean_out, clean_trace) in zip(found, clean):
            assert np.array_equal(out, clean_out) and trace == clean_trace


def test_folded_stack_equals_phasors_times_matrices(small_drop, small_phases,
                                                   monkeypatch):
    # after every commit of a group search, the visited AP's folded stack
    # is its phasors times the stack's matrices, bit for bit: the rows a
    # commit rewrites and the rows it keeps
    checked = []
    real_commit = SumSeObjective._commit

    def commit_spy(self, l, *args):
        hits = real_commit(self, l, *args)
        folded, dset = self._folded(l), self.model.dset
        assert np.array_equal(folded.first,
                              self.shifts[:, l, 0, :, None] * dset.w_first)
        assert np.array_equal(folded.layers,
                              self.shifts[:, l, 1:, :, None] * dset.w_layer)
        checked.append(int((hits >= 0).sum()))
        return hits

    monkeypatch.setattr(SumSeObjective, "_commit", commit_spy)
    for decoder in se.DECODERS:
        checked.clear()
        optimize_beamforming(_pitch_group(small_drop), small_phases,
                             BeamformingConfig(decoder=decoder, sweeps=2),
                             rng=3)
        assert len(checked) > 1 and sum(checked) > 1


# each failure under both decoders; the EGCD cases keep their original ids
@pytest.mark.parametrize("failure, decoder", [
    pytest.param(failure, decoder,
                 id=failure + ("" if decoder == "egcd" else f"-{decoder}"))
    for decoder in ("egcd", "lsfd") for failure in ("sinr", "estimation")])
def test_failing_probe_past_the_accepted_one_is_never_raised(
        small_drop, small_pilots, small_phases, monkeypatch, failure,
        decoder):
    # in a network alone and in the first network of a pitch group
    cfg = BeamformingConfig(decoder=decoder)
    for models in ([NetworkModel.from_drop(small_drop, small_pilots)],
                   _pitch_group(small_drop)):
        clean = optimize_beamforming(models, small_phases, cfg, rng=3)
        first = next(row for row in clean[0][1] if row.accepted)
        assert first.iteration < cfg.max_probes   # accepted in block 1, early
        # probe first.iteration + 1 (index first.iteration) is never
        # evaluated
        with monkeypatch.context() as patch:
            _corrupt_probe(patch, first.iteration, failure, 0)
            found = optimize_beamforming(models, small_phases, cfg, rng=3)
        for (out, trace), (clean_out, clean_trace) in zip(found, clean):
            assert np.array_equal(out, clean_out)
            assert trace == clean_trace


@pytest.mark.parametrize("failure, error, decoder", [
    pytest.param(failure, error, decoder,
                 id=f"{failure}-{error.__name__}"
                 + ("" if decoder == "egcd" else f"-{decoder}"))
    for decoder in ("egcd", "lsfd")
    for failure, error in (("sinr", SinrComputationError),
                           ("estimation", EstimationError))])
def test_failing_probe_reached_by_the_search_raises(small_drop, small_pilots,
                                                    small_phases, monkeypatch,
                                                    failure, error, decoder):
    # in a network alone and in the second network of a pitch group
    cfg = BeamformingConfig(decoder=decoder)
    for models in ([NetworkModel.from_drop(small_drop, small_pilots)],
                   _pitch_group(small_drop)):
        found = optimize_beamforming(models, small_phases, cfg, rng=3)
        first = next(row for row in found[-1][1] if row.accepted)
        with monkeypatch.context() as patch:
            _corrupt_probe(patch, first.iteration - 1, failure,
                           len(models) - 1)
            with pytest.raises(error):
                optimize_beamforming(models, small_phases, cfg, rng=3)


def test_block_context_formed_once_per_ap_visit(monkeypatch):
    # AP l's block context is formed on the first block of each visit of
    # l, not per block, and again after set_phases; the probe batches give
    # each network of a two-pitch search the phases and trace of its own
    # per-probe search (block_size 3 over 32 atoms: the last block is
    # short), also when a probe of the first batch fails
    cfg = SystemConfig(L=3, K=3, U=2, M=2, N=16, tau_p=2)
    models = _pitch_group(generate_drop(cfg, 5))
    phases = models[0].random_phases(np.random.default_rng(8))
    formed = []
    real = NetworkModel.block_context

    def context_spy(self, l):
        formed.append(l)
        return real(self, l)

    monkeypatch.setattr(NetworkModel, "block_context", context_spy)
    for decoder in se.DECODERS:
        search = BeamformingConfig(decoder=decoder, sweeps=2, block_size=3)
        formed.clear()
        found = optimize_beamforming(models, phases, search, rng=6)
        assert formed == [l for _ in range(search.sweeps)
                          for l in range(cfg.L)]
        assert sum(row.accepted for _, trace in found for row in trace) > 0
        for model, (out, trace) in zip(models, found):
            ref_out, ref_trace = optimize_beamforming_per_probe(
                model, phases, search, rng=6)
            assert np.array_equal(out, ref_out)
            assert trace == ref_trace
        first = next(row for row in found[0][1] if row.accepted)
        failure = (first.iteration, "estimation", 0)
        with monkeypatch.context() as patch:
            _corrupt_probe(patch, *failure)
            failing = optimize_beamforming(models, phases, search, rng=6)
        alone = _searches_alone(monkeypatch, models, phases, search, 6,
                                failure)
        for (out, trace), (ref, ref_trace) in zip(failing, alone):
            assert np.array_equal(out, ref) and trace == ref_trace
    # probes of one AP share its context until set_phases
    obj = SumSeObjective(models)
    obj.set_phases(np.stack([phases] * 2))
    rows, cols = np.array([0, 1]), np.array([3, 3])
    steps = np.arange(1, 4) * np.pi / 8
    formed.clear()
    for l in (1, 1, 2, 2):
        obj.probe(l, rows, cols, steps)
    obj.set_phases(obj.phases)
    obj.probe(2, rows, cols, steps)
    assert formed == [1, 2, 2]
