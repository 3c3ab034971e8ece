import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from reference import run_experiment_rows_per_setting, write_result_csv_writer
from simcf import allocate_pilots, experiments, generate_drop, pipeline, se
from simcf.estimation import EstimationError
from simcf.experiments import (AGG_HEADER, MISSING, ROWS_HEADER, SCHEMES,
                               AggregateResult, ExperimentError,
                               ExperimentResult, ExperimentSpec,
                               aggregate_rows, fig3_spec, run_experiment,
                               table1_spec, write_result_csv)
from simcf.montecarlo import uatf_monte_carlo
from simcf.optimize import optimize_beamforming
from simcf.pipeline import NetworkModel
from simcf.sim_physics import stack_for


def tiny_spec(**overrides):
    params = dict(
        sweep="L", values=(2, 3), n_drops=2, seed=5,
        schemes=("rand-full",),
        base=dict(K=3, U=2, M=2, N=9, tau_p=2),
    )
    params.update(overrides)
    return ExperimentSpec(**params)


def test_spec_validation():
    with pytest.raises(ExperimentError):
        ExperimentSpec(sweep="volume", values=(1,))
    with pytest.raises(ExperimentError):
        ExperimentSpec(sweep="L", values=())
    with pytest.raises(ExperimentError):
        ExperimentSpec(sweep="L", values=(2,), schemes=("warp-drive",))
    with pytest.raises(ExperimentError):
        ExperimentSpec.from_dict({"sweep": "L", "values": [2], "bogus": 1})
    # a zero or negative eps would hang max-min power control, a NaN one
    # would skip it, and negative trials would silently turn Monte-Carlo off
    for bad in (dict(maxmin_eps=0.0), dict(maxmin_eps=-1.0),
                dict(maxmin_eps=float("nan")), dict(maxmin_eps=float("inf")),
                dict(n_mc_trials=-1)):
        with pytest.raises(ExperimentError, match=next(iter(bad))):
            tiny_spec(**bad)
    # one trial has no standard error, and a fractional count would only
    # fail in the sampler, mid-sweep
    for trials in (1, 2.5, 2000.0):
        with pytest.raises(ExperimentError, match="n_mc_trials"):
            tiny_spec(n_mc_trials=trials)
    tiny_spec(n_mc_trials=np.int64(2))
    # beamforming settings are checked at spec time, not by the first drop
    # (block_size=2.5 raised a bare TypeError mid-sweep)
    for bad in (dict(symmetric_probe=True), dict(max_probe=8),
                dict(step_size=0.0), dict(decoder="lsdf"),
                dict(block_size=2.5), dict(sweeps=True),
                dict(max_probes=4.0), dict(min_gain=float("nan"))):
        with pytest.raises(ExperimentError, match="beamforming"):
            tiny_spec(beamforming=bad)
    with pytest.raises(ExperimentError, match="beamforming"):
        ExperimentSpec.from_dict({"sweep": "L", "values": [2],
                                  "beamforming": {"symmetric_probe": True}})
    # every sweep value is checked at spec time, not by its first drop
    for values in ((2, 2), (2, 2.0), (2, "2"), (2.0, "2")):
        with pytest.raises(ExperimentError, match="duplicate"):
            tiny_spec(values=values)
    # the CSVs print pitches %.10g: these two wrote identical value cells
    with pytest.raises(ExperimentError, match="duplicate"):
        tiny_spec(sweep="d_meta", values=(0.075, 0.07500000000001))
    with pytest.raises(ExperimentError, match="'x'"):
        tiny_spec(values=(2, "x"))
    with pytest.raises(ExperimentError, match="'x'"):
        tiny_spec(sweep="d_meta", values=(0.1, "x"))
    # a non-finite pitch is a config error at spec time, not a numerical
    # failure of every drop
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ExperimentError, match="d_meta must be finite"):
            tiny_spec(sweep="d_meta", values=(0.1, bad))
    with pytest.raises(ExperimentError, match="'warp-drive'"):
        tiny_spec(sweep="scheme", values=("rand-full", "warp-drive"))
    with pytest.raises(ExperimentError, match="'lsdf'"):
        tiny_spec(sweep="decoder", values=("lsfd", "lsdf"))
    # a per-UE pilot power vector fits only some values of a K sweep
    with pytest.raises(ExperimentError, match="value 4"):
        tiny_spec(sweep="K", values=(3, 4),
                  base=dict(L=2, U=2, M=2, N=9, tau_p=2,
                            p_hat=(0.1, 0.2, 0.15)))


def test_spec_rejects_fractional_and_bool_counts():
    # config_for ran int(value): 10.5 ran as 10 and True as 1, while the
    # rows printed the value given
    for sweep in ("L", "K", "U", "M", "N"):
        for bad in (10.5, True, "10.5"):
            with pytest.raises(ExperimentError,
                               match=f"bad {sweep} value {bad!r}"):
                tiny_spec(sweep=sweep, values=(bad,))
    spec = tiny_spec(sweep="L", values=("2", 3.0, np.int64(4)))
    assert [spec.config_for(v).L for v in spec.values] == [2, 3, 4]


def test_spec_rejects_fractional_drop_count():
    # n_drops = 1.5 used to pass the spec and raise TypeError in the run
    with pytest.raises(ExperimentError, match="n_drops"):
        tiny_spec(n_drops=1.5)
    assert tiny_spec(n_drops=np.int64(1)).n_drops == 1


def test_spec_rejects_negative_seed():
    # seed = -1 used to pass the spec and raise ValueError from SeedSequence
    for bad in (-1, 1.5):
        with pytest.raises(ExperimentError, match="seed must be an integer"):
            tiny_spec(seed=bad)
    assert tiny_spec(seed=np.int64(0)).seed == 0


def test_spec_rejects_bool_seed():
    # seed = True passed as the seed 1
    with pytest.raises(ExperimentError, match="seed must be an integer"):
        tiny_spec(seed=True)


def test_spec_rejects_bool_drop_count():
    # n_drops = True passed as one drop
    with pytest.raises(ExperimentError, match="n_drops"):
        tiny_spec(n_drops=True)


def test_spec_rejects_bool_pitch():
    # a d_meta value of True ran at 1.0 and printed "True" in the rows
    with pytest.raises(ExperimentError, match="bad d_meta value True"):
        tiny_spec(sweep="d_meta", values=(0.1, True))
    with pytest.raises(ExperimentError, match="bad d_meta value np.True_"):
        tiny_spec(sweep="d_meta", values=(np.True_,))


def test_spec_rejects_pilot_metric():
    # pilots are always allocated by the large-scale "beta" metric
    with pytest.raises(ExperimentError, match="pilot_metric"):
        ExperimentSpec.from_dict({"sweep": "L", "values": [2],
                                  "pilot_metric": "trace"})


def test_spec_json_roundtrip(tmp_path):
    spec = tiny_spec()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "sweep": spec.sweep, "values": list(spec.values),
        "n_drops": spec.n_drops, "seed": spec.seed,
        "schemes": list(spec.schemes), "base": spec.base,
    }))
    assert ExperimentSpec.from_json(path) == spec


def test_run_experiment_shapes_and_determinism(tmp_path):
    spec = tiny_spec()
    r1 = run_experiment(spec)
    r2 = run_experiment(spec)
    assert r1.rows == r2.rows
    assert r1.failures == 0
    # 2 values x 2 drops x K=3 UEs x 2 decoders x 1 scheme
    assert len(r1.rows) == 2 * 2 * 3 * 2
    p1 = [Path(p) for p in write_result_csv(r1, tmp_path / "a")]
    p2 = [Path(p) for p in write_result_csv(r2, tmp_path / "b")]
    assert p1[0].read_bytes() == p2[0].read_bytes()
    assert p1[1].read_bytes() == p2[1].read_bytes()
    header = p1[0].read_text().splitlines()[0].split(",")
    assert tuple(header) == ROWS_HEADER
    header = p1[1].read_text().splitlines()[0].split(",")
    assert tuple(header) == AGG_HEADER


def _made_up_result(spec, floats):
    """An ExperimentResult of spec whose rows (2 drops, 2 UEs) and
    aggregates take their float fields in turn from the iterator floats;
    the first UE's Monte-Carlo columns are MISSING."""
    rows, aggregates = [], []
    for v in spec.values:
        for decoder in spec.decoders_for(v):
            for scheme in spec.schemes_for(v):
                for d, k in itertools.product(range(2), range(2)):
                    mc = ((MISSING, MISSING) if k == 0
                          else (next(floats), next(floats)))
                    rows.append((spec.sweep, v, d, k, decoder, scheme,
                                 next(floats), next(floats), *mc))
                aggregates.append(AggregateResult(
                    value=v, decoder=decoder, scheme=scheme,
                    se_samples=np.zeros(4), mean_se=next(floats),
                    stderr=next(floats), likely95=next(floats)))
    return ExperimentResult(spec=spec, rows=rows, aggregates=aggregates,
                            failures=0)


def test_csv_bytes_equal_csv_writer_of_every_field(tmp_path):
    # write_result_csv formats each line at once; csv.writer with _fmt on
    # every field is the reference, for every kind of value and float
    floats = itertools.cycle((1.5, -2.25, -0.0, 0.0, 1e-300, -1e-300,
                              np.inf, -np.inf, float("nan"), -float("nan"),
                              123456789.123456, 1 / 3, 2e22, 7.0))
    specs = [tiny_spec(values=(2, np.int64(3), 10.0, " 4\n")),
             tiny_spec(sweep="d_meta",
                       values=(0.15, 0.075, 0.0375, 0.01875, 1e-3 / 3)),
             tiny_spec(sweep="scheme", values=SCHEMES),
             tiny_spec(sweep="decoder", values=se.DECODERS)]
    results = [_made_up_result(spec, floats) for spec in specs]
    results.append(run_experiment(tiny_spec(
        n_mc_trials=20, schemes=("rand-full", "rand-maxmin"))))
    for i, result in enumerate(results):
        got = write_result_csv(result, tmp_path / f"got{i}")
        want = write_result_csv_writer(result, tmp_path / f"want{i}")
        for a, b in zip(got, want):
            assert Path(a).read_bytes() == Path(b).read_bytes()
    # the value " 4\n" is the one cell that needs quotes
    assert b'," 4\n",' in (tmp_path / "got0" / "rows.csv").read_bytes()


def test_numerical_failures_are_counted_and_bugs_propagate(monkeypatch):
    spec = tiny_spec()

    def raising(error):
        def generate_drop(cfg, seed):
            raise error
        return generate_drop

    monkeypatch.setattr(experiments, "generate_drop",
                        raising(EstimationError("singular pilot covariance")))
    result = run_experiment(spec)
    assert result.rows == []
    assert result.failures == len(spec.values) * spec.n_drops
    monkeypatch.setattr(experiments, "generate_drop",
                        raising(TypeError("a bug")))
    with pytest.raises(TypeError, match="a bug"):
        run_experiment(spec)


def test_mc_columns_do_not_disturb_closed_form():
    base = run_experiment(tiny_spec())
    with_mc = run_experiment(tiny_spec(n_mc_trials=500))
    strip = lambda rows: [r[:8] for r in rows]
    assert strip(base.rows) == strip(with_mc.rows)
    # MC columns populated only when requested
    assert all(np.isnan(r[8]) for r in base.rows)
    assert all(np.isfinite(r[8]) for r in with_mc.rows)


def test_aggregation_permutation_invariant():
    spec = tiny_spec()
    result = run_experiment(spec)
    rows = list(result.rows)
    rng = np.random.default_rng(0)
    rng.shuffle(rows)
    shuffled = aggregate_rows(spec, rows)
    for a, b in zip(result.aggregates, shuffled):
        assert a.value == b.value and a.decoder == b.decoder
        assert a.mean_se == pytest.approx(b.mean_se)
        assert a.likely95 == pytest.approx(b.likely95)


def test_aggregates_cover_grid():
    spec = tiny_spec(schemes=("rand-full", "rand-maxmin"))
    result = run_experiment(spec)
    keys = {(a.value, a.decoder, a.scheme) for a in result.aggregates}
    assert len(keys) == 2 * 2 * 2
    for agg in result.aggregates:
        assert agg.se_samples.size == spec.n_drops * 3
        assert agg.mean_se >= 0


def test_scheme_and_decoder_sweeps():
    spec = tiny_spec(sweep="scheme", values=("rand-full", "rand-maxmin"),
                     base=dict(L=2, K=3, U=2, M=2, N=9, tau_p=2))
    result = run_experiment(spec)
    schemes = {r[5] for r in result.rows}
    assert schemes == {"rand-full", "rand-maxmin"}
    spec = tiny_spec(sweep="decoder", values=("lsfd", "egcd"),
                     base=dict(L=2, K=3, U=2, M=2, N=9, tau_p=2))
    result = run_experiment(spec)
    per_value = {(r[1], r[4]) for r in result.rows}
    assert per_value == {("lsfd", "lsfd"), ("egcd", "egcd")}


def test_fixed_total_atoms_links_n():
    spec = tiny_spec(sweep="L", values=(2, 4), fixed_total_atoms=144,
                     base=dict(K=2, U=1, M=2, tau_p=2))
    assert spec.config_for(2).N == 36
    assert spec.config_for(4).N == 18
    with pytest.raises(ExperimentError):
        tiny_spec(sweep="L", values=(5,), fixed_total_atoms=144,
                  base=dict(K=2, U=1, M=2, tau_p=2)).config_for(5)
    # the budget set N = 24 for both values while the rows printed 16, 64
    with pytest.raises(ExperimentError, match="fixed_total_atoms"):
        ExperimentSpec(sweep="N", values=(16, 64), fixed_total_atoms=1200,
                       base=dict(L=10, M=5))
    assert ExperimentSpec(sweep="N", values=(16, 64),
                          base=dict(L=10, M=5)).config_for(64).N == 64


def test_canned_specs():
    t1 = table1_spec(n_drops=3)
    assert t1.sweep == "d_meta" and len(t1.values) == 4
    assert t1.values[1] == pytest.approx(0.075)
    f3 = fig3_spec(n_drops=2)
    assert f3.sweep == "L"
    assert f3.config_for(30).N == 8


def test_terms_and_states_built_once_per_phase_kind(monkeypatch):
    calls = {"terms": 0, "states": 0, "build_channel_state": 0,
             "build_estimation_state": 0}

    def counter(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in ("terms", "states"):
        monkeypatch.setattr(NetworkModel, name,
                            counter(name, getattr(NetworkModel, name)))
    for name in ("build_channel_state", "build_estimation_state"):
        monkeypatch.setattr(pipeline, name,
                            counter(name, getattr(pipeline, name)))
    for n_mc_trials in (50, 0):
        calls.update(dict.fromkeys(calls, 0))
        spec = tiny_spec(values=(2,), n_drops=1, n_mc_trials=n_mc_trials,
                         schemes=("rand-full", "rand-maxmin"))
        result = run_experiment(spec)
        assert result.failures == 0
        assert len(result.rows) == 2 * 2 * 3     # schemes x decoders x UEs
        # with or without Monte-Carlo, the terms come from the states' pair
        assert calls == {"terms": 0, "states": 1, "build_channel_state": 1,
                         "build_estimation_state": 1}


def test_weights_and_coefficients_built_once_per_kind_and_decoder(
        monkeypatch):
    calls = {"decoder_weights": [], "sinr_coefficients": 0}
    real_weights, real_coeffs = se.decoder_weights, se.sinr_coefficients

    def weights_spy(terms, decoder, p):
        calls["decoder_weights"].append(decoder)
        return real_weights(terms, decoder, p)

    def coeffs_spy(*args):
        calls["sinr_coefficients"] += 1
        return real_coeffs(*args)

    monkeypatch.setattr(se, "decoder_weights", weights_spy)
    monkeypatch.setattr(se, "sinr_coefficients", coeffs_spy)
    spec = tiny_spec(values=(2,), n_drops=1, schemes=SCHEMES)
    result = run_experiment(spec)
    assert result.failures == 0
    assert len(result.rows) == 4 * 2 * 3     # schemes x decoders x UEs
    # one cell: 2 phase kinds x 2 decoders, shared by full and max-min power
    assert sorted(calls["decoder_weights"]) == ["egcd", "egcd", "lsfd", "lsfd"]
    assert calls["sinr_coefficients"] == 2 * 2


def test_config_built_once_per_value(monkeypatch):
    spec = tiny_spec(values=(2, 3, 4), n_drops=2)
    real = ExperimentSpec.config_for
    values = []

    def spy(self, value):
        values.append(value)
        return real(self, value)

    monkeypatch.setattr(ExperimentSpec, "config_for", spy)
    result = run_experiment(spec)
    assert result.failures == 0
    assert len({row[2] for row in result.rows}) == spec.n_drops
    assert values == list(spec.values)


def test_one_monte_carlo_pass_per_phase_kind(monkeypatch):
    spec = tiny_spec(n_mc_trials=200, schemes=SCHEMES)
    settings = []

    def spy(state, est, p, weights, *args, **kwargs):
        out = uatf_monte_carlo(state, est, p, weights, *args, **kwargs)
        settings.append((p.shape, weights.shape, out.gamma.shape))
        return out

    monkeypatch.setattr(experiments, "uatf_monte_carlo", spy)
    result = run_experiment(spec)
    assert result.failures == 0
    # per (value, drop): one call per phase kind, each over its 2 schemes
    # x 2 decoders, with one weight set per decoder
    k = spec.base["K"]
    assert settings == [((2, 2, k), (2, k, l), (2, 2, k))
                        for l in spec.values for _ in range(2 * spec.n_drops)]
    assert result.rows == run_experiment_rows_per_setting(spec)


def pitch_spec(values=(0.075, 0.0375, 0.01875), **overrides):
    params = dict(sweep="d_meta", values=values, n_drops=2, seed=7,
                  schemes=("rand-full", "opt-full"),
                  base=dict(L=3, K=3, U=2, M=2, N=9, tau_p=2),
                  beamforming=dict(max_probes=6))
    params.update(overrides)
    return ExperimentSpec(**params)


def _rows_one_value_at_a_time(spec):
    rows, failures = [], 0
    for value in spec.values:
        alone = run_experiment(pitch_spec(values=(value,), seed=spec.seed,
                                          n_drops=spec.n_drops))
        rows += alone.rows
        failures += alone.failures
    return rows, failures


def test_pitch_sweep_rows_equal_one_value_runs():
    spec = pitch_spec()
    result = run_experiment(spec)
    rows, failures = _rows_one_value_at_a_time(spec)
    assert result.failures == failures == 0
    # values x drops x schemes x decoders x UEs
    assert len(rows) == 3 * 2 * 2 * 2 * 3
    assert result.rows == rows


def test_pitch_sweep_searches_each_drop_once(monkeypatch):
    # a pitch sweep searches the cells of a drop as one group; any other
    # sweep, including one whose values share a config, has groups of one
    groups = []

    def spy(models, *args, **kwargs):
        groups.append([model.cfg.d_meta for model in models])
        return optimize_beamforming(models, *args, **kwargs)

    monkeypatch.setattr(experiments, "optimize_beamforming", spy)
    spec = pitch_spec()
    run_experiment(spec)
    assert groups == [list(spec.values)] * spec.n_drops
    for other in (tiny_spec(schemes=("opt-full",)),
                  tiny_spec(sweep="scheme", values=("opt-full", "opt-maxmin",
                                                    "rand-full")),
                  tiny_spec(sweep="decoder", values=("lsfd", "egcd"),
                            schemes=("opt-full",))):
        groups.clear()
        assert run_experiment(other).failures == 0
        searched = sum(any(s.startswith("opt") for s in other.schemes_for(v))
                       for v in other.values)
        assert len(groups) == searched * other.n_drops
        assert all(len(group) == 1 for group in groups)


def test_failing_network_fails_only_its_cells(monkeypatch):
    # a probe that the search of one pitch reaches (every probe at AP 0)
    # fails that cell alone; the other cells run as they do on their own
    spec = pitch_spec()
    bad = spec.values[1]
    _, bad_stack = stack_for(spec.config_for(bad))
    real = NetworkModel.block_factors

    def block_factors(self, context, *args):
        if context.ap == 0 and any(np.array_equal(w_layer, bad_stack.w_layer)
                          for w_layer in self.dset.w_layer):
            raise EstimationError("pilot covariance is singular")
        return real(self, context, *args)

    monkeypatch.setattr(NetworkModel, "block_factors", block_factors)
    result = run_experiment(spec)
    rows, failures = _rows_one_value_at_a_time(spec)
    assert result.failures == failures == spec.n_drops
    assert {row[1] for row in result.rows} == set(spec.values) - {bad}
    assert result.rows == rows


def _cells_alone(monkeypatch):
    """Make run_experiment run every cell as a unit of its own."""
    real = experiments._groups
    monkeypatch.setattr(experiments, "_groups", lambda spec, configs: [
        [cell] for unit in real(spec, configs) for cell in unit])


def _run_alone(spec):
    with pytest.MonkeyPatch.context() as mp:
        _cells_alone(mp)
        return run_experiment(spec)


@pytest.mark.parametrize("n_mc_trials", [0, 200])
def test_value_batches_equal_single_cells(n_mc_trials):
    # each value's drops run as one batch; a single cell is a batch of one
    spec = tiny_spec(n_drops=3, schemes=SCHEMES, n_mc_trials=n_mc_trials)
    configs = [spec.config_for(v) for v in spec.values]
    assert experiments._groups(spec, configs) == [
        [(v, d) for d in range(3)] for v in range(len(spec.values))]
    batched = run_experiment(spec)
    alone = _run_alone(spec)
    assert batched.failures == alone.failures == 0
    assert len(batched.rows) == 2 * 3 * 4 * 2 * 3
    assert batched.rows == alone.rows


def test_batch_with_different_copilot_counts_equals_single_cells():
    # K = 10 on 4 pilots: at seed 3 the drops of L = 2 have 2, 3 and 4
    # co-pilots per UE at most, and those of L = 3 have 3, 2 and 4, so the
    # batch pads the co-pilot lists of the others
    spec = tiny_spec(n_drops=3, seed=3, schemes=("rand-full", "rand-maxmin"),
                     base=dict(K=10, U=2, M=2, N=9, tau_p=4))
    for v in spec.values:
        cfg = spec.config_for(v)
        counts = [allocate_pilots(generate_drop(cfg, [3, d, 0])).pick.shape[-2]
                  for d in range(3)]
        assert len(set(counts)) == 3
    batched = run_experiment(spec)
    alone = _run_alone(spec)
    assert batched.failures == alone.failures == 0
    assert batched.rows == alone.rows


def test_failing_drop_of_a_batch_fails_only_its_cell(monkeypatch):
    # a typed failure in drop 1 of the L = 3 batch fails the batch, whose
    # cells then run alone: only that cell fails
    spec = tiny_spec(n_drops=3, schemes=SCHEMES)
    reference = _run_alone(spec)
    real = experiments.generate_drop

    def generate_drop(cfg, seeds):
        if cfg.L == 3 and [spec.seed, 1, 0] in seeds:
            raise EstimationError("pilot covariance is singular")
        return real(cfg, seeds)

    monkeypatch.setattr(experiments, "generate_drop", generate_drop)
    result = run_experiment(spec)
    assert result.failures == 1
    assert result.rows == [row for row in reference.rows
                           if (row[1], row[2]) != (3, 1)]
