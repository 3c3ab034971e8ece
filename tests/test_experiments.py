import json
from pathlib import Path

import numpy as np
import pytest

from reference import run_experiment_rows_per_setting
from simcf import experiments, pipeline
from simcf.estimation import EstimationError
from simcf.experiments import (AGG_HEADER, ROWS_HEADER, SCHEMES,
                               ExperimentError, ExperimentSpec,
                               aggregate_rows, fig3_spec, run_experiment,
                               table1_spec, write_result_csv)
from simcf.montecarlo import uatf_monte_carlo
from simcf.pipeline import NetworkModel


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
    for n_mc_trials, expected in ((50, {"terms": 0, "states": 1}),
                                  (0, {"terms": 1, "states": 0})):
        calls.update(dict.fromkeys(calls, 0))
        spec = tiny_spec(values=(2,), n_drops=1, n_mc_trials=n_mc_trials,
                         schemes=("rand-full", "rand-maxmin"))
        result = run_experiment(spec)
        assert result.failures == 0
        assert len(result.rows) == 2 * 2 * 3     # schemes x decoders x UEs
        # with Monte-Carlo on, the terms come from the states' pair
        assert calls == {**expected, "build_channel_state": 1,
                         "build_estimation_state": 1}


def test_one_monte_carlo_pass_per_phase_kind(monkeypatch):
    spec = tiny_spec(n_mc_trials=200, schemes=SCHEMES)
    settings = []

    def spy(*args, **kwargs):
        out = uatf_monte_carlo(*args, **kwargs)
        settings.append(out.gamma.shape)
        return out

    monkeypatch.setattr(experiments, "uatf_monte_carlo", spy)
    result = run_experiment(spec)
    assert result.failures == 0
    # per (value, drop): one call per phase kind, each over its 2 schemes
    # x 2 decoders
    n_cells = len(spec.values) * spec.n_drops
    assert settings == [(4, 3)] * 2 * n_cells
    assert result.rows == run_experiment_rows_per_setting(spec)
