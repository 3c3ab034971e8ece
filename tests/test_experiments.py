import json

import numpy as np
import pytest

from simcf.experiments import (AGG_HEADER, ROWS_HEADER, ExperimentError,
                               ExperimentSpec, aggregate_rows, cdf_report,
                               fig3_spec, run_experiment, table1_spec,
                               write_result_csv)
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
    p1 = write_result_csv(r1, tmp_path / "a")
    p2 = write_result_csv(r2, tmp_path / "b")
    assert open(p1[0], "rb").read() == open(p2[0], "rb").read()
    assert open(p1[1], "rb").read() == open(p2[1], "rb").read()
    header = open(p1[0]).readline().strip().split(",")
    assert tuple(header) == ROWS_HEADER
    header = open(p1[1]).readline().strip().split(",")
    assert tuple(header) == AGG_HEADER


def test_threaded_run_matches_serial():
    spec = tiny_spec()
    serial = run_experiment(spec, threads=1)
    threaded = run_experiment(spec, threads=2)
    assert serial.rows == threaded.rows
    assert serial.failures == threaded.failures == 0
    assert len(serial.rows) == 2 * 2 * 3 * 2


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


def test_cdf_report():
    with pytest.raises(ExperimentError):
        cdf_report(np.ones(5))
    const = cdf_report(np.full(25, 2.5))
    assert const.likely95 == pytest.approx(2.5)
    assert const.cdf[-1] == 1.0
    rng = np.random.default_rng(1)
    u = cdf_report(rng.uniform(0, 1, 10_000))
    assert u.likely95 == pytest.approx(0.05, abs=0.01)
    assert u.grid.shape == (100,) and np.all(np.diff(u.cdf) >= 0)


def test_terms_and_states_built_once_per_phase_kind(monkeypatch):
    calls = {"terms": 0, "states": 0}
    for name in calls:
        def counted(self, *args, _real=getattr(NetworkModel, name),
                    _name=name, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(NetworkModel, name, counted)
    spec = tiny_spec(values=(2,), n_drops=1, n_mc_trials=50,
                     schemes=("rand-full", "rand-maxmin"))
    result = run_experiment(spec)
    assert result.failures == 0
    assert len(result.rows) == 2 * 2 * 3     # schemes x decoders x UEs
    assert calls == {"terms": 1, "states": 1}
