# The closed-form probe-block kernel (se.block_factors, reached through
# NetworkModel.block_factors and SumSeObjective.probe) against full builds
# of every probe's phases: its SINR parts under both decoders, the network
# axis of a stacked batch, its folded cascade factors, and the failure
# masks of its pilot covariances and denominators.

from dataclasses import replace

import numpy as np
import pytest

from simcf import SystemConfig, allocate_pilots, generate_drop, pipeline, se
from simcf.channel import BlockState
from simcf.estimation import EstimationError, pilot_map
from simcf.optimize import SumSeObjective
from simcf.pipeline import NetworkModel
from simcf.se import SinrComputationError

from reference import turned_slices

STEPS = np.array([1, 2, 5, 9, 15, -3]) * np.pi / 8


def _model(cfg, seed, pilot_of=None, p_hat=None):
    drop = generate_drop(cfg, seed)
    pilots = allocate_pilots(drop)
    if pilot_of is not None or p_hat is not None:
        pilots = pilot_map(pilots.pilot_of if pilot_of is None else pilot_of,
                           pilots.p_hat if p_hat is None else p_hat,
                           cfg.tau_p)
    return NetworkModel.from_drop(drop, pilots)


def _cases(u):
    """(label, models) of one or more networks searched together."""
    cfg = SystemConfig(L=3, K=3, U=u, M=2, N=9, tau_p=2)
    yield "co-pilots", [_model(cfg, 42)]
    five = cfg.replace(K=5, tau_p=4)
    # two pilot maps with one and two co-pilots over the same three pilots:
    # the batch map pads the first to two
    yield "padded batch map", [_model(five, 6, pilot_of=[0, 0, 1, 1, 2]),
                               _model(five, 7, pilot_of=[0, 0, 0, 1, 2])]
    # pilot 0's UEs send no pilot power: their pilot's load is 0
    yield "zero pilot power", [_model(cfg, 5, pilot_of=[0, 1, 0],
                                      p_hat=[0.0, 0.2, 0.0])]
    # no scattering anywhere (s = 0) and nothing seen at AP 1 (h_bar = 0):
    # AP 1's LSFD factors take D^-1 = 0
    blind = _model(cfg, 8)
    steering = blind.steering.copy()
    steering[1] = 0.0
    yield "AP with s = 0", [replace(blind, base_corr=np.zeros_like(
        blind.base_corr), steering=steering)]


def _full_parts(model, phases, l, rows, cols, steps, decoder):
    """se.sinr_parts of AP l of full builds at each probe's phases, the
    probes last."""
    parts = []
    for turned in turned_slices(phases[l], rows, cols, steps):
        patched = phases.copy()
        patched[l] = turned
        parts.append([part[..., l] for part in se.sinr_parts(
            model.terms(patched), decoder, model.drop.p)])
    return [np.stack(column, axis=-1) for column in zip(*parts)]


@pytest.mark.parametrize("decoder", se.DECODERS)
@pytest.mark.parametrize("u", [1, 2, 3])
def test_block_parts_equal_full_build_parts(u, decoder):
    for label, models in _cases(u):
        phases = models[0].random_phases(np.random.default_rng(u))
        obj = SumSeObjective(models, decoder)
        obj.set_phases(np.stack([phases] * len(models)))
        rows, cols = np.array([0, 1, 1]), np.array([2, 4, 8])
        for l in range(models[0].cfg.L):
            _, parts = obj.probe(l, rows, cols, STEPS)
            if label == "AP with s = 0" and l == 1 and decoder == "lsfd":
                assert not any(part.any() for part in parts)
            for s, model in enumerate(models):
                for i, want in enumerate(_full_parts(
                        model, phases, l, rows, cols, STEPS, decoder)):
                    # the network's own co-pilot count of a padded map
                    got = parts[i][s][tuple(slice(n) for n in want.shape)]
                    np.testing.assert_allclose(
                        got, want, rtol=1e-12,
                        atol=1e-12 * np.abs(want).max(),
                        err_msg=f"{label}, AP {l}, network {s}, part {i}")


@pytest.mark.parametrize("decoder", se.DECODERS)
def test_stacked_batch_equals_batches_of_one(decoder):
    # each network of a batch, padded map included, probes as it does alone
    five = SystemConfig(L=3, K=5, U=2, M=2, N=9, tau_p=4)
    pitch = five.replace(d_meta=five.d_meta / 2)
    models = [_model(five, 6, pilot_of=[0, 0, 1, 1, 2]),
              _model(pitch, 7, pilot_of=[0, 0, 0, 1, 2]),
              _model(five, 9, pilot_of=[0, 1, 2, 0, 1])]
    phases = models[0].random_phases(np.random.default_rng(3))
    rows, cols = np.array([1, 0, 1]), np.array([2, 6, 7])
    batch = SumSeObjective(models, decoder)
    batch.set_phases(np.stack([phases] * 3))
    for l in range(five.L):
        values, parts = batch.probe(l, rows, cols, STEPS)
        for s, model in enumerate(models):
            alone = SumSeObjective([model], decoder)
            alone.set_phases(phases[None])
            one_values, one_parts = alone.probe(l, rows, cols, STEPS)
            assert np.array_equal(values[s], one_values[0])
            for part, one in zip(parts, one_parts):
                own = tuple(slice(n) for n in one[0].shape)
                assert np.array_equal(part[s][own], one[0])
                padding = part[s].copy()
                padding[own] = 0.0
                assert not padding.any()


@pytest.mark.parametrize("decoder", se.DECODERS)
@pytest.mark.parametrize("k", [5, 8, 9, 12])
def test_probe_batch_equals_one_probe_calls(k, decoder):
    # every probe of a batch sums its UEs in the order of a one-probe call:
    # numpy's sum over a contiguous axis turns pairwise from 8 terms, and a
    # complex one counts its real and imaginary parts
    rows, cols = np.array([0, 1, 1]), np.array([2, 4, 8])
    steps = np.arange(1, 16) * np.pi / 8
    for u in (1, 2, 3):
        cfg = SystemConfig(L=3, K=k, U=u, M=2, N=9, tau_p=3)
        model = _model(cfg, 11)
        obj = SumSeObjective([model], decoder)
        obj.set_phases(model.random_phases(np.random.default_rng(k))[None])
        values, parts = obj.probe(1, rows, cols, steps)
        for i in range(steps.size):
            one_values, one_parts = obj.probe(1, rows, cols, steps[i:i + 1])
            where = f"U = {u}, probe {i}"
            assert np.array_equal(one_values[:, 0], values[:, i]), where
            for part, one in zip(parts, one_parts):
                assert np.array_equal(one[..., 0], part[..., i]), where


def _block_state(rng, s, n_ue):
    """A BlockState of random means and the given per-probe matrices s
    (S, B, U, U)."""
    n_nets, n_probes, u, _ = s.shape
    h_bar = (rng.standard_normal((n_nets, n_ue, u, n_probes))
             + 1j * rng.standard_normal((n_nets, n_ue, u, n_probes)))
    return BlockState(h_bar=h_bar, s=s)


@pytest.mark.parametrize("u", [1, 2, 3])
def test_pilot_covariance_mask_marks_what_an_eigenvalue_check_marks(u):
    # positive definite, indefinite and negative definite s, at loads
    # that turn some of them and leave others: a probe is marked iff some
    # UE's psi = load s + sigma2 I has an eigenvalue <= 0
    rng = np.random.default_rng(u)
    n_nets, n_probes = 3, 40
    a = (rng.standard_normal((n_nets, n_probes, u, u))
         + 1j * rng.standard_normal((n_nets, n_probes, u, u)))
    s = a @ a.conj().swapaxes(-1, -2)
    signs = rng.choice([-1.0, 1.0], size=(n_nets, n_probes, u))
    vals, vecs = np.linalg.eigh(s)
    s = (vecs * (vals * signs)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    s = 0.5 * (s + s.conj().swapaxes(-1, -2))
    pilots = pilot_map([0, 1, 0, 2], np.full(4, 0.2), 3)
    beta = rng.uniform(0.05, 2.0, (n_nets, 4))
    sigma2 = 0.3
    constants = se.block_constants(beta, pilots, np.full(4, 0.1), sigma2)
    ok = np.ones((n_nets, n_probes), dtype=bool)
    z, dg, dp = se.block_factors(_block_state(rng, s, 4), constants, ok)
    load = constants.load[..., 0]                    # (S, K)
    psi = (load[:, None, :, None, None] * s[:, :, None]
           + sigma2 * np.eye(u))                     # (S, B, K, U, U)
    want = (np.linalg.eigvalsh(psi) > 0).all(axis=(-2, -1))
    assert want.any() and not want.all()
    assert np.array_equal(ok, want)
    assert all(np.isfinite(x).all() for x in (z, dg, dp))


def _failing(monkeypatch, failure, marked, scale):
    """Make the probes marked (S, B) fail at their block statistics
    ("estimation": s = -c I with c above sigma2 / load for every load of
    the AP, so that every pilot covariance is negative definite) or at
    their factors ("denominator": every dg negative)."""
    if failure == "estimation":
        real = pipeline.block_channel_state

        def state(*args):
            out = real(*args)
            s = out.s.copy()
            s[marked] = -scale * np.eye(s.shape[-1])
            return replace(out, s=s)

        monkeypatch.setattr(pipeline, "block_channel_state", state)
    else:
        real = se.block_factors

        def factors(*args):
            z, dg, dp = real(*args)
            dg = dg.copy()
            dg.swapaxes(-1, -2)[marked] = -1e6 * np.abs(dg).max()
            return z, dg, dp

        monkeypatch.setattr(se, "block_factors", factors)


@pytest.mark.parametrize("decoder", se.DECODERS)
@pytest.mark.parametrize("failure", ["estimation", "denominator"])
def test_failing_probes_are_marked_and_raise_their_error(monkeypatch,
                                                         failure, decoder):
    cfg = SystemConfig(L=3, K=3, U=2, M=2, N=9, tau_p=2)
    models = [_model(cfg, 42), _model(cfg.replace(d_meta=cfg.d_meta / 2), 42)]
    phases = models[0].random_phases(np.random.default_rng(1))
    obj = SumSeObjective(models, decoder)
    obj.set_phases(np.stack([phases] * 2))
    rows, cols = np.array([0, 1]), np.array([3, 3])
    marked = np.zeros((2, STEPS.size), dtype=bool)
    marked[1, [2, 4]] = marked[0, 5] = True
    scale = 1.0 + 2.0 * cfg.sigma2 / obj.model.block_context(
        1).constants.load.min()
    with monkeypatch.context() as patch:
        _failing(patch, failure, marked, scale)
        _, _, estimated, valid = obj._probe(1, rows, cols,
                                            obj._step_powers(STEPS))
        assert np.array_equal(valid, ~marked)
        assert np.array_equal(estimated,
                              ~marked if failure == "estimation"
                              else np.ones_like(marked))
        error, what = ((EstimationError, "pilot covariance")
                       if failure == "estimation" else
                       (SinrComputationError,
                        f"nonpositive {decoder.upper()} SINR denominator"))
        # the first failing probe in network-major order
        with pytest.raises(error, match=f"{what}.* at AP 1, probe 6 of 6, "
                                        f"network 0"):
            obj.probe(1, rows, cols, STEPS)
