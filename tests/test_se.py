from dataclasses import replace

import numpy as np
import pytest

from simcf import SystemConfig, allocate_pilots, generate_drop
from simcf.pipeline import NetworkModel
from simcf.se import (SinrComputationError, SinrTerms, denominator_matrices,
                      egcd_weights, lsfd_weights, se_from_sinr,
                      sinr_breakdown, sinr_from_weights, sinr_terms)

from reference import (cross_moment_estimates, predicted_cross_moments,
                       sinr_lsfd)


def model_at(seed, l=3, k=3, u=2, n=9, m=2, tau_p=2, **extra):
    cfg = SystemConfig(L=l, K=k, U=u, M=m, N=n, tau_p=tau_p, **extra)
    drop = generate_drop(cfg, seed)
    pilots = allocate_pilots(drop)
    model = NetworkModel.from_drop(drop)
    phases = model.random_phases(np.random.default_rng([seed, 1]))
    return cfg, drop, pilots, model, phases


def terms_at(seed, **kw):
    cfg, drop, pilots, model, phases = model_at(seed, **kw)
    return cfg, drop, pilots, model.terms(phases, pilots.pilot_of)


def test_term_shapes_and_signs(small_terms, small_cfg):
    t = small_terms
    assert t.z.shape == (small_cfg.K, small_cfg.L)
    assert np.all(t.z >= 0)
    assert np.all(t.xi >= 0)
    assert np.all(t.lam >= 0)
    # coherent couplings only appear inside pilot-sharing pairs
    mask = t.pilot_of[:, None] == t.pilot_of[None, :]
    assert np.all(t.delta[~mask] == 0)
    # the non-coherent self coefficient dominates the LoS-square correction
    for k in range(small_cfg.K):
        assert np.all(t.xi[k, k] >= t.lam[k] ** 2 - 1e-18)


def test_zero_los_collapses_terms(small_model, small_pilots, small_phases,
                                  small_cfg):
    state = small_model.channel_state(small_phases)
    state = type(state)(h_bar=np.zeros_like(state.h_bar), s=state.s,
                        beta_nlos=state.beta_nlos)
    est = small_model.estimation_state(state, small_pilots.pilot_of)
    p_hat = small_cfg.pilot_powers()
    t = sinr_terms(state, est, small_pilots.pilot_of, p_hat, small_cfg.tau_p)
    assert np.all(t.lam == 0)
    tr_omega = np.real(np.einsum("lkuu->kl", est.omega))
    assert np.allclose(t.z, p_hat[:, None] * small_cfg.tau_p * tr_omega)


def test_single_link_scalar_value():
    # one AP, one UE, LoS suppressed: z reduces to the scalar estimate gain
    cfg, drop, pilots, model, phases = model_at(3, l=1, k=1, tau_p=1)
    state = model.channel_state(phases)
    state = type(state)(h_bar=np.zeros_like(state.h_bar), s=state.s,
                        beta_nlos=state.beta_nlos)
    est = model.estimation_state(state, pilots.pilot_of)
    p_hat = cfg.pilot_powers()
    t = sinr_terms(state, est, pilots.pilot_of, p_hat, cfg.tau_p)
    r = state.r_all()[0, 0]
    w, v = np.linalg.eigh(r)
    expected = sum(p_hat[0] * cfg.tau_p * lam ** 2
                   / (p_hat[0] * cfg.tau_p * lam + cfg.sigma2) for lam in w)
    assert t.z[0, 0] == pytest.approx(expected, rel=1e-10)


def test_six_case_audit_small():
    # all six interference expectation cases on one instance with both a
    # shared pilot and an exclusive one
    cfg, drop, pilots, model, phases = model_at(7, l=2, k=3, u=2, n=9, m=2,
                                                tau_p=2)
    terms = model.terms(phases, pilots.pilot_of)
    pred = predicted_cross_moments(terms, cfg.pilot_powers(), cfg.tau_p)
    state, est = model.states(phases, pilots.pilot_of)
    mc = cross_moment_estimates(state, est, pilots.pilot_of,
                                cfg.pilot_powers(), cfg.tau_p, cfg.sigma2,
                                150_000, rng=np.random.default_rng(8))
    z_re = np.abs(mc.moment.real - pred.real) / np.maximum(mc.stderr_re, 1e-300)
    z_im = np.abs(mc.moment.imag - pred.imag) / np.maximum(mc.stderr_im, 1e-300)
    # 3-sigma per entry with a small allowance for the number of comparisons
    assert z_re.max() <= 4.0
    assert z_im.max() <= 4.0
    # the mean combined gain matches z
    z_mean = np.abs(mc.mean_gain - terms.z) / np.maximum(mc.mean_gain_stderr,
                                                         1e-300)
    assert z_mean.max() <= 4.0


def test_denominator_assembly_consistent_with_case_moments(small_terms,
                                                           small_cfg):
    # summing the audited case moments must reproduce the denominator
    # quadratic form (no double counting between xi and the coherent part)
    t = small_terms
    p_hat = small_cfg.pilot_powers()
    p = np.full(small_cfg.K, small_cfg.p_max)
    rng = np.random.default_rng(9)
    moments = predicted_cross_moments(t, p_hat, small_cfg.tau_p)
    for k in range(small_cfg.K):
        a = rng.normal(size=small_cfg.L) + 1j * rng.normal(size=small_cfg.L)
        dens = 0.0
        for j in range(small_cfg.K):
            dens += p[j] * np.real(a.conj() @ moments[k, j] @ a)
        dens -= p[k] * np.abs(a.conj() @ t.z[k]) ** 2
        dens += small_cfg.sigma2 * np.real(
            a.conj() @ (t.z[k] * a))
        parts = sinr_breakdown(t, np.tile(a, (small_cfg.K, 1)), p, p_hat,
                               small_cfg.tau_p, small_cfg.sigma2)
        direct = (parts["noncoherent"][k] + parts["coherent"][k]
                  - parts["self_term"][k] + parts["noise"][k])
        assert dens == pytest.approx(direct, rel=1e-10)


def test_lsfd_single_ap_equals_egcd():
    cfg, drop, pilots, terms = terms_at(11, l=1)
    p_hat = cfg.pilot_powers()
    g_lsfd, _ = sinr_lsfd(terms, drop.p, p_hat, cfg.tau_p, cfg.sigma2)
    g_egcd = sinr_from_weights(terms, egcd_weights(terms), drop.p, p_hat,
                               cfg.tau_p, cfg.sigma2)
    assert np.allclose(g_lsfd, g_egcd, rtol=1e-9)


def test_weight_scaling_invariance():
    cfg, drop, pilots, terms = terms_at(12)
    p_hat = cfg.pilot_powers()
    w = lsfd_weights(terms, drop.p, p_hat, cfg.tau_p, cfg.sigma2)
    g1 = sinr_from_weights(terms, w, drop.p, p_hat, cfg.tau_p, cfg.sigma2)
    g2 = sinr_from_weights(terms, 7.5 * w, drop.p, p_hat, cfg.tau_p,
                           cfg.sigma2)
    assert np.allclose(g1, g2, rtol=1e-10)
    # scaling the gain vector scales the weights linearly and leaves the
    # SINR alone; exact once the z-coupled noise diagonal is switched off
    w0 = lsfd_weights(terms, drop.p, p_hat, cfg.tau_p, 0.0)
    scaled = SinrTerms(z=3.0 * terms.z, xi=terms.xi, delta=terms.delta,
                       lam=terms.lam, pilot_of=terms.pilot_of)
    w_scaled = lsfd_weights(scaled, drop.p, p_hat, cfg.tau_p, 0.0)
    assert np.allclose(w_scaled, 3.0 * w0, rtol=1e-9)
    g3 = sinr_from_weights(terms, w_scaled, drop.p, p_hat, cfg.tau_p, 0.0)
    g4 = sinr_from_weights(terms, w0, drop.p, p_hat, cfg.tau_p, 0.0)
    assert np.allclose(g3, g4, rtol=1e-9)


def test_quadratic_and_bilinear_forms_agree():
    for seed in range(30):
        cfg, drop, pilots, terms = terms_at(100 + seed)
        p_hat = cfg.pilot_powers()
        g_quad, w = sinr_lsfd(terms, drop.p, p_hat, cfg.tau_p, cfg.sigma2)
        g_bil = sinr_from_weights(terms, w, drop.p, p_hat, cfg.tau_p,
                                  cfg.sigma2)
        assert np.allclose(g_quad, g_bil, rtol=1e-9)


def test_lsfd_dominates_egcd():
    for seed in range(40):
        cfg, drop, pilots, terms = terms_at(200 + seed)
        p_hat = cfg.pilot_powers()
        g_lsfd, _ = sinr_lsfd(terms, drop.p, p_hat, cfg.tau_p, cfg.sigma2)
        g_egcd = sinr_from_weights(terms, egcd_weights(terms), drop.p,
                                   p_hat, cfg.tau_p, cfg.sigma2)
        assert np.all(g_lsfd >= g_egcd - 1e-12 * np.maximum(g_egcd, 1))


def test_zero_power_zero_sinr(small_terms, small_cfg):
    p = np.full(small_cfg.K, small_cfg.p_max)
    p[1] = 0.0
    p_hat = small_cfg.pilot_powers()
    w = lsfd_weights(small_terms, p, p_hat, small_cfg.tau_p, small_cfg.sigma2)
    gamma = sinr_from_weights(small_terms, w, p, p_hat, small_cfg.tau_p,
                              small_cfg.sigma2)
    assert gamma[1] == 0.0
    assert np.all(gamma[[0, 2]] > 0)


def test_no_pilot_sharing_kills_coherent_term():
    cfg, drop, pilots, terms = terms_at(13, k=2, tau_p=2)
    assert len(set(pilots.pilot_of.tolist())) == 2
    p_hat = cfg.pilot_powers()
    w = lsfd_weights(terms, drop.p, p_hat, cfg.tau_p, cfg.sigma2)
    parts = sinr_breakdown(terms, w, drop.p, p_hat, cfg.tau_p, cfg.sigma2)
    assert np.all(parts["coherent"] == 0)


def test_denominator_matrix_hermitian_pd(small_terms, small_cfg):
    p = np.full(small_cfg.K, small_cfg.p_max)
    bs = denominator_matrices(small_terms, p, small_cfg.pilot_powers(),
                              small_cfg.tau_p, small_cfg.sigma2)
    assert bs.shape == (small_cfg.K, small_cfg.L, small_cfg.L)
    for b in bs:
        assert np.allclose(b, b.conj().T)
        assert np.linalg.eigvalsh(b).min() > 0


def test_se_prelog_values():
    assert se_from_sinr(0.0, 200, 4) == pytest.approx(0.0)
    assert se_from_sinr(1.0, 200, 4) == pytest.approx(0.98)
    assert se_from_sinr(3.0, 200, 4) == pytest.approx(1.96)


def test_negative_denominator_raises(small_terms, small_cfg):
    broken = SinrTerms(z=small_terms.z, xi=np.zeros_like(small_terms.xi),
                       delta=np.zeros_like(small_terms.delta),
                       lam=np.sqrt(np.ones_like(small_terms.lam)),
                       pilot_of=small_terms.pilot_of)
    p = np.full(small_cfg.K, small_cfg.p_max)
    with pytest.raises(SinrComputationError):
        sinr_from_weights(broken, egcd_weights(broken), p,
                          small_cfg.pilot_powers(), small_cfg.tau_p, 0.0)


def test_report_csv_rows(small_terms, small_cfg):
    p = np.full(small_cfg.K, small_cfg.p_max)
    args = (p, small_cfg.pilot_powers(), small_cfg.tau_p, small_cfg.sigma2)
    w = lsfd_weights(small_terms, *args)
    sinr = sinr_from_weights(small_terms, w, *args)
    parts = sinr_breakdown(small_terms, w, *args)
    assert sinr.shape == (small_cfg.K,)
    # the breakdown reassembles the SINR
    for k in range(small_cfg.K):
        assert sinr[k] == pytest.approx(
            parts["signal"][k] / (parts["noncoherent"][k]
                                  + parts["coherent"][k]
                                  - parts["self_term"][k] + parts["noise"][k]))


def candidate_stack(model, pilots, phases, l=1, n=5):
    """Terms of n random candidate phase slices for AP l, stacked."""
    rng = np.random.default_rng(3)
    slices = np.mod(phases[l] + rng.uniform(0, 1, (n, *phases[l].shape)),
                    2 * np.pi)
    base = model.terms(phases, pilots.pilot_of)
    return base.splice_ap(l, model.ap_terms(l, slices, pilots.pilot_of))


def test_batched_decoding_equals_per_candidate_calls(small_model, small_pilots,
                                                     small_phases, small_cfg):
    cfg = small_cfg
    stack = candidate_stack(small_model, small_pilots, small_phases)
    args = (small_model.drop.p, cfg.pilot_powers(), cfg.tau_p, cfg.sigma2)
    b = denominator_matrices(stack, *args)
    w = lsfd_weights(stack, *args)
    parts = sinr_breakdown(stack, w, *args)
    gamma = sinr_from_weights(stack, w, *args)
    ones = egcd_weights(stack)
    gamma_egcd = sinr_from_weights(stack, ones, *args)
    assert b.shape == (5, cfg.K, cfg.L, cfg.L) and gamma.shape == (5, cfg.K)
    for i in range(5):
        one = stack.candidate(i)
        assert np.array_equal(b[i], denominator_matrices(one, *args))
        assert np.array_equal(w[i], lsfd_weights(one, *args))
        one_parts = sinr_breakdown(one, w[i], *args)
        for name, value in parts.items():
            assert np.array_equal(value[i], one_parts[name])
        assert np.array_equal(gamma[i], sinr_from_weights(one, w[i], *args))
        assert np.array_equal(ones[i], egcd_weights(one))
        assert np.array_equal(gamma_egcd[i],
                              sinr_from_weights(one, ones[i], *args))


def test_lsfd_singular_candidate_falls_back_alone(small_model, small_pilots,
                                                  small_phases, small_cfg):
    cfg = small_cfg
    stack = candidate_stack(small_model, small_pilots, small_phases, n=3)
    zeroed = {name: getattr(stack, name).copy()
              for name in ("z", "xi", "delta", "lam")}
    for arr in zeroed.values():
        arr[1] = 0.0          # candidate 1: all-zero (singular) denominators
    stack = replace(stack, **zeroed)
    args = (small_model.drop.p, cfg.pilot_powers(), cfg.tau_p, cfg.sigma2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(denominator_matrices(stack.candidate(1), *args),
                        stack.z[1][..., None])
    w = lsfd_weights(stack, *args)
    for i in range(3):
        assert np.array_equal(w[i], lsfd_weights(stack.candidate(i), *args))
    assert np.array_equal(w[0], np.linalg.solve(
        denominator_matrices(stack.candidate(0), *args),
        stack.z[0].astype(complex)[..., None])[..., 0])
    assert np.all(w[1] == 0)


def test_batched_sinr_error_names_the_candidate(small_model, small_pilots,
                                                small_phases, small_cfg):
    cfg = small_cfg
    stack = candidate_stack(small_model, small_pilots, small_phases, n=4)
    xi = stack.xi.copy()
    xi[2] = -xi[2]
    stack = replace(stack, xi=xi)
    args = (small_model.drop.p, cfg.pilot_powers(), cfg.tau_p, cfg.sigma2)
    with pytest.raises(SinrComputationError, match=r"of candidate \(2,\)"):
        sinr_from_weights(stack, egcd_weights(stack), *args)
