from dataclasses import replace

import numpy as np
import pytest

from simcf import SystemConfig, allocate_pilots, generate_drop, se
from simcf.pipeline import NetworkModel
from simcf.se import (SinrComputationError, egcd_weights, lsfd_weights,
                      se_from_sinr, sinr_coefficients, sinr_from_weights,
                      sinr_terms)

from reference import (candidate, cross_moment_estimates,
                       denominator_matrices, omega_of, predicted_cross_moments,
                       probe_terms_slices, r_all, sinr_breakdown, sinr_lsfd,
                       sinr_of_breakdown, splice_ap, xi_of)


def model_at(seed, l=3, k=3, u=2, n=9, m=2, tau_p=2, **extra):
    cfg = SystemConfig(L=l, K=k, U=u, M=m, N=n, tau_p=tau_p, **extra)
    drop = generate_drop(cfg, seed)
    pilots = allocate_pilots(drop)
    model = NetworkModel.from_drop(drop, pilots)
    phases = model.random_phases(np.random.default_rng([seed, 1]))
    return cfg, drop, pilots, model, phases


def terms_at(seed, **kw):
    cfg, drop, pilots, model, phases = model_at(seed, **kw)
    return cfg, drop, pilots, model.terms(phases)


def test_term_shapes_and_signs(small_terms, small_pilots, small_cfg):
    t = small_terms
    xi = xi_of(t)
    assert t.z.shape == (small_cfg.K, small_cfg.L)
    assert np.all(t.z >= 0)
    assert np.all(xi >= 0)
    assert np.all(t.lam >= 0)
    # coherent couplings only appear inside pilot-sharing pairs
    pilot_of = small_pilots.pilot_of
    mask = pilot_of[:, None] == pilot_of[None, :]
    assert np.all(t.delta[~mask] == 0)
    # the non-coherent self coefficient dominates the LoS-square correction
    for k in range(small_cfg.K):
        assert np.all(xi[k, k] >= t.lam[k] ** 2 - 1e-18)


def test_zero_los_collapses_terms(small_model, small_phases, small_cfg):
    state = small_model.channel_state(small_phases)
    state = type(state)(h_bar=np.zeros_like(state.h_bar), s=state.s,
                        beta_nlos=state.beta_nlos)
    est = small_model.estimation_state(state)
    p_hat = small_cfg.pilot_powers()
    t = sinr_terms(state, est)
    assert np.all(t.lam == 0)
    tr_omega = np.real(np.einsum("lkuu->kl", omega_of(est)))
    assert np.allclose(t.z, p_hat[:, None] * small_cfg.tau_p * tr_omega)


def test_single_link_scalar_value():
    # one AP, one UE, LoS suppressed: z reduces to the scalar estimate gain
    cfg, drop, pilots, model, phases = model_at(3, l=1, k=1, tau_p=1)
    state = model.channel_state(phases)
    state = type(state)(h_bar=np.zeros_like(state.h_bar), s=state.s,
                        beta_nlos=state.beta_nlos)
    est = model.estimation_state(state)
    p_hat = cfg.pilot_powers()
    t = sinr_terms(state, est)
    r = r_all(state)[0, 0]
    w, v = np.linalg.eigh(r)
    expected = sum(p_hat[0] * cfg.tau_p * lam ** 2
                   / (p_hat[0] * cfg.tau_p * lam + cfg.sigma2) for lam in w)
    assert t.z[0, 0] == pytest.approx(expected, rel=1e-10)


def test_six_case_audit_small():
    # all six interference expectation cases on one instance with both a
    # shared pilot and an exclusive one
    cfg, drop, pilots, model, phases = model_at(7, l=2, k=3, u=2, n=9, m=2,
                                                tau_p=2)
    terms = model.terms(phases)
    pred = predicted_cross_moments(terms, cfg.pilot_powers(), cfg.tau_p)
    state, est = model.states(phases)
    mc = cross_moment_estimates(state, est, 150_000,
                                rng=np.random.default_rng(8))
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
    g_lsfd, _ = sinr_lsfd(terms, drop.p)
    g_egcd = sinr_from_weights(terms, egcd_weights(terms), drop.p)
    assert np.allclose(g_lsfd, g_egcd, rtol=1e-9)


def test_weight_scaling_invariance():
    cfg, drop, pilots, terms = terms_at(12)
    w = lsfd_weights(terms, drop.p)
    g1 = sinr_from_weights(terms, w, drop.p)
    g2 = sinr_from_weights(terms, 7.5 * w, drop.p)
    assert np.allclose(g1, g2, rtol=1e-10)
    # scaling the gain vector scales the weights linearly and leaves the
    # SINR alone; exact once the z-coupled noise diagonal is switched off
    noiseless = replace(terms, sigma2=0.0)
    w0 = lsfd_weights(noiseless, drop.p)
    scaled = replace(noiseless, z=3.0 * terms.z)
    w_scaled = lsfd_weights(scaled, drop.p)
    assert np.allclose(w_scaled, 3.0 * w0, rtol=1e-9)
    g3 = sinr_from_weights(noiseless, w_scaled, drop.p)
    g4 = sinr_from_weights(noiseless, w0, drop.p)
    assert np.allclose(g3, g4, rtol=1e-9)


def test_quadratic_and_bilinear_forms_agree():
    for seed in range(30):
        cfg, drop, pilots, terms = terms_at(100 + seed)
        g_quad, w = sinr_lsfd(terms, drop.p)
        g_bil = sinr_from_weights(terms, w, drop.p)
        assert np.allclose(g_quad, g_bil, rtol=1e-9)


def test_lsfd_dominates_egcd():
    for seed in range(40):
        cfg, drop, pilots, terms = terms_at(200 + seed)
        g_lsfd, _ = sinr_lsfd(terms, drop.p)
        g_egcd = sinr_from_weights(terms, egcd_weights(terms), drop.p)
        assert np.all(g_lsfd >= g_egcd - 1e-12 * np.maximum(g_egcd, 1))


def test_zero_power_zero_sinr(small_terms, small_cfg):
    p = np.full(small_cfg.K, small_cfg.p_max)
    p[1] = 0.0
    w = lsfd_weights(small_terms, p)
    gamma = sinr_from_weights(small_terms, w, p)
    assert gamma[1] == 0.0
    assert np.all(gamma[[0, 2]] > 0)


def test_no_pilot_sharing_kills_coherent_term():
    cfg, drop, pilots, terms = terms_at(13, k=2, tau_p=2)
    assert len(set(pilots.pilot_of.tolist())) == 2
    w = lsfd_weights(terms, drop.p)
    parts = sinr_breakdown(terms, w, drop.p, cfg.pilot_powers(), cfg.tau_p,
                           cfg.sigma2)
    assert np.all(parts["coherent"] == 0)
    # the coefficients do not see delta at all without a co-pilot
    blind = replace(terms, delta=np.zeros_like(terms.delta))
    assert np.array_equal(sinr_coefficients(terms, w).d,
                          sinr_coefficients(blind, w).d)


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
    # xi = 0 through its parts nu, spec and cross
    broken = replace(small_terms, nu=np.zeros_like(small_terms.nu),
                     spec=np.zeros_like(small_terms.spec),
                     cross=np.zeros_like(small_terms.cross),
                     delta=np.zeros_like(small_terms.delta),
                     lam=np.sqrt(np.ones_like(small_terms.lam)), sigma2=0.0)
    assert np.all(xi_of(broken) == 0)
    p = np.full(small_cfg.K, small_cfg.p_max)
    with pytest.raises(SinrComputationError):
        sinr_from_weights(broken, egcd_weights(broken), p)


def test_report_csv_rows(small_terms, small_cfg):
    p = np.full(small_cfg.K, small_cfg.p_max)
    w = lsfd_weights(small_terms, p)
    sinr = sinr_from_weights(small_terms, w, p)
    parts = sinr_breakdown(small_terms, w, p, small_cfg.pilot_powers(),
                           small_cfg.tau_p, small_cfg.sigma2)
    assert sinr.shape == (small_cfg.K,)
    # the breakdown reassembles the SINR
    assert sinr == pytest.approx(sinr_of_breakdown(parts))


def _oracle_cases():
    """(cfg, terms, powers the weights are built at, powers evaluated at)."""
    rng = np.random.default_rng(17)
    for seed in range(300, 324):
        cfg, drop, pilots, terms = terms_at(seed)
        one_zero = rng.uniform(0, cfg.p_max, cfg.K)
        one_zero[rng.integers(cfg.K)] = 0.0
        for p in (np.full(cfg.K, cfg.p_max),
                  rng.uniform(0, cfg.p_max, cfg.K), one_zero):
            yield cfg, terms, p, p
    # pilot settings the cases above share: distinct per-UE pilot powers,
    # three pilots for four UEs, and another noise power
    for extra in (dict(p_hat=(0.05, 0.2, 0.11)), dict(k=4, tau_p=3),
                  dict(sigma2=10.0 ** -11.0)):
        for seed in range(330, 334):
            cfg, drop, pilots, terms = terms_at(seed, **extra)
            for p in (np.full(cfg.K, cfg.p_max),
                      rng.uniform(0, cfg.p_max, cfg.K)):
                yield cfg, terms, p, p
    # max-min power control's use: weights fixed at full power, evaluated
    # at other powers
    cfg, drop, pilots, model, _ = model_at(60, l=4, k=4)
    terms = model.terms(model.random_phases([60, 5]))
    rng = np.random.default_rng(9)
    for _ in range(5):
        yield cfg, terms, drop.p, rng.uniform(0, cfg.p_max, cfg.K)


@pytest.mark.parametrize("decoder", ["lsfd", "egcd"])
def test_sinr_from_weights_matches_breakdown_oracle(decoder):
    for cfg, terms, p_weights, p in _oracle_cases():
        w = (lsfd_weights(terms, p_weights) if decoder == "lsfd"
             else egcd_weights(terms))
        gamma = sinr_from_weights(terms, w, p)
        ref = sinr_of_breakdown(sinr_breakdown(
            terms, w, p, cfg.pilot_powers(), cfg.tau_p, cfg.sigma2))
        np.testing.assert_allclose(gamma, ref, rtol=1e-12, atol=0)
        # the checked SINR is the affine fraction of the coefficients
        c = sinr_coefficients(terms, w)
        assert np.array_equal(c.signal * p / (c.d @ p + c.noise), gamma)


def candidate_stack(model, phases, l=1, n=5):
    """Terms of n probes of one random block of AP l, stacked."""
    rng = np.random.default_rng(3)
    block = rng.permutation(phases[l].size)[:4]
    rows, cols = np.unravel_index(block, phases[l].shape)
    steps = rng.uniform(-np.pi, np.pi, n)
    return splice_ap(model.terms(phases), l, probe_terms_slices(
        model, phases, l, rows, cols, steps))


def test_batched_decoding_equals_per_candidate_calls(small_model,
                                                     small_phases, small_cfg):
    cfg = small_cfg
    stack = candidate_stack(small_model, small_phases)
    p = small_model.drop.p
    args = (p, cfg.pilot_powers(), cfg.tau_p, cfg.sigma2)
    b = denominator_matrices(stack, *args)
    w = lsfd_weights(stack, p)
    coeffs = sinr_coefficients(stack, w)
    gamma = sinr_from_weights(stack, w, p)
    ones = egcd_weights(stack)
    gamma_egcd = sinr_from_weights(stack, ones, p)
    assert b.shape == (5, cfg.K, cfg.L, cfg.L) and gamma.shape == (5, cfg.K)
    for i in range(5):
        one = candidate(stack, i)
        assert np.array_equal(b[i], denominator_matrices(one, *args))
        assert np.array_equal(w[i], lsfd_weights(one, p))
        one_coeffs = sinr_coefficients(one, w[i])
        for name in ("signal", "d", "noise"):
            assert np.array_equal(getattr(coeffs, name)[i],
                                  getattr(one_coeffs, name))
        assert np.array_equal(gamma[i], sinr_from_weights(one, w[i], p))
        assert np.array_equal(ones[i], egcd_weights(one))
        assert np.array_equal(gamma_egcd[i],
                              sinr_from_weights(one, ones[i], p))


def test_lsfd_singular_candidate_falls_back_alone(small_model, small_phases,
                                                  small_cfg):
    cfg = small_cfg
    stack = candidate_stack(small_model, small_phases, n=3)
    zeroed = {name: getattr(stack, name).copy()
              for name in ("z", "lam", "delta", "beta", "nu", "spec", "power",
                           "cross")}
    for arr in zeroed.values():
        arr[1] = 0.0          # candidate 1: all-zero (singular) denominators
    stack = replace(stack, **zeroed)
    p = small_model.drop.p
    args = (p, cfg.pilot_powers(), cfg.tau_p, cfg.sigma2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(denominator_matrices(candidate(stack, 1), *args),
                        stack.z[1][..., None])
    w = lsfd_weights(stack, p)
    for i in range(3):
        assert np.array_equal(w[i], lsfd_weights(candidate(stack, i), p))
    np.testing.assert_allclose(w[0], np.linalg.solve(
        denominator_matrices(candidate(stack, 0), *args),
        stack.z[0].astype(complex)[..., None])[..., 0], rtol=1e-10)
    assert np.all(w[1] == 0)


def test_lsfd_nonpositive_diagonal_names_the_candidate(small_model,
                                                       small_phases):
    # a negative interference term makes dg < 0 at an AP where z > 0: the
    # LoS cross term |h_k^H h_j|^2 that dg sums, so xi carries it as well
    stack = candidate_stack(small_model, small_phases, n=4)
    cross = stack.cross.copy()
    cross[2, 1, :, 0] = -1e6 * np.abs(xi_of(stack)).max()
    stack = replace(stack, cross=cross)
    assert stack.z[2, 1, 0] > 0 and np.all(xi_of(stack)[2, 1, :, 0] < 0)
    with pytest.raises(SinrComputationError,
                       match=r"UE 1 of candidate \(2,\)"):
        lsfd_weights(stack, small_model.drop.p)


def test_batched_sinr_error_names_the_candidate(small_model, small_phases):
    stack = candidate_stack(small_model, small_phases, n=4)
    xi = xi_of(stack)
    # xi is linear in its parts nu, spec and cross: negating them negates it
    negated = {name: getattr(stack, name).copy()
               for name in ("nu", "spec", "cross")}
    for arr in negated.values():
        arr[2] = -arr[2]
    stack = replace(stack, **negated)
    assert np.array_equal(xi_of(stack)[2], -xi[2])
    assert np.array_equal(xi_of(stack)[[0, 1, 3]], xi[[0, 1, 3]])
    with pytest.raises(SinrComputationError, match=r"of candidate \(2,\)"):
        sinr_from_weights(stack, egcd_weights(stack), small_model.drop.p)


def test_inner_solve_division_equals_the_solve():
    # J = 1 (one co-pilot) divides; 200 seeded batches of B = 15 probes,
    # K = 5, with magnitudes 1e-8 .. 1e8, give the solve's floats
    for seed in range(200):
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.0, 1.0, (15, 5, 1, 1)) * 10.0 ** rng.uniform(
            -8, 8, (15, 5, 1, 1))
        v = rng.standard_normal((15, 5, 1)) * 10.0 ** rng.uniform(
            -8, 8, (15, 5, 1))
        want = np.linalg.solve(g + np.eye(1), v[..., None])[..., 0]
        assert np.array_equal(se._inner_solve(g, v), want)
    # J = 2 still solves
    a = rng.uniform(0.0, 1.0, (15, 5, 2, 2))
    g = a @ a.swapaxes(-1, -2)
    v = rng.standard_normal((15, 5, 2))
    got = se._inner_solve(g, v)
    assert np.array_equal(got, np.linalg.solve(g + np.eye(2),
                                                v[..., None])[..., 0])
    np.testing.assert_allclose(((g + np.eye(2)) @ got[..., None])[..., 0], v,
                               rtol=1e-12, atol=1e-12)
