# simcf/se.py
# Closed-form uplink SINR/SE under matched-filter combining at the APs and
# statistical weighting at the CPU. The per-UE SINR is a ratio of quadratic
# forms in the L-dimensional weight vector, built from five term families:
#   z      per-AP mean combining gain (signal and noise scale),
#   xi     per-AP non-coherent interference coefficients,
#   delta  cross-AP coherent pilot-contamination couplings (real),
#   lam    per-AP LoS gains (self-term correction),
#   gamma  noise diagonal, equal to diag(z).
# Every family comes from the spectral estimation state: on the eigenbasis
# V of an AP's antenna correlation s = V diag(eig) V^H the estimate
# covariance of UE k is diagonal, with eigenvalues spec_k (those of
# p_hat_k tau_p omega_k), and the LoS mean of UE j is g_j = V^H h_bar_j. So
# xi_kj = beta_j nu_k + sum_i spec_ki |g_ji|^2 + |g_k^H g_j|^2 with
# nu_k = sum_i eig_i (spec_ki + |g_ki|^2), and delta_kj =
# beta_j beta_k tr(eig^2 / den_k) for UEs sharing a pilot. The terms keep
# these parts and never form xi: its sums over the UEs j (the denominator
# diagonals dg = sum_j p_j xi_kj - p_k lam_k^2 + sigma2 z_k, _factors) and
# over the APs l (the couplings d_kj = sum_l |a_kl|^2 xi_kjl,
# sinr_coefficients) are taken part by part.
# For fixed weights the SINR is an affine fraction in the transmit powers
# (SinrCoefficients), built once per set of weights; the SINR at any powers
# and max-min power control both evaluate it in that one form. UE k's
# denominator matrix b_k is a diagonal plus one outer product per co-pilot
# of k, so the optimal (LSFD) weights
# b_k^-1 z_k and their SINR p_k z_k^H b_k^-1 z_k, a generalized Rayleigh
# quotient, follow from the Woodbury identity without any L x L matrix.
# Both decoders' SINRs are functions of AP sums of per-AP parts
# (sinr_parts), so a phase search can re-sum one AP at a time. The terms
# carry the estimation state's pilot map, pilot powers, tau_p and sigma2 to
# every later function, which takes them from the terms alone; the pilot
# covariance and the pilot map are checked where they enter
# (estimation.build_estimation_state). The means g = V^H h_bar and their
# inner products are one stacked matmul each.
# A phase search's probe blocks skip the terms: block_factors writes the
# parts' factors z, dg and Delta' of each probe straight from its s and
# h_bar and from what no probe of an AP changes (BlockConstants, once per
# AP visit). For U <= 2 every matrix function of s is a I + c s, so each
# UE's pilot system needs only tr s and det s, and its sums over the UEs
# only the probe's H_p = sum_j p_j h_bar_j h_bar_j^H; no eigenbasis, no
# K x K array. factor_parts turns the factors of either build into parts.

from dataclasses import dataclass

import numpy as np

from .channel import BlockState, ChannelState
from .estimation import EstimationState, PilotMap, pilot_load

DECODERS = ("lsfd", "egcd")


class SinrComputationError(RuntimeError):
    """Raised when the closed form produces an impossible value (a bug)."""


@dataclass(frozen=True)
class SinrTerms:
    """Closed-form term families for every UE, in spectral parts.

    Array layout, each C-contiguous with the AP axis last: z[k, l],
    lam[k, l], delta[k, j, l], beta[k, l], nu[k, l], spec[k, i, l],
    power[k, i, l] and cross[k, j, l], with i the eigenvector of AP l's
    antenna correlation s_l = V diag(eig) V^H. beta is the NLoS gain,
    spec the eigenvalues of p_hat_k tau_p omega_lk and power |V^H h_bar_lk|^2
    on that basis, nu = sum_i eig_i (spec + power) = p_hat_k tau_p
    tr(s omega) + h_bar^H s h_bar, and cross |h_bar_lk^H h_bar_lj|^2.
    delta is real and nonzero only for UEs j sharing the pilot of k. The
    non-coherent coefficients xi[k, j, l] = beta_jl nu_kl + sum_i spec_kil
    power_jil + cross_kjl are kept in these parts. The noise diagonal equals
    z and is not stored separately. pilots is the estimation state's
    PilotMap and sigma2 its noise power. Arrays may carry leading candidate
    axes (one network per candidate, pilots and sigma2 shared), or the
    leading axis of a batch of networks, with the batch's PilotMap; every
    function of this module carries them through.
    """
    z: np.ndarray        # (K, L) real >= 0
    lam: np.ndarray      # (K, L) real >= 0
    delta: np.ndarray    # (K, K, L) real
    beta: np.ndarray     # (K, L) real >= 0
    nu: np.ndarray       # (K, L) real >= 0
    spec: np.ndarray     # (K, U, L) real >= 0
    power: np.ndarray    # (K, U, L) real >= 0
    cross: np.ndarray    # (K, K, L) real >= 0
    pilots: PilotMap
    sigma2: float


def _ap_last(x, axis):
    """x with its AP axis (axis, counted from the end) moved last, as a
    C-contiguous array."""
    return np.ascontiguousarray(np.moveaxis(x, axis, -1))


def sinr_terms(state: ChannelState, est: EstimationState) -> SinrTerms:
    """Evaluate all closed-form term families from link statistics.

    For each AP l, on the eigenbasis V of s_l (est.basis) with eigenvalues
    eig_li, UE pair (k, j), g_lk = V^H h_bar_lk and den_lki the eigenvalues
    of the pilot covariance of UE k (est.den):
      power[k,i,l] = |g_lki|^2
      spec[k,i,l]  = p_hat_k tau_p beta_lk^2 eig_li^2 / den_lki
      z[k, l]      = p_hat_k tau_p tr(omega_lk) + ||h_bar_lk||^2
                   = sum_i spec + sum_i power
      lam[k, l]    = ||h_bar_lk||^2 = sum_i power
      nu[k, l]     = sum_i eig_li (spec + power)
      cross[k,j,l] = |g_lk^H g_lj|^2
      delta[k,j,l] = tr(r_lj psi_lk^-1 r_lk)
                   = beta_lj beta_lk sum_i eig_li^2 / den_lki
                     (pilot-sharing UEs only)
    g and the inner products of cross are one stacked matmul each. The
    states of a batch of drops give terms with a leading drop axis.
    """
    pilots = est.pilots
    g = state.h_bar @ est.basis.conj()               # (..., L, K, U)
    # first: its temporaries are the largest
    cross = g.conj() @ g.swapaxes(-1, -2)            # g_k^H g_j (..., L, K, K)
    cross = _ap_last(cross.real ** 2 + cross.imag ** 2, -3)
    g = _ap_last(g, -3)                              # (..., K, U, L)
    beta = _ap_last(est.beta, -2)                    # (..., K, L)
    eig = _ap_last(est.eig[..., None, :], -3)        # (1, U, L)
    spread = _ap_last(est.eig[..., None, :] * est.gain, -3)   # eig^2 / den
    power = g.real ** 2 + g.imag ** 2
    spec = (pilots.p_hat[:, None] * pilots.tau_p
            * beta ** 2)[..., None, :] * spread
    lam = power.sum(axis=-2)
    delta = ((beta * spread.sum(axis=-2))[..., None, :]
             * (beta[..., None, :, :] * pilots.sharing[..., None]))
    return SinrTerms(z=spec.sum(axis=-2) + lam, lam=lam, delta=delta,
                     beta=beta, nu=((spec + power) * eig).sum(axis=-2),
                     spec=spec, power=power, cross=cross,
                     pilots=pilots, sigma2=est.sigma2)


@dataclass(frozen=True)
class BlockConstants:
    """What block_factors reads of one AP that no probe of it changes,
    shaped to broadcast against probes on the last axis: the pilot load of
    each UE's pilot, load (..., K, 1) (estimation.pilot_load); spec
    (..., K, 1), p_hat_k tau_p beta_k^2; weight (..., K, J, 1),
    sqrt(c_kj) beta_k beta_j of the j-th co-pilot j of k (coherent_scale;
    0 past k's co-pilot count); nlos (..., 1, 1), sum_j p_j beta_j; the
    powers p (K, 1) and sigma2. A phase search forms them once per AP
    visit, for all of its networks (pipeline.BlockContext)."""
    load: np.ndarray
    spec: np.ndarray
    weight: np.ndarray
    nlos: np.ndarray
    p: np.ndarray
    sigma2: float


def block_constants(beta_nlos, pilots: PilotMap, p, sigma2) -> BlockConstants:
    """The BlockConstants of an AP's NLoS gains (..., K) under a pilot map
    (a batch's, for a leading network axis) at the powers p (K,)."""
    p = np.asarray(p, dtype=float)
    load = pilot_load(beta_nlos[..., None, :], pilots)       # (..., 1, P)
    pair = beta_nlos[..., None, :] * pilots.sharing         # beta_j sharing_kj
    return BlockConstants(
        load=pilots.members @ load.swapaxes(-1, -2),
        spec=(pilots.p_hat * pilots.tau_p * beta_nlos ** 2)[..., None],
        weight=(coherent_scale(pilots, p) * beta_nlos[..., None, None]
                * (pilots.pick @ pair[..., None])),
        nlos=(p * beta_nlos).sum(axis=-1)[..., None, None],
        p=p[:, None], sigma2=sigma2)


def block_factors(state: BlockState, constants: BlockConstants, ok):
    """(z, dg, Delta') of one AP under each probe of a block, those of
    _factors on the AP's terms, shapes (..., K, B), (..., K, B) and
    (..., K, J, B), from the probes' statistics (channel.block_channel_state)
    and the AP's BlockConstants. A probe whose pilot covariance is not
    positive definite for some UE turns False in ok (..., B), and its
    factors stay finite and meaningless.

    Summed over the UEs j, the parts of sinr_terms give, with F_k =
    s^2 psi_k^-1 for the pilot covariance psi_k = load_k s + sigma2 I of
    UE k's pilot, H_p = sum_j p_j h_bar_j h_bar_j^H and E = nlos s + H_p +
    sigma2 I (one U x U matrix per probe):
      z_k  = spec_k tr F_k + ||h_bar_k||^2
      dg_k = h_bar_k^H E h_bar_k + spec_k tr(F_k E) - p_k ||h_bar_k||^4
      Delta'_kj = weight_kj tr F_k
    For U <= 2 every matrix function of s is c_s s + c_i I
    (Cayley-Hamilton): F = s^2 adj(psi) / det psi gives c_s = (sigma2 tr s
    + load det s) / det psi and c_i = -sigma2 det s / det psi, with
    det psi = load^2 det s + load sigma2 tr s + sigma2^2, so that tr F =
    (sigma2 tr(s^2) + load det s tr s) / det psi and tr(F E) = (sigma2
    (tr s tr(s E) - det s tr E) + load det s tr(s E)) / det psi; psi is
    positive definite iff det psi > 0 and tr psi > 0. For U = 1, tr F =
    s^2 / psi and tr(F E) = s tr(s E) / psi. Each UE then costs a few
    products with the probe's scalars, and no probe needs an
    eigendecomposition or a K x K array. U >= 3 goes through each probe's
    eigendecomposition (_spectral_factors).
    """
    h_bar, s, c = state.h_bar, state.s, constants
    u = h_bar.shape[-2]
    if u > 2:
        return _spectral_factors(h_bar, s, c, ok)
    sigma2 = c.sigma2
    power = h_bar.real ** 2
    power += h_bar.imag ** 2                          # (..., K, U, B)
    diag = np.diagonal(s, axis1=-2, axis2=-1).real    # (..., B, U)
    diag = diag.swapaxes(-1, -2)[..., None, :, :]      # (..., 1, U, B)
    e_diag = (c.nlos[..., None] * diag + sigma2       # diag E, (..., 1, U, B)
              + _ue_sum(c.p[..., None] * power, -3))
    lam = _antenna_sum(power)
    quad = _antenna_sum(e_diag * power)               # h_bar^H E h_bar ...
    trace = _antenna_sum(diag)                        # (..., 1, B)
    tr_se = _antenna_sum(diag * e_diag)               # tr(s E) ...
    if u == 2:
        b = s[..., 1, 0][..., None, :]               # s_10, (..., 1, B)
        mixed = h_bar[..., 0, :] * h_bar[..., 1, :].conj()
        # 2 E_10: E_10 = nlos s_10 + (H_p)_10, (H_p)_10 = conj(sum_j p_j
        # mixed_j)
        e_off = 2.0 * (c.nlos * b + _ue_sum(c.p * mixed, -2).conj())
        quad += (e_off * mixed).real                  # ... + 2 Re(E_10 mixed)
        tr_se += (b.conj() * e_off).real              # ... + 2 Re(s_01 E_10)
        det = diag[..., 0, :] * diag[..., 1, :] - (b.real ** 2 + b.imag ** 2)
        tr_sq = trace * trace - 2.0 * det             # tr(s^2)
        load = c.load
        det_psi = load * (load * det + sigma2 * trace) + sigma2 * sigma2
        check = np.minimum(det_psi, load * trace + 2.0 * sigma2)  # tr psi
        num_f = load * (det * trace) + sigma2 * tr_sq
        num_fe = (load * (det * tr_se)
                  + sigma2 * (trace * tr_se - det * _antenna_sum(e_diag)))
    else:                                             # psi = load s + sigma2
        det_psi = check = c.load * trace + sigma2
        num_f, num_fe = trace * trace, trace * tr_se
    if not check.min() > 0:                           # NaN fails too
        positive = check > 0
        ok &= positive.all(axis=-2)
        det_psi = np.where(positive, det_psi, 1.0)
    tr_f = num_f / det_psi
    tr_fe = num_fe / det_psi
    z = c.spec * tr_f + lam
    dg = quad + c.spec * tr_fe - c.p * lam * lam
    return z, dg, c.weight * tr_f[..., None, :]


def _antenna_sum(x):
    """x (..., U, B) summed over its U <= 2 antennas by one add, where a
    sum over an axis of two costs a reduction's setup."""
    return x[..., 0, :] + x[..., 1, :] if x.shape[-2] == 2 else x[..., 0, :]


def _ue_sum(x, axis):
    """x summed over its UE axis (axis, counted from the end, kept with
    length 1) in UE order, as the last of its running sums. numpy's sum
    fixes no order: it adds the UEs pairwise when they lie contiguous, as
    with one probe, and in turn when strided, as with several, so a
    probe's factors would depend on its batch."""
    return np.add.accumulate(x, axis=axis).take([-1], axis=axis)


def _spectral_factors(h_bar, s, c: BlockConstants, ok):
    """block_factors for U >= 3: on the eigenbasis V of each probe's s
    (np.linalg.eigh), F_k is diagonal with eig^2 / den_k, den_k = load_k
    eig + sigma2 the eigenvalues of psi_k, and V^H E V has the diagonal
    nlos eig + sum_j p_j |V^H h_bar_j|^2 + sigma2."""
    eig, basis = np.linalg.eigh(s)          # (..., B, U), (..., B, U, U)
    eig = eig.swapaxes(-1, -2)[..., None, :, :]      # (..., 1, U, B)
    den = c.load[..., None] * eig + c.sigma2         # (..., K, U, B)
    if not den.min() > 0:                            # NaN fails too
        ok &= (den > 0).all(axis=(-3, -2))
        den = np.where(den > 0, den, 1.0)
    f = eig ** 2 / den
    g = np.einsum("...bai,...kab->...kib", basis.conj(), h_bar)   # V^H h_bar
    power = g.real ** 2 + g.imag ** 2
    lam = power.sum(axis=-2)
    e_diag = (c.nlos[..., None] * eig + c.sigma2
              + _ue_sum(c.p[..., None] * power, -3))
    inner = np.einsum("...kab,...jab->...kjb", h_bar.conj(), h_bar)
    cross = _ue_sum((inner.real ** 2 + inner.imag ** 2) * c.p, -2)
    quad = (c.nlos * (eig * power).sum(axis=-2) + c.sigma2 * lam
            + cross[..., 0, :])
    tr_f = f.sum(axis=-2)
    z = c.spec * tr_f + lam
    dg = quad + c.spec * (f * e_diag).sum(axis=-2) - c.p * lam * lam
    return z, dg, c.weight * tr_f[..., None, :]


def _require_positive(value, what, ok=None):
    """Raise SinrComputationError naming the first UE (and candidate) whose
    entry of value (..., K) is not positive (NaN is not), or, given ok
    (...), set that candidate False in ok and its entries that are not
    positive 1 in value (writable), so that what follows stays finite."""
    if not value.min(initial=np.inf) > 0:   # NaN fails too
        positive = value > 0
        if ok is None:
            at = tuple(int(i) for i in np.argwhere(~positive)[0])
            where = f"UE {at[-1]}" + (f" of candidate {at[:-1]}"
                                      if len(at) > 1 else "")
            raise SinrComputationError(f"nonpositive {what} for {where}: "
                                       f"{value[at]:.6e}")
        ok &= positive.all(axis=-1)
        value[~positive] = 1.0


def coherent_scale(pilots: PilotMap, p):
    """sqrt(c_kj) (..., K, J, 1) of the j-th co-pilot of each UE k at the
    powers p (K,), c_kj = p_j p_hat_k p_hat_j tau_p^2 (0 past k's co-pilot
    count): the scale of Delta' (_factors)."""
    return np.sqrt(pilots.pick @ (pilots.coherent * p)[..., None])


def _factors(terms: SinrTerms, p):
    """(dg, Delta') with b_k = diag(dg_k) + Delta'_k Delta'_k^H for every UE.

    dg_kl = sum_j p_j xi_kjl - p_k lam_kl^2 + sigma2 z_kl, with the sum over
    j taken in parts: (sum_j p_j beta_jl) nu_kl + sum_i spec_kil
    (sum_j p_j power_jil) + sum_j p_j cross_kjl. Column j of Delta'_k
    (..., K, J, L) is sqrt(c_kj) delta_kj for the j-th co-pilot of k, its
    scale the coherent_scale of the terms' pilot map at p.
    """
    p = np.asarray(p, dtype=float)
    weighted = p[:, None, None] * terms.power
    dg = ((p[:, None] * terms.beta).sum(axis=-2)[..., None, :] * terms.nu
          + (terms.spec * weighted.sum(axis=-3)[..., None, :, :]).sum(axis=-2)
          + (p[:, None] * terms.cross).sum(axis=-2)
          - p[:, None] * terms.lam ** 2 + terms.sigma2 * terms.z)
    return dg, (coherent_scale(terms.pilots, p)
                * (terms.pilots.pick @ terms.delta))


def _lsfd_factors(terms: SinrTerms, p):
    """(D^-1 z, D^-1 Delta', Delta') of the terms (_inverse_diagonal)."""
    dg, dp = _factors(terms, p)
    return (*_inverse_diagonal(terms.z, dg, dp), dp)


def _inverse_diagonal(z, dg, dp, ok=None):
    """(D^-1 z, D^-1 Delta') with D = diag(dg). D^-1 is 0 where dg and z
    are both 0 (an AP that sees nothing of the UE); any other nonpositive
    dg raises, or, given ok (..., L), sets its AP (or probe) False in ok."""
    if not dg.min(initial=np.inf) > 0:      # one pass when nothing is dropped
        dg = np.where((dg == 0) & (z == 0), np.inf, dg)    # D^-1 = 0
        # per UE to name it in the error, per AP (or probe) to mark it
        per = dg.min(axis=-1) if ok is None else dg.swapaxes(-1, -2)
        _require_positive(per, "LSFD denominator diagonal", ok)
    dinv = 1.0 / dg
    return dinv * z, dinv[..., None, :] * dp


def _inner_solve(g, v):
    """(I + g)^-1 v for Woodbury inner matrices g (..., J, J), v (..., J).
    For J = 1, the usual case (one co-pilot), a division, which gives the
    solve's floats at a tenth of its cost."""
    if g.shape[-1] == 1:
        return v / (g[..., 0] + 1.0)
    return np.linalg.solve(g + np.eye(g.shape[-1]), v[..., None])[..., 0]


def lsfd_weights(terms: SinrTerms, p):
    """SINR-maximizing statistical weights b_k^-1 z_k, shape (..., K, L)
    real (z, dg and Delta' are), by the Woodbury identity
    a_k = D^-1 z - D^-1 Delta' (I + Delta'^H D^-1 Delta')^-1 Delta'^H D^-1 z.
    """
    dz, dd, dp = _lsfd_factors(terms, p)
    g = np.einsum("...kjl,...kil->...kji", dp, dd)
    v = np.einsum("...kjl,...kl->...kj", dp, dz)
    return dz - np.einsum("...kjl,...kj->...kl", dd, _inner_solve(g, v))


def egcd_weights(terms: SinrTerms):
    """Equal-gain decoding weights (all ones), shape (..., K, L)."""
    return np.ones(terms.z.shape, dtype=complex)


def decoder_weights(terms: SinrTerms, decoder, p):
    if decoder == "lsfd":
        return lsfd_weights(terms, p)
    if decoder == "egcd":
        return egcd_weights(terms)
    raise ValueError(f"unknown decoder {decoder!r}; expected one of {DECODERS}")


@dataclass(frozen=True)
class SinrCoefficients:
    """gamma_k(p) = signal_k p_k / (d[k] @ p + noise_k) for fixed weights.

    d[k, j] is the noncoherent plus coherent interference of UE j on UE k
    per unit power of j, less the self-term correction on the diagonal;
    noise is the weighted noise power. Leading candidate axes of the terms
    and weights they come from carry through: signal and noise (..., K),
    d (..., K, K).
    """
    signal: np.ndarray
    d: np.ndarray
    noise: np.ndarray

    def sinr(self, p):
        """Per-UE SINR (..., K) for the power vector p (K,), or for power
        vectors (..., K) on the leading axes.

        Raises SinrComputationError naming the first UE (and candidate)
        with a nonpositive denominator.
        """
        p = np.asarray(p, dtype=float)
        den = (self.d @ p[..., None])[..., 0] + self.noise
        _require_positive(den, "SINR denominator")
        return self.signal * p / den


def sinr_coefficients(terms: SinrTerms, weights):
    """Scalarize the SINR of every UE into affine-fraction coefficients in
    the powers, for fixed weights (..., K, L). Leading candidate axes of
    terms and weights carry through."""
    weights_h = np.asarray(weights, dtype=complex).conj()
    aa = np.abs(weights_h) ** 2                     # (..., K, L)
    signal = np.abs(np.einsum("...kl,...kl->...k", weights_h, terms.z)) ** 2
    combined = np.einsum("...kl,...kjl->...kj", weights_h, terms.delta)
    # d_kj = sum_l aa_kl xi_kjl, summed over the parts of xi
    d = (aa * terms.nu) @ terms.beta.swapaxes(-1, -2)
    for i in range(terms.spec.shape[-2]):
        d += ((aa * terms.spec[..., i, :])
              @ terms.power[..., i, :].swapaxes(-1, -2))
    d += (terms.cross @ aa[..., None])[..., 0]
    d += terms.pilots.coherent * np.abs(combined) ** 2
    diagonal = np.einsum("...kk->...k", d)          # writable view
    diagonal -= np.einsum("...kl,...kl->...k", aa, terms.lam ** 2)
    noise = terms.sigma2 * np.einsum("...kl,...kl->...k", aa, terms.z)
    return SinrCoefficients(signal=signal, d=d, noise=noise)


def sinr_from_weights(terms: SinrTerms, weights, p):
    """Per-UE SINR for arbitrary weights (ratio of quadratic forms), shape
    (..., K) with the leading candidate axes of terms and weights: the
    sinr_coefficients of the weights evaluated at the powers p (K,)
    (SinrCoefficients.sinr, which checks the denominators).
    """
    return sinr_coefficients(terms, weights).sinr(p)


def sinr_parts(terms: SinrTerms, decoder, p):
    """Per-AP parts of every UE's SINR under decoder, the AP axis last, for
    sinr_from_parts to sum over all APs or over any subset of them: the
    factor_parts of the terms' z and _factors.
    """
    return factor_parts(terms.z, *_factors(terms, p), decoder)


def factor_parts(z, dg, dp, decoder, ok=None):
    """Per-AP SINR parts of decoder from the factors z, dg and Delta'
    (_factors, block_factors), the AP (or probe) axis last.

    lsfd: z D^-1 z, Delta'^H D^-1 z and Delta'^H D^-1 Delta' per AP, shapes
    (..., K, L), (..., K, J, L), (..., K, J, J, L). egcd: z, dg, Delta'.
    Every part is real. ok is that of _inverse_diagonal.
    """
    if decoder == "egcd":
        return z, dg, dp
    if decoder != "lsfd":
        raise ValueError(f"unknown decoder {decoder!r}; expected one of "
                         f"{DECODERS}")
    dz, dd = _inverse_diagonal(z, dg, dp, ok)
    return (z * dz, dp * dz[..., None, :],
            dp[..., None, :] * dd[..., None, :, :])


def sinr_from_parts(sums, decoder, p, *, ok=None):
    """Per-UE SINR (..., K) at the powers p (K,) from the AP sums of the
    sinr_parts of decoder.

    lsfd: the Rayleigh quotient p_k z^H b^-1 z = p_k (z^H D^-1 z
    - v^H (I + G)^-1 v), v = Delta'^H D^-1 z, G = Delta'^H D^-1 Delta'.
    egcd: p_k (sum z)^2 / (sum dg + ||sum Delta'||^2), the all-ones weights.
    Raises SinrComputationError naming the first UE (and candidate) with a
    nonpositive quotient or denominator, or, given ok (...), sets its
    candidate False in ok.
    """
    p = np.asarray(p, dtype=float)
    if decoder == "egcd":
        z, dg, dp = sums
        den = dg + (dp ** 2).sum(axis=-1)
        _require_positive(den, "SINR denominator", ok)
        return z ** 2 * p / den
    base, v, g = sums
    quotient = base - (v * _inner_solve(g, v)).sum(axis=-1)
    _require_positive(quotient, "LSFD Rayleigh quotient", ok)
    return p * quotient


def se_from_sinr(gamma, tau_c, tau_p):
    """Spectral efficiency with the pilot-overhead prelog, bit/s/Hz."""
    return (tau_c - tau_p) / tau_c * np.log2(1.0 + np.asarray(gamma))
