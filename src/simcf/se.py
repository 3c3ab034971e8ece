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
# inner products are explicit sums over the U antennas, each running over
# every link at once. What a phase search's blocks share is taken as data
# where it is formed once: the NLoS-gain products of an AP's terms
# (nlos_gains, once per AP visit) and the coherent scales of the parts
# (coherent_scale, once per search).

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .estimation import EstimationState, PilotMap

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

    @property
    def n_ues(self):
        return self.z.shape[-2]


def _ap_view(x, axis):
    """x with its AP axis (axis, counted from the end) moved last, a view."""
    axes = list(range(x.ndim))
    axes.append(axes.pop(axis))
    return x.transpose(axes)


def _ap_last(x, axis):
    """x with its AP axis (axis, counted from the end) moved last, as a
    C-contiguous array."""
    return np.ascontiguousarray(_ap_view(x, axis))


@dataclass(frozen=True)
class NlosGains:
    """The NLoS-gain products sinr_terms reads, AP axis last: beta
    (..., K, L), spec_scale = p_hat_k tau_p beta_kl^2 (..., K, 1, L), the
    factor of spec, and pair_scale = beta_jl sharing_kj (..., K, K, L), the
    factor of delta. A block state's AP axis holds its probes, which repeat
    the AP's one row of gains; a phase search forms them once per AP visit,
    for all of its networks (pipeline.BlockContext)."""
    beta: np.ndarray
    spec_scale: np.ndarray
    pair_scale: np.ndarray


def nlos_gains(beta_nlos, pilots: PilotMap, n_aps) -> NlosGains:
    """The NlosGains of NLoS gains (..., L, K) under a pilot map, or of a
    block's one row (..., 1, K) repeated over its n_aps probes."""
    beta = _ap_last(beta_nlos, -2)
    if beta.shape[-1] != n_aps:     # a block state's one row of gains
        beta = np.repeat(beta, n_aps, axis=-1)
    return NlosGains(
        beta=beta,
        spec_scale=(pilots.p_hat[:, None] * pilots.tau_p
                    * beta ** 2)[..., None, :],
        pair_scale=beta[..., None, :, :] * pilots.sharing[..., None])


def _spectral_means(h_bar, basis):
    """g = V^H h_bar of every link (..., K, U, L), the AP axis last, from
    h_bar (..., L, K, U) and the eigenbases V (..., L, U, U): explicit sums
    over the U antennas, one entry at a time (estimation.link_matvec's
    idiom), so each product runs over every link at once where a matmul
    runs one tiny product per AP (or probe)."""
    h = _ap_view(h_bar, -3)                          # (..., K, U, L)
    v = _ap_view(basis.conj(), -3)[..., None, :, :, :]   # (..., 1, U, U, L)
    u = h.shape[-2]
    g = np.empty(h.shape, dtype=complex)
    for j in range(u):
        entry = g[..., j, :]
        np.multiply(h[..., 0, :], v[..., 0, j, :], out=entry)
        for i in range(1, u):
            entry += h[..., i, :] * v[..., i, j, :]
    return g


def _cross_gains(g):
    """|g_k^H g_j|^2 of every UE pair (..., K, K, L) from the spectral
    means g (..., K, U, L), the inner products summed over U explicitly."""
    gc = g.conj()
    inner = gc[..., :, None, 0, :] * g[..., None, :, 0, :]
    for i in range(1, g.shape[-2]):
        inner += gc[..., :, None, i, :] * g[..., None, :, i, :]
    cross = inner.real ** 2
    cross += inner.imag ** 2
    return cross


def sinr_terms(state: ChannelState, est: EstimationState,
               gains: NlosGains = None) -> SinrTerms:
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
    g and the inner products of cross are explicit sums over U. gains are
    the state's nlos_gains, formed here unless given (a phase search forms
    a block's once per AP visit). The states of a batch of drops give terms
    with a leading drop axis.
    """
    pilots = est.pilots
    g = _spectral_means(state.h_bar, est.basis)      # (..., K, U, L)
    cross = _cross_gains(g)     # first: its temporaries are the largest
    if gains is None:
        gains = nlos_gains(est.beta, pilots, est.eig.shape[-2])
    eig = _ap_last(est.eig[..., None, :], -3)        # (1, U, L)
    spread = _ap_last(est.eig[..., None, :] * est.gain, -3)   # eig^2 / den
    power = g.real ** 2 + g.imag ** 2
    spec = gains.spec_scale * spread
    lam = power.sum(axis=-2)
    delta = (gains.beta * spread.sum(axis=-2))[..., None, :] * gains.pair_scale
    return SinrTerms(z=spec.sum(axis=-2) + lam, lam=lam, delta=delta,
                     beta=gains.beta, nu=((spec + power) * eig).sum(axis=-2),
                     spec=spec, power=power, cross=cross,
                     pilots=pilots, sigma2=est.sigma2)


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


def _factors(terms: SinrTerms, p, scale=None):
    """(dg, Delta') with b_k = diag(dg_k) + Delta'_k Delta'_k^H for every UE.

    dg_kl = sum_j p_j xi_kjl - p_k lam_kl^2 + sigma2 z_kl, with the sum over
    j taken in parts: (sum_j p_j beta_jl) nu_kl + sum_i spec_kil
    (sum_j p_j power_jil) + sum_j p_j cross_kjl. Column j of Delta'_k
    (..., K, J, L) is sqrt(c_kj) delta_kj for the j-th co-pilot of k, its
    scale the coherent_scale of the terms' pilot map at p unless given.
    """
    p = np.asarray(p, dtype=float)
    weighted = p[:, None, None] * terms.power
    dg = ((p[:, None] * terms.beta).sum(axis=-2)[..., None, :] * terms.nu
          + (terms.spec * weighted.sum(axis=-3)[..., None, :, :]).sum(axis=-2)
          + (p[:, None] * terms.cross).sum(axis=-2)
          - p[:, None] * terms.lam ** 2 + terms.sigma2 * terms.z)
    if scale is None:
        scale = coherent_scale(terms.pilots, p)
    return dg, scale * (terms.pilots.pick @ terms.delta)


def _lsfd_factors(terms: SinrTerms, p, scale=None, ok=None):
    """(D^-1 z, D^-1 Delta', Delta'). D^-1 is 0 where dg and z are both 0
    (an AP that sees nothing of the UE); any other nonpositive dg raises,
    or, given ok (..., L), sets its AP (or probe) False in ok."""
    dg, dp = _factors(terms, p, scale)
    if not dg.min(initial=np.inf) > 0:      # one pass when nothing is dropped
        dg = np.where((dg == 0) & (terms.z == 0), np.inf, dg)    # D^-1 = 0
        # per UE to name it in the error, per AP (or probe) to mark it
        per = dg.min(axis=-1) if ok is None else dg.swapaxes(-1, -2)
        _require_positive(per, "LSFD denominator diagonal", ok)
    dinv = 1.0 / dg
    return dinv * terms.z, dinv[..., None, :] * dp, dp


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


def sinr_parts(terms: SinrTerms, decoder, p, scale=None, *, ok=None):
    """Per-AP parts of every UE's SINR under decoder, the AP axis last, for
    sinr_from_parts to sum over all APs or over any subset of them.

    lsfd: z D^-1 z, Delta'^H D^-1 z and Delta'^H D^-1 Delta' per AP, shapes
    (..., K, L), (..., K, J, L), (..., K, J, J, L). egcd: z, dg, Delta'.
    Every part is real. scale is the coherent_scale of the terms' map at p,
    formed here unless given (a phase search forms it once). ok is that of
    _lsfd_factors.
    """
    if decoder == "egcd":
        return (terms.z, *_factors(terms, p, scale))
    if decoder != "lsfd":
        raise ValueError(f"unknown decoder {decoder!r}; expected one of "
                         f"{DECODERS}")
    dz, dd, dp = _lsfd_factors(terms, p, scale, ok)
    return (terms.z * dz, dp * dz[..., None, :],
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
