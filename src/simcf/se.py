# simcf/se.py
# Closed-form uplink SINR/SE under matched-filter combining at the APs and
# statistical weighting at the CPU. The per-UE SINR is a ratio of quadratic
# forms in the L-dimensional weight vector, built from five term families:
#   z      per-AP mean combining gain (signal and noise scale),
#   xi     per-AP non-coherent interference coefficients,
#   delta  cross-AP coherent pilot-contamination couplings,
#   lam    per-AP LoS gains (self-term correction),
#   gamma  noise diagonal, equal to diag(z).
# For fixed weights the SINR is an affine fraction in the transmit powers
# (SinrCoefficients); sinr_from_weights and max-min power control both
# evaluate it in that one form. Optimal statistical weights solve a
# generalized Rayleigh quotient; equal gain decoding is the all-ones
# special case.

import logging
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelState
from .estimation import EstimationState

log = logging.getLogger(__name__)

DECODERS = ("lsfd", "egcd")


class SinrComputationError(RuntimeError):
    """Raised when the closed form produces an impossible value (a bug)."""


@dataclass(frozen=True)
class SinrTerms:
    """Closed-form term families for every UE.

    Array layout: z[k, l], xi[k, j, l], delta[k, j, l], lam[k, l]. delta is
    only meaningful for UEs j sharing the pilot of k (zero elsewhere). The
    noise diagonal equals z and is not stored separately. copilot is the
    share-a-pilot relation of the pilot assignment without the diagonal,
    built once by sinr_terms. A stack of candidate networks (see splice_ap)
    puts a leading candidate axis in front of every array but copilot.
    """
    z: np.ndarray        # (K, L) real >= 0
    xi: np.ndarray       # (K, K, L) real >= 0
    delta: np.ndarray    # (K, K, L) complex
    lam: np.ndarray      # (K, L) real >= 0
    copilot: np.ndarray  # (K, K) bool

    @property
    def n_ues(self):
        return self.z.shape[-2]

    @property
    def n_aps(self):
        return self.z.shape[-1]

    def splice_ap(self, l, other):
        """Candidate stack: these terms with AP l's column replaced by each
        AP column of other in turn, on a leading axis of length other.n_aps."""
        def splice(base, cols):
            out = np.repeat(base[None], cols.shape[-1], axis=0)
            out[..., l] = np.moveaxis(cols, -1, 0)
            return out

        return replace(self, z=splice(self.z, other.z),
                       xi=splice(self.xi, other.xi),
                       delta=splice(self.delta, other.delta),
                       lam=splice(self.lam, other.lam))

    def candidate(self, i):
        """Terms of candidate i of a stack built by splice_ap."""
        return replace(self, z=self.z[i], xi=self.xi[i], delta=self.delta[i],
                       lam=self.lam[i])


def sinr_terms(state: ChannelState, est: EstimationState, pilot_of, p_hat,
               tau_p) -> SinrTerms:
    """Evaluate all closed-form term families from link statistics.

    For each AP l and UE pair (k, j):
      z[k, l]      = p_hat_k tau_p tr(omega_lk) + ||h_bar_lk||^2
      xi[k, j, l]  = p_hat_k tau_p tr(r_lj omega_lk) + h_lk^H r_lj h_lk
                     + p_hat_k tau_p h_lj^H omega_lk h_lj + |h_lk^H h_lj|^2
      delta[k,j,l] = tr(r_lj psi_lk^-1 r_lk)   (pilot-sharing UEs only)
      lam[k, l]    = ||h_bar_lk||^2
    """
    pilot_of = np.asarray(pilot_of)
    if np.any(pilot_of < 0):
        raise SinrComputationError("pilot assignment incomplete")
    n_ap, n_ue, _ = state.h_bar.shape
    p_hat = np.asarray(p_hat, dtype=float)
    h = state.h_bar                                  # (L, K, U)
    r = state.r_all()                                # (L, K, U, U)
    omega = est.omega                                # (L, K, U, U)

    lam = np.real(np.einsum("lku,lku->kl", h.conj(), h))
    tr_omega = np.real(np.einsum("lkuu->kl", omega))
    z = p_hat[:, None] * tau_p * tr_omega + lam

    # pairwise pieces; indices: l AP, k target UE, j interferer
    tr_r_omega = np.real(np.einsum("ljuv,lkvu->kjl", r, omega))
    quad_r = np.real(np.einsum("lku,ljuv,lkv->kjl", h.conj(), r, h))
    quad_omega = np.real(np.einsum("lju,lkuv,ljv->kjl", h.conj(), omega, h))
    cross = np.einsum("lku,lju->kjl", h.conj(), h)
    xi = (p_hat[:, None, None] * tau_p * (tr_r_omega + quad_omega)
          + quad_r + np.abs(cross) ** 2)

    same = pilot_of[:, None] == pilot_of[None, :]
    delta = np.einsum("ljuv,lkvu->kjl", r, est.core)   # tr(r_lj psi_lk^-1 r_lk)
    delta = np.where(same[:, :, None], delta, 0.0)
    _monitor_conditioning(est.psi)
    return SinrTerms(z=z, xi=xi, delta=delta, lam=lam,
                     copilot=same & ~np.eye(n_ue, dtype=bool))


def _monitor_conditioning(psi):
    """Log badly conditioned pilot covariances (debug runs only; the check
    costs a batched eigendecomposition per evaluation)."""
    if not log.isEnabledFor(logging.DEBUG):
        return
    w = np.linalg.eigvalsh(psi)
    worst = float(np.max(w[..., -1] / np.maximum(w[..., 0], 1e-300)))
    if worst > 1e12:
        log.warning("pilot covariance badly conditioned (cond %.3e)", worst)


def _coherent_coeffs(terms: SinrTerms, p, p_hat, tau_p):
    """(K, K) coefficients of the coherent contamination outer products."""
    coeff = (p[None, :] * p_hat[:, None] * p_hat[None, :] * tau_p ** 2)
    return np.where(terms.copilot, coeff, 0.0)


def denominator_matrices(terms: SinrTerms, p, p_hat, tau_p, sigma2):
    """Hermitian denominator matrices b_k of every UE, shape (..., K, L, L).

    b_k = sum_j p_j diag(xi[k, j]) + coherent pilot-contamination outer
    products - p_k diag(lam[k]^2) + sigma2 diag(z[k]). Positive definite for
    sigma2 > 0. Leading candidate axes of terms carry through.
    """
    p = np.asarray(p, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    diag = (np.einsum("j,...kjl->...kl", p, terms.xi)
            - p[:, None] * terms.lam ** 2 + sigma2 * terms.z)
    coeff = _coherent_coeffs(terms, p, p_hat, tau_p)
    b = np.einsum("kj,...kjl,...kjm->...klm", coeff, terms.delta,
                  terms.delta.conj())
    idx = np.arange(terms.n_aps)
    b[..., idx, idx] += diag
    return b


def lsfd_weights(terms: SinrTerms, p, p_hat, tau_p, sigma2):
    """SINR-maximizing statistical weights, shape (..., K, L) complex.

    Solves b_k a_k = z_k per UE; a candidate (leading-axis slice of terms)
    with a numerically singular denominator matrix falls back to a
    pseudo-inverse for all its UEs, the other candidates keep the solve.
    """
    b = denominator_matrices(terms, p, p_hat, tau_p, sigma2)
    z = terms.z.astype(complex)[..., None]
    try:
        return np.linalg.solve(b, z)[..., 0]
    except np.linalg.LinAlgError:
        if b.ndim > 3:
            return np.stack([lsfd_weights(terms.candidate(i), p, p_hat, tau_p,
                                          sigma2)
                             for i in range(b.shape[0])])
        log.warning("singular denominator matrix; using pseudo-inverse")
        return np.stack([np.linalg.pinv(b[k]) @ terms.z[k]
                         for k in range(terms.n_ues)])


def egcd_weights(terms: SinrTerms):
    """Equal-gain decoding weights (all ones), shape (..., K, L)."""
    return np.ones(terms.z.shape, dtype=complex)


def decoder_weights(terms: SinrTerms, decoder, p, p_hat, tau_p, sigma2):
    if decoder == "lsfd":
        return lsfd_weights(terms, p, p_hat, tau_p, sigma2)
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

    def gamma(self, p):
        """Per-UE SINR for the power vector p (K,)."""
        return self.signal * p / (self.d @ p + self.noise)


def sinr_coefficients(terms: SinrTerms, weights, p_hat, tau_p, sigma2):
    """Scalarize the SINR of every UE into affine-fraction coefficients in
    the powers, for fixed weights (..., K, L). Leading candidate axes of
    terms and weights carry through."""
    p_hat = np.asarray(p_hat, dtype=float)
    weights_h = np.asarray(weights, dtype=complex).conj()
    aa = np.abs(weights_h) ** 2                     # (..., K, L)
    signal = np.abs(np.einsum("...kl,...kl->...k", weights_h, terms.z)) ** 2
    combined = np.einsum("...kl,...kjl->...kj", weights_h, terms.delta)
    coeff = _coherent_coeffs(terms, np.ones(terms.n_ues), p_hat, tau_p)
    d = np.einsum("...kjl,...kl->...kj", terms.xi, aa)
    d += coeff * np.abs(combined) ** 2
    diagonal = np.einsum("...kk->...k", d)          # writable view
    diagonal -= np.einsum("...kl,...kl->...k", aa, terms.lam ** 2)
    noise = sigma2 * np.einsum("...kl,...kl->...k", aa, terms.z)
    return SinrCoefficients(signal=signal, d=d, noise=noise)


def sinr_from_weights(terms: SinrTerms, weights, p, p_hat, tau_p, sigma2):
    """Per-UE SINR for arbitrary weights (ratio of quadratic forms), shape
    (..., K) with the leading candidate axes of terms and weights: the
    sinr_coefficients of the weights evaluated at the powers p (K,).

    Raises SinrComputationError naming the first UE (and candidate) with a
    nonpositive denominator.
    """
    p = np.asarray(p, dtype=float)
    coeffs = sinr_coefficients(terms, weights, p_hat, tau_p, sigma2)
    interference = coeffs.d @ p
    den = interference + coeffs.noise
    bad = den <= 0
    if bad.any():
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        where = f"UE {at[-1]}" + (f" of candidate {at[:-1]}" if len(at) > 1
                                   else "")
        raise SinrComputationError(
            f"nonpositive SINR denominator for {where}: "
            f"{den[at]:.6e} (interference={interference[at]:.6e} "
            f"noise={coeffs.noise[at]:.6e})")
    return coeffs.signal * p / den


def se_from_sinr(gamma, tau_c, tau_p):
    """Spectral efficiency with the pilot-overhead prelog, bit/s/Hz."""
    return (tau_c - tau_p) / tau_c * np.log2(1.0 + np.asarray(gamma))
