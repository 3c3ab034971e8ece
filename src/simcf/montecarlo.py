# simcf/montecarlo.py
# Monte-Carlo estimation of the uplink SINR lower bound directly from its
# defining expectations: sampled channels, pilot observations, MMSE
# estimates, matched-filter combining and CPU-side weighting. Serves as the
# independent oracle for the closed-form engine. A batch of trials draws
# all its random numbers at once, which fixes the random streams; a chunk
# of trials small enough to stay in cache is the unit of arithmetic, and
# only the nv feature and the feature sums are formed per batch (see
# uatf_monte_carlo). No (batch, L, K, K) product tensor is formed, and each
# weight set's features serve all its power vectors. The pilot map, pilot
# powers, tau_p and sigma2 are read from the estimation state.
#
# A call makes one workspace (_Workspace): buffers for a full batch's
# random numbers, features and estimate norms. Every batch draws and writes
# into them, so no batch allocates (or faults in) arrays of its own size. A
# partial last batch uses the buffers' fronts, each laid out as a fresh
# array of its shape, so its arithmetic is that of a fresh array. Nothing
# outlives the call.

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .config import is_count
from .estimation import (EstimationState, despread_pilot_noise, link_matvec,
                         mmse_estimate, scaled_complex)
from .scenario import psd_sqrt


@dataclass(frozen=True)
class UatfEstimate:
    """Monte-Carlo SINR estimates and their standard errors."""
    gamma: np.ndarray     # (..., K), one row per setting
    stderr: np.ndarray    # (..., K) delta-method standard error of gamma
    n_trials: int         # sampled realizations, shared by every setting


# Entries of one (chunk, L, K, U) array, which sets the trials per chunk of
# arithmetic: 128 trials at the paper defaults (L K U = 100), whose ~200 kB
# arrays stay near a 2 MiB L2 cache. There 64 to 128 trials were fastest,
# 32 slower, and a whole 4096-trial batch ~20 % slower.
_CHUNK_ELEMENTS = 12_800


class _TrialSampler:
    """Draws the random numbers of batches of trials and realizes them as
    (channel, estimate) pairs of all links. The NLoS factor of link (l, k)
    is sqrt(beta_nlos_lk) psd_sqrt(s_l)."""

    def __init__(self, state: ChannelState, est: EstimationState, rng):
        self.state = state
        self.est = est
        self.rng = np.random.default_rng(rng)
        self.nlos_factor = (np.sqrt(state.beta_nlos)[..., None, None]
                            * psd_sqrt(state.s)[:, None])   # (L, K, U, U)
        self.n_pilots = est.pilots.onehot.shape[1]
        self.shape = state.h_bar.shape

    def numbers(self, out):
        """Draws the random numbers of a batch of b trials into out, the
        arrays of a workspace's numbers, in stream order: phases (b, L, K),
        the white draws' real and imaginary parts (b, L, K, U) and the
        pilot noise's (b, L, T, U); returns out. A draw into an array gives
        the numbers a fresh draw of its shape would (the generator's fills
        carry no state between calls), and the phases are uniform(-pi, pi)
        as numpy forms it, -pi + 2 pi x of a standard uniform x."""
        phase, *normals = out
        self.rng.random(out=phase)
        phase *= 2.0 * np.pi
        phase -= np.pi
        for x in normals:
            self.rng.standard_normal(out=x)
        return out

    def realize(self, numbers):
        """(channels, estimates), each (b, L, K, U), of the random numbers
        of b trials (any run of trials of a batch)."""
        phase, white_re, white_im, noise_re, noise_im = numbers
        # white CN(0, I) draws: (re + 1j im) / sqrt(2)
        nlos = link_matvec(self.nlos_factor, scaled_complex(
            white_re, white_im, 1.0 / np.sqrt(2.0)))
        # h_bar e^{j phase}, one antenna at a time so that each product runs
        # over all links at once; cos and sin written part by part equal
        # exp(1j phase) without its complex temporary
        turn = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=turn.real)
        np.sin(phase, out=turn.imag)
        los = np.empty(nlos.shape, dtype=complex)
        for i in range(los.shape[-1]):
            np.multiply(self.state.h_bar[..., i], turn, out=los[..., i])
        noise = despread_pilot_noise(noise_re, noise_im, self.est.pilots.tau_p,
                                     self.est.sigma2)
        h_hat = mmse_estimate(self.est, los, nlos, noise)
        los += nlos                                     # the channel
        return los, h_hat


class _Workspace:
    """Buffers for the arrays a batch of up to size trials under n_sets
    weight sets fills: its random numbers (see _TrialSampler.numbers), its
    features (n_sets, b, K, K + 3) and its squared estimate norms
    (K, L, b). Every batch of a uatf_monte_carlo call refills the same
    buffers."""

    def __init__(self, sampler, size, n_sets):
        self.dims = (*sampler.shape, sampler.n_pilots, n_sets)
        self.buffers = [np.empty(math.prod(shape))
                        for shape in self._shapes(size)]

    def _shapes(self, b):
        n_ap, n_ue, u, n_pilots, n_sets = self.dims
        links, pilots = (b, n_ap, n_ue, u), (b, n_ap, n_pilots, u)
        return ((b, n_ap, n_ue), links, links, pilots, pilots,
                (n_sets, b, n_ue, n_ue + 3), (n_ue, n_ap, b))

    def arrays(self, b):
        """(numbers, features, norms) of b trials: the fronts of the
        buffers, each laid out as a fresh C-contiguous array of its shape,
        so a partial batch reuses the memory with unchanged arithmetic."""
        *numbers, feats, vnorm = (
            x[:math.prod(shape)].reshape(shape)
            for x, shape in zip(self.buffers, self._shapes(b)))
        return tuple(numbers), feats, vnorm


def uatf_monte_carlo(state, est, p, weights, n_trials, rng,
                     batch=4096) -> UatfEstimate:
    """Plug-in Monte-Carlo SINR for fixed powers p (..., K) and CPU weights
    (..., K, L), with the pilots and noise of the estimation state est.

    With x[l, k, j] = (estimate of k at AP l)^H (channel of j at AP l),
    accumulates, per UE k, the per-trial scalars
      u    = sum_l conj(a_kl) x[l, k, k]            (combined useful term)
      w_j  = |sum_l conj(a_kl) x[l, k, j]|^2        (combined interference)
      nv   = sum_l |a_kl|^2 ||estimate_lk||^2        (noise scale)
    and forms gamma_k = p_k |mean u|^2 / (sum_j p_j mean w_j
    - p_k |mean u|^2 + sigma2 mean nv). The standard error comes from the
    delta method on the (K + 3)-dimensional vector of sample means.

    x is never formed: the combined products y[k, j] = sum_l conj(a_kl)
    x[l, k, j] of a weight set are one matmul per trial of the weighted
    estimates (K, L*U) with the channels (L*U, K), batched over trials, so
    no (batch, L, K, K) tensor exists. The feature outer products are summed
    over trials by one matmul per UE.

    batch fixes the random streams: each batch of trials draws all its
    random numbers at once (phases, white real and imaginary parts, pilot
    noise real and imaginary parts), so the results depend on batch but
    not on how the arithmetic is split. The batches draw into the buffers
    of one workspace of the call (_Workspace) and refill them; a partial
    last batch takes their fronts. A chunk of trials, sized to stay in cache
    (_CHUNK_ELEMENTS), is the unit of arithmetic from the white draws to
    the features. The nv features and the feature sums stay per batch:
    the OpenBLAS gemv behind nv = |a|^2 @ norms rounds the edge columns of
    the norms (column count mod 8) apart from the others, and sums per
    chunk would add in another order, so either would make the results
    depend on the chunk size.

    Leading axes of p and weights (broadcast together, as the candidate
    axes in se) list settings; gamma and stderr are (..., K). All settings
    share one sampling pass and so see common random numbers. The features
    do not depend on p, so they are formed once per weight set over the
    weights' own leading axes, and every power vector broadcast against a
    weight set reuses them. Each setting's result equals a call for that
    setting alone with the same rng, bit for bit.
    """
    if not (is_count(n_trials) and is_count(batch)) or n_trials < 2 \
            or batch < 1:
        # one trial has a zero sample covariance, so no standard error
        raise ValueError(f"need n_trials >= 2 and batch >= 1, got "
                         f"n_trials={n_trials}, batch={batch}")
    sampler = _TrialSampler(state, est, rng)
    n_ap, n_ue, u = sampler.shape
    p = np.asarray(p, dtype=float)
    weights = np.asarray(weights, dtype=complex)
    lead = np.broadcast_shapes(p.shape[:-1], weights.shape[:-2])
    own = weights.shape[:-2]
    weights = weights.reshape(-1, n_ue, n_ap)
    dim = n_ue + 3
    acc1 = np.zeros((len(weights), n_ue, dim))
    acc2 = np.zeros((len(weights), n_ue, dim, dim))
    work = _Workspace(sampler, min(batch, n_trials), len(weights))
    done = 0
    while done < n_trials:
        b = min(batch, n_trials - done)
        sum1, sum2 = _batch_sums(sampler, *work.arrays(b), weights)
        acc1 += sum1
        acc2 += sum2
        done += b
    # the sums of a weight set serve every power vector broadcast against it
    which = np.broadcast_to(np.arange(len(weights)).reshape(own), lead).ravel()
    p = np.broadcast_to(p, (*lead, n_ue)).reshape(-1, n_ue)
    gamma, stderr = _delta_method(acc1[which], acc2[which], p, est.sigma2,
                                  n_trials)
    return UatfEstimate(gamma=gamma.reshape(*lead, n_ue),
                        stderr=stderr.reshape(*lead, n_ue), n_trials=n_trials)


def _batch_sums(sampler, numbers, feats, vnorm, weights):
    """Sums over the next b trials of the features (W, K, dim) and of their
    outer products (W, K, dim, dim) under each of the weight sets (W, K, L),
    given a workspace's arrays of b trials: numbers, feats (W, b, K, dim)
    and vnorm (K, L, b). The trials' random numbers are drawn at once into
    numbers and realized chunk by chunk, each chunk writing its features
    into feats and its squared estimate norms into vnorm, so no array of
    the batch's size is allocated for them."""
    n_ap, n_ue, u = sampler.shape
    sampler.numbers(numbers)
    b = vnorm.shape[-1]
    # weights on the estimate rows, repeated over U so that their product
    # with the rows runs over all links at once
    w_rows = np.repeat(weights.conj()[..., None], u, axis=-1)
    chunk = max(1, _CHUNK_ELEMENTS // (n_ap * n_ue * u))
    for start in range(0, b, chunk):
        part = slice(start, start + chunk)
        h, h_hat = sampler.realize([x[part] for x in numbers])
        # channels as (c, L*U, K) columns, conjugate estimates as (c, K, L, U)
        cols = h.transpose(0, 1, 3, 2).reshape(len(h), n_ap * u, n_ue)
        rows = np.conjugate(h_hat.transpose(0, 2, 1, 3), order="C")
        sq = rows.real ** 2 + rows.imag ** 2
        vnorm[..., part] = sum((sq[..., j] for j in range(1, u)),
                               sq[..., 0]).transpose(1, 2, 0)
        for w, f in zip(w_rows, feats):
            _features(rows, cols, w, f[part])
    for w, f in zip(np.abs(weights) ** 2, feats):
        f[:, :, -1] = (w[:, None] @ vnorm)[:, 0].T
    return (np.stack([f.sum(axis=0) for f in feats]),
            np.stack([f.transpose(1, 2, 0) @ f.transpose(1, 0, 2)
                      for f in feats]))


def _features(rows, cols, w_rows, out):
    """Writes the features (Re u, Im u, w_1 .. w_K) of c trials under one
    weight set into out (c, K, dim), from the conjugate estimates rows
    (c, K, L, U), the channels cols (c, L*U, K) and the weights on the rows
    w_rows (K, L, U)."""
    c, n_ue = rows.shape[:2]
    y = (w_rows * rows).reshape(c, n_ue, -1) @ cols
    useful = np.diagonal(y, axis1=1, axis2=2)
    out[:, :, 0] = useful.real
    out[:, :, 1] = useful.imag
    out[:, :, 2:-1] = np.abs(y) ** 2


def _delta_method(acc1, acc2, p, sigma2, n_trials):
    """(gamma, stderr), each (S, K), of S settings in one pass, from the
    feature sums acc1 (S, K, dim) and acc2 (S, K, dim, dim) and powers p
    (S, K); features are (Re u, Im u, w_1 .. w_K, nv) per UE."""
    mean = acc1 / n_trials
    cov = acc2 / n_trials - mean[..., :, None] * mean[..., None, :]
    u = mean[..., :2]                                  # (S, K, 2)
    num = p * (u ** 2).sum(axis=-1)
    den = np.einsum("skj,sj->sk", mean[..., 2:-1], p) - num \
        + sigma2 * mean[..., -1]
    gamma = num / den
    grad = np.concatenate([
        (2.0 * p * (den + num) / den ** 2)[..., None] * u,
        -(num / den ** 2)[..., None] * p[:, None, :],
        (-num * sigma2 / den ** 2)[..., None],
    ], axis=-1)
    var = np.einsum("ski,skij,skj->sk", grad, cov, grad) / n_trials
    return gamma, np.sqrt(np.maximum(var, 0.0))
