# simcf/montecarlo.py
# Monte-Carlo estimation of the uplink SINR lower bound directly from its
# defining expectations: sampled channels, pilot observations, MMSE
# estimates, matched-filter combining and CPU-side weighting. Serves as the
# independent oracle for the closed-form engine. A chunk of trials small
# enough to stay in cache is the unit of the whole pass: it draws its own
# random numbers from its own keyed stream, realizes them, forms its
# features and sums them (see uatf_monte_carlo). No (trials, L, K, K)
# product tensor is formed, and each weight set's features serve all its
# power vectors. The pilot map, pilot powers, tau_p and sigma2 are read
# from the estimation state.
#
# Chunks run on lanes, the calling thread and one thread per further CPU
# the process may run on, started and joined inside each window of chunks
# (_on_lanes); NumPy releases the GIL while it fills a chunk's numbers, so
# the draw runs in parallel too. Each chunk writes its sums into its own
# slot, and the caller adds the slots in chunk order once the window's
# lanes are done. The results therefore depend on rng, n_trials and the
# chunk size only, not on the lane count or the window, and memory does
# not grow with n_trials.

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .config import is_count
from .estimation import (EstimationState, despread_pilot_noise,
                         estimator_gain, link_matvec, mmse_estimate,
                         scaled_complex)
from .scenario import psd_sqrt


@dataclass(frozen=True)
class UatfEstimate:
    """Monte-Carlo SINR estimates and their standard errors."""
    gamma: np.ndarray     # (..., K), one row per setting
    stderr: np.ndarray    # (..., K) delta-method standard error of gamma
    n_trials: int         # sampled realizations, shared by every setting


# Entries of one (chunk, L, K, U) array, which sets the trials per chunk:
# 128 trials at the paper defaults (L K U = 100), whose ~200 kB arrays stay
# near a 2 MiB L2 cache. With a generator per chunk, 64 trials were ~20 %
# slower and 256 no faster. The chunk size is part of the stream
# definition: changing it changes every Monte-Carlo output.
_CHUNK_ELEMENTS = 12_800
# Chunks of one _on_lanes call; bounds the chunk sums held at once.
_WINDOW_CHUNKS = 32


class _TrialSampler:
    """Draws the random numbers of chunks of trials and realizes them as
    (channel, estimate) pairs of all links. The NLoS factor of link (l, k)
    is sqrt(beta_nlos_lk) psd_sqrt(s_l). Everything numbers and realize
    read is formed here, so lanes may run chunks at once. root is one
    spawned child of rng's SeedSequence: rng's own numbers are not drawn,
    and each sampler of one Generator takes the next child."""

    def __init__(self, state: ChannelState, est: EstimationState, rng):
        self.state = state
        self.est = est
        self.root = np.random.default_rng(rng).bit_generator.seed_seq \
            .spawn(1)[0]
        self.nlos_factor = (np.sqrt(state.beta_nlos)[..., None, None]
                            * psd_sqrt(state.s)[:, None])   # (L, K, U, U)
        self.gain = estimator_gain(est)                    # (L, K, U, U)
        self.n_pilots = est.pilots.onehot.shape[1]
        self.shape = state.h_bar.shape
        self.chunk = max(1, _CHUNK_ELEMENTS // math.prod(self.shape))

    def numbers(self, i, c):
        """The random numbers of c trials of chunk i, drawn fresh from its
        stream, the i-th child root.spawn would give, in the order: phases
        (c, L, K), the white draws' real and imaginary parts (c, L, K, U)
        and the pilot noise's (c, L, T, U). The phases are uniform(-pi, pi)
        as numpy forms it, -pi + 2 pi x of a standard uniform x."""
        root = self.root
        rng = np.random.default_rng(np.random.SeedSequence(
            root.entropy, spawn_key=(*root.spawn_key, i),
            pool_size=root.pool_size))
        n_ap, n_ue, u = self.shape
        links, pilots = (c, n_ap, n_ue, u), (c, n_ap, self.n_pilots, u)
        phase = rng.random((c, n_ap, n_ue))
        phase *= 2.0 * np.pi
        phase -= np.pi
        return (phase, *(rng.standard_normal(shape)
                         for shape in (links, links, pilots, pilots)))

    def realize(self, numbers):
        """(channels, estimates), each (c, L, K, U), of the random numbers
        of c trials."""
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
        h_hat = mmse_estimate(self.est, los, nlos, noise, self.gain)
        los += nlos                                     # the channel
        return los, h_hat


def uatf_monte_carlo(state, est, p, weights, n_trials, rng) -> UatfEstimate:
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
    no (trials, L, K, K) tensor exists. The feature outer products are
    summed over trials by one matmul per UE.

    rng, n_trials and the chunk size fix the results. rng is anything
    np.random.default_rng accepts; the call takes one spawned child of its
    SeedSequence as root, so rng's own numbers are not drawn, equal fresh
    seeds give equal results and each call on one Generator takes fresh
    streams. Chunk i holds trials [i c, (i + 1) c) (the last may be
    shorter), with c = _CHUNK_ELEMENTS // (L K U) trials, at least one;
    it draws from SeedSequence(root.entropy, spawn_key=(*root.spawn_key,
    i)) and forms its own feature sums, nv included. The chunks of a window
    (_WINDOW_CHUNKS) run on as many lanes (threads) as the process has
    CPUs, each lane taking the next chunk; after the lanes join, the
    window's sums are added in chunk order. So the results do not depend
    on the lane count or the window, and no array grows with n_trials.

    Leading axes of p and weights (broadcast together, as the candidate
    axes in se) list settings; gamma and stderr are (..., K). All settings
    share one sampling pass and so see common random numbers. The features
    do not depend on p, so they are formed once per weight set over the
    weights' own leading axes, and every power vector broadcast against a
    weight set reuses them. Each setting's result equals a call for that
    setting alone with an equal rng, bit for bit.
    """
    if not is_count(n_trials) or n_trials < 2:
        # one trial has a zero sample covariance, so no standard error
        raise ValueError(f"need n_trials >= 2, got n_trials={n_trials}")
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
    # glibc gives the free top of a heap back to the system once it exceeds
    # twice the largest block it has unmapped (mallopt(3)), and a lane's
    # arena holds little but its chunk's arrays, some ten chunk-sized ones:
    # the lanes would fault their pages back in chunk after chunk (~20 000
    # page faults in a 20 000-trial call). Eight chunk-sized arrays, mapped
    # and unmapped untouched, lift that threshold above them.
    np.empty((8, sampler.chunk, *sampler.shape), dtype=complex)
    n_chunks = -(-n_trials // sampler.chunk)
    for first in range(0, n_chunks, _WINDOW_CHUNKS):
        window = range(first, min(first + _WINDOW_CHUNKS, n_chunks))
        for sum1, sum2 in _window_sums(sampler, window, n_trials, weights):
            acc1 += sum1
            acc2 += sum2
    # the sums of a weight set serve every power vector broadcast against it
    which = np.broadcast_to(np.arange(len(weights)).reshape(own), lead).ravel()
    p = np.broadcast_to(p, (*lead, n_ue)).reshape(-1, n_ue)
    gamma, stderr = _delta_method(acc1[which], acc2[which], p, est.sigma2,
                                  n_trials)
    return UatfEstimate(gamma=gamma.reshape(*lead, n_ue),
                        stderr=stderr.reshape(*lead, n_ue), n_trials=n_trials)


def _window_sums(sampler, window, n_trials, weights):
    """[(sum1, sum2)] of the chunks of window, in chunk order: the sums
    over each chunk's trials of the features (W, K, dim) and of their outer
    products (W, K, dim, dim) under each of the weight sets (W, K, L). The
    chunks run on lanes (_on_lanes), each lane taking the next chunk from
    one shared iterator and writing only its chunk's slot, so a chunk's
    arithmetic is the same on any lane."""
    u = sampler.shape[-1]
    # weights on the estimate rows, repeated over U so that their product
    # with the rows runs over all links at once
    w_rows = np.repeat(weights.conj()[..., None], u, axis=-1)
    w_sq = np.abs(weights) ** 2
    slots = [None] * len(window)
    chunks = iter(window)

    def run_chunks():
        for i in chunks:
            c = min(sampler.chunk, n_trials - i * sampler.chunk)
            slots[i - window.start] = _chunk_sums(sampler, i, c, w_rows,
                                                  w_sq)

    _on_lanes(run_chunks, min(_cpus(), len(window)))
    return slots


def _chunk_sums(sampler, i, c, w_rows, w_sq):
    """(sum1, sum2) of the c trials of chunk i (see _window_sums), given
    the weights on the estimate rows w_rows (W, K, L, U) and the squared
    weight magnitudes w_sq (W, K, L)."""
    n_ap, n_ue, u = sampler.shape
    h, h_hat = sampler.realize(sampler.numbers(i, c))
    # channels as (c, L*U, K) columns, conjugate estimates as (c, K, L, U)
    cols = h.transpose(0, 1, 3, 2).reshape(c, n_ap * u, n_ue)
    rows = np.conjugate(h_hat.transpose(0, 2, 1, 3), order="C")
    sq = rows.real ** 2 + rows.imag ** 2
    vnorm = np.ascontiguousarray(sum(
        (sq[..., j] for j in range(1, u)), sq[..., 0]).transpose(1, 2, 0))
    dim = n_ue + 3
    sum1 = np.empty((len(w_rows), n_ue, dim))
    sum2 = np.empty((len(w_rows), n_ue, dim, dim))
    f = np.empty((c, n_ue, dim))
    for s, (w, a) in enumerate(zip(w_rows, w_sq)):
        _features(rows, cols, w, f)
        f[:, :, -1] = (a[:, None] @ vnorm)[:, 0].T
        sum1[s] = f.sum(axis=0)
        sum2[s] = f.transpose(1, 2, 0) @ f.transpose(1, 0, 2)
    return sum1, sum2


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity masks on this platform
        return os.cpu_count() or 1


def _on_lanes(work, n):
    """Runs work() on n lanes, the calling thread and n - 1 threads, each
    thread in a copy of the caller's context (so np.errstate holds on every
    lane). Every thread is joined before this returns, also when a lane
    raises; the first lane error is then raised here."""
    errors = []

    def lane():
        try:
            work()
        except BaseException as exc:
            errors.append(exc)

    threads = []
    try:
        for _ in range(n - 1):
            thread = threading.Thread(
                target=contextvars.copy_context().run, args=(lane,))
            thread.start()
            threads.append(thread)
        lane()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


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
