# simcf/estimation.py
# Phase-aware MMSE channel estimation in spectral form. Every link's NLoS
# covariance is r_lk = beta_lk s_l, so the pilot-domain covariance of each
# (AP, pilot), psi_lt = load_lt s_l + sigma2 I, shares the eigenvectors of
# s_l: one eigendecomposition s_l = V diag(eig) V^H per AP (np.linalg.eigh)
# diagonalises every link's pilot system at once. (A phase search's probe
# blocks build no estimation state: se.block_factors reads each probe's
# pilot systems from its s in closed form.) psi_lt has the eigenvalues
# den = load_lt eig + sigma2, the estimator core psi^-1 r_lk is
# beta_lk V diag(eig / den) V^H and the estimate covariance
# omega_lk = r psi^-1 r is beta_lk^2 V diag(eig^2 / den) V^H. The state
# keeps the spectra and forms only the core from them, on demand, for the
# Monte-Carlo estimates. The pilot map (PilotMap: an assignment at its pilot
# powers and tau_p) is built once per network by optimize.allocate_pilots and
# carried by the NetworkModel; it and sigma2 enter here once and travel with
# the EstimationState.

import logging
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .channel import ChannelState

log = logging.getLogger(__name__)


class EstimationError(RuntimeError):
    """Raised on broken estimation inputs (singular pilot covariance, ...)."""


@dataclass(frozen=True)
class PilotMap:
    """A pilot assignment at its pilot powers and tau_p, with what follows
    from those alone: the one-hot map of UEs to pilots, that map over the P
    pilots in use (members), the share-a-pilot relation with the diagonal
    (sharing, 1.0 or 0.0), one-hot rows picking the co-pilots of each UE in
    index order (pick, padded with other UEs up to the largest co-pilot
    count) and the coherent scales p_hat_k p_hat_j tau_p^2 of co-pilot
    pairs (0 elsewhere). members and pick gather by matmul, so one product
    serves a single map, a map shared by leading candidate axes and a map
    per drop alike.
    The map of a batch of assignments (D, K) keeps every array but p_hat
    per drop, on a leading drop axis: T and the padding of pick run to the
    largest of the batch (the padded co-pilots have zero coherent scales),
    and every drop has the same number P of pilots in use.
    pilot_map builds it; its arrays are read-only."""
    pilot_of: np.ndarray   # (K,) pilot index per UE
    p_hat: np.ndarray      # (K,) pilot powers
    tau_p: int
    onehot: np.ndarray     # (K, T), T = pilot_of.max() + 1
    members: np.ndarray    # (K, P) one-hot
    sharing: np.ndarray    # (K, K)
    pick: np.ndarray       # (K, J, K) one-hot
    coherent: np.ndarray   # (K, K)

    def at(self, i):
        """The map of network i of a batch (a slice i keeps the axis)."""
        return pilot_map(self.pilot_of[i], self.p_hat, self.tau_p)


def pilot_map(pilot_of, p_hat, tau_p) -> PilotMap:
    """The PilotMap of an assignment (K,), or of a batch of them (D, K),
    pilot powers (K,) and tau_p. Raises EstimationError for an unassigned
    UE (a negative pilot), and ValueError for a batch whose drops use
    different numbers of pilots."""
    pilot_of = np.array(pilot_of, dtype=int)
    if np.any(pilot_of < 0):
        raise EstimationError("pilot assignment incomplete (unassigned UEs)")
    p_hat = np.array(p_hat, dtype=float)
    n_ue = pilot_of.shape[-1]
    onehot = (pilot_of[..., None]
              == np.arange(int(pilot_of.max()) + 1)).astype(float)
    used = onehot.any(axis=-2)                              # (..., T)
    n_used = np.unique(used.sum(axis=-1))
    if n_used.size > 1:
        raise ValueError(f"the drops of a batch use {n_used.tolist()} "
                         f"pilots; a batch needs one count")
    in_use = np.argsort(~used, axis=-1, kind="stable")[..., :n_used[0]]
    members = np.take_along_axis(onehot, in_use[..., None, :], axis=-1)
    same = pilot_of[..., :, None] == pilot_of[..., None, :]
    copilot = same & ~np.eye(n_ue, dtype=bool)
    n_co = int(copilot.sum(axis=-1).max(initial=0))
    order = np.argsort(~copilot, axis=-1, kind="stable")[..., :n_co]
    pick = (order[..., None] == np.arange(n_ue)).astype(float)
    coherent = np.where(copilot, p_hat[:, None] * p_hat[None, :] * tau_p ** 2,
                        0.0)
    arrays = dict(pilot_of=pilot_of, p_hat=p_hat, onehot=onehot,
                  members=members, sharing=same.astype(float), pick=pick,
                  coherent=coherent)
    for arr in arrays.values():
        arr.setflags(write=False)
    return PilotMap(tau_p=tau_p, **arrays)


@dataclass(frozen=True)
class EstimationState:
    """Batched estimation statistics for every (AP, UE) link in spectral
    form, with the pilot map, pilot powers, tau_p and sigma2 they were
    built for (build_estimation_state).

    eig and basis diagonalise each AP's antenna correlation,
    s = basis diag(eig) basis^H, and den holds the eigenvalues
    load eig + sigma2 of the pilot covariance psi of each (AP, pilot in
    use) on that basis. UE k of AP l sees the pilot in use that
    pilots.members[k] picks: its core psi^-1 r is beta_lk gain_lk and its
    estimate covariance omega beta_lk^2 eig gain_lk on the basis,
    gain = eig / den.
    The error covariance is r - p_hat_k tau_p omega. The state of a batch
    of networks has a leading network axis on every array, and its pilots
    are the batch's PilotMap.
    """
    eig: np.ndarray       # (L, U) eigenvalues of s, ascending
    basis: np.ndarray     # (L, U, U) eigenvectors of s, one per column
    beta: np.ndarray      # (L, K) NLoS gains, r = beta s
    den: np.ndarray       # (L, P, U) eigenvalues of psi, all > 0
    pilots: PilotMap
    sigma2: float

    @cached_property
    def gain(self):
        """(L, K, U) eig / den of each link's pilot."""
        return self.eig[..., None, :] / (self.pilots.members[..., None, :, :]
                                         @ self.den)

    @cached_property
    def core(self):
        """(L, K, U, U) psi^-1 r of every link, basis diag(beta gain)
        basis^H."""
        v = self.basis[..., None, :, :]
        spectrum = self.beta[..., None] * self.gain
        return (v * spectrum[..., None, :]) @ v.conj().swapaxes(-1, -2)

    @property
    def condition(self):
        """Largest condition number of the pilot covariance of any (AP,
        pilot in use)."""
        return float((self.den.max(axis=-1) / self.den.min(axis=-1)).max())

    def at(self, i):
        """The state of drop i of a batch, with that drop's own PilotMap."""
        return replace(self, eig=self.eig[i], basis=self.basis[i],
                       beta=self.beta[i], den=self.den[i],
                       pilots=self.pilots.at(i))


def pilot_load(beta_nlos, pilots: PilotMap):
    """The pilot-domain load tau_p sum_j p_hat_j beta_lj over each pilot's
    UEs, (..., L, P), of the NLoS gains (..., L, K)."""
    return pilots.tau_p * (beta_nlos * pilots.p_hat) @ pilots.members


def build_estimation_state(state: ChannelState, pilots: PilotMap,
                           sigma2) -> EstimationState:
    """Estimation statistics for all links under a pilot map, or for a
    batch of drops: a state with a leading drop axis and the map of their
    assignments (D, K).

    One stacked eigendecomposition of the per-AP correlations s
    (np.linalg.eigh) gives the pilot covariance of every (AP, pilot) on
    the eigenbasis of its AP: the pilot load of the state's NLoS gains
    (pilot_load) times eig, plus sigma2. Raises EstimationError when an
    eigenvalue of a pilot covariance in use is not > 0 (psi singular or
    indefinite). Its condition is logged once per build when DEBUG logging
    is on.
    """
    eig, basis = np.linalg.eigh(state.s)
    load = pilot_load(state.beta_nlos, pilots)                       # (L, P)
    den = load[..., None] * eig[..., None, :] + sigma2               # (L, P, U)
    if not den.min() > 0:                           # NaN fails too
        *at, t = np.argwhere(~(den > 0).all(axis=-1))[0]
        drop = tuple(at[:-1])
        raise EstimationError(
            f"pilot covariance is singular or indefinite for pilot "
            f"{np.unique(pilots.pilot_of[drop])[t]} at AP {at[-1]}"
            f"{f' of drop {drop[0]}' if drop else ''}: "
            f"eigenvalue {den[(*at, t)].min():.6e}")
    est = EstimationState(eig=eig, basis=basis, beta=state.beta_nlos, den=den,
                          pilots=pilots, sigma2=sigma2)
    _monitor_conditioning(est)
    return est


def _monitor_conditioning(est):
    """Log badly conditioned pilot covariances (debug runs only)."""
    if not log.isEnabledFor(logging.DEBUG):
        return
    worst = est.condition
    if worst > 1e12:
        log.warning("pilot covariance badly conditioned (cond %.3e)", worst)


def scaled_complex(re, im, scale):
    """scale (re + 1j im) of real arrays re and im, written part by part:
    equal bit for bit to that expression, without its complex
    temporaries."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)),
                   dtype=complex)
    np.multiply(re, scale, out=out.real)
    np.multiply(im, scale, out=out.imag)
    return out


def despread_pilot_noise(re, im, tau_p, sigma2):
    """Noise of the despread pilot observation, CN(0, tau_p sigma2 I_U),
    from standard normal real and imaginary parts (..., T, U): one draw per
    pilot sequence, so UEs sharing a pilot see the same despread noise."""
    return scaled_complex(re, im, np.sqrt(tau_p * sigma2 / 2.0))


def link_matvec(f, v):
    """Per-link matrix-vector products f[l, k] @ v[..., l, k, :] for
    matrices f (L, K, U, U) and vectors v (..., L, K, U), as explicit sums
    over the U axis, one output entry at a time: each product then runs
    over all links at once, where one broadcast along the U axis would run
    in loops of U elements."""
    u = f.shape[-1]
    out = np.empty(np.broadcast_shapes(f.shape[:-1], v.shape),
                   dtype=np.result_type(f, v))
    for i in range(u):
        entry = out[..., i]
        np.multiply(f[..., i, 0], v[..., 0], out=entry)
        for j in range(1, u):
            entry += f[..., i, j] * v[..., j]
    return out


def mmse_estimate(est: EstimationState, los, nlos, pilot_noise):
    """Realization-level estimates from sampled channels.

    los: (..., L, K, U) sampled LoS parts h_bar e^{j phase}; nlos:
    (..., L, K, U) sampled zero-mean channel parts; pilot_noise:
    (..., L, T, U) with T = est.pilots.onehot.shape[1]. Returns estimates of
    shape (..., L, K, U); the error is (true channel) - (estimate) with
    true = los + nlos. Each pilot's observation (tau_p times its UEs'
    weighted NLoS sum, plus its noise) is formed once and read by every UE
    on it through sqrt(p_hat_k) core^H.
    """
    pilots = est.pilots
    p_root = np.sqrt(pilots.p_hat)
    # one matmul sums each pilot's weighted NLoS: (..., L, U, K) @ (K, T);
    # the weights are repeated over U so that their product runs over all
    # links at once, not in loops of U elements
    weighted = np.repeat(p_root[:, None], nlos.shape[-1], axis=-1) * nlos
    pooled = np.tensordot(weighted, pilots.onehot, axes=(-2, 0))
    observed = np.take(pilots.tau_p * pooled.swapaxes(-1, -2) + pilot_noise,
                       pilots.pilot_of, axis=-2)
    gain = p_root[None, :, None, None] * est.core.conj().swapaxes(-1, -2)
    estimate = link_matvec(gain, observed)
    estimate += los
    return estimate
