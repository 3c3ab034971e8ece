# simcf/optimize.py
# The three system-design routines: greedy interference-aware pilot
# allocation, blockwise phase-probing wave-domain beamforming driven by the
# closed-form sum SE, and bisection max-min power control over the linear
# feasibility system induced by fixed CPU weights.

import logging
from dataclasses import dataclass

import numpy as np

from . import se
from .estimation import EstimationError
from .pipeline import NetworkModel
from .scenario import Drop
from .sim_physics import wrap_phases

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Pilot allocation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PilotAssignment:
    pilot_of: np.ndarray   # (K,) pilot index per UE

    def __post_init__(self):
        self.pilot_of.setflags(write=False)


def pilot_interference(drop: Drop, k, assigned, pilot_of):
    """Contamination cost of giving each pilot to UE k, shape (tau_p,).

    The cost of a pilot is the sum over the UEs j in assigned that hold it
    and over all APs l of beta_lk * beta_lj (phase independent).
    """
    ui = np.zeros(drop.cfg.tau_p)
    cost = drop.beta[:, k][:, None] * drop.beta[:, assigned]   # (L, |assigned|)
    for j, c in zip(assigned, cost.sum(axis=0)):
        ui[pilot_of[j]] += c
    return ui


def allocate_pilots(drop: Drop) -> PilotAssignment:
    """Greedy contamination-minimizing pilot assignment.

    The first tau_p UEs take pilots 0..tau_p-1; every further UE (in index
    order) takes the pilot with the least accumulated interference toward
    the UEs already holding it, ties broken by the lowest pilot index.
    """
    cfg = drop.cfg
    pilot_of = np.full(cfg.K, -1, dtype=int)
    head = min(cfg.tau_p, cfg.K)
    pilot_of[:head] = np.arange(head)
    for k in range(head, cfg.K):
        assigned = np.arange(k)
        ui = pilot_interference(drop, k, assigned, pilot_of)
        pilot_of[k] = int(np.argmin(ui))   # argmin takes the lowest index on ties
    return PilotAssignment(pilot_of=pilot_of)


# ---------------------------------------------------------------------------
# Wave-domain beamforming
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BeamformingConfig:
    """Knobs of the blockwise phase-probing search."""
    step_size: float = np.pi / 8     # phase increment per probe, rad
    max_probes: int = 16             # probes per block (full circle at pi/8)
    min_gain: float = 1e-3           # required sum-SE improvement, bit/s/Hz
    block_size: int = 4              # meta-atoms updated jointly
    sweeps: int = 1                  # outer passes over all APs
    symmetric_probe: bool = False    # also try negative increments
    decoder: str = "lsfd"

    def __post_init__(self):
        if not 0.0 < self.step_size < 2.0 * np.pi:
            raise ValueError("step_size must lie in (0, 2 pi)")
        if self.max_probes < 1 or self.block_size < 1 or self.sweeps < 1:
            raise ValueError("max_probes, block_size and sweeps must be >= 1")
        if self.min_gain < 0:
            raise ValueError("min_gain must be nonnegative")


@dataclass
class TraceRow:
    iteration: int
    objective: float
    accepted: bool


@dataclass(frozen=True)
class ProbeBatch:
    """Candidate (M, N) phase slices of one AP, evaluated as one batch.

    terms stacks the full-network terms of every candidate on a leading
    axis and values holds their sum SE. Both are None when a typed
    numerical failure stopped the batch; each candidate is then evaluated
    on its own when the search asks for it.
    """
    ap: int
    candidates: np.ndarray            # (B, M, N)
    terms: se.SinrTerms = None
    values: np.ndarray = None         # (B,)


class SumSeObjective:
    """Closed-form sum SE of the network, with batched probing of one AP.

    probe(l, candidates) takes B candidate (M, N) phase slices for AP l and
    runs them as one batch through cascade, channel state, estimation
    state, sinr_terms (with the candidates on the AP axis), the splice into
    the other APs' terms, decoder weights, SINR and sum SE. Every candidate
    gets exactly the value a one-candidate evaluation gives. A typed
    failure (EstimationError, SinrComputationError) in the batch is not
    raised there: value_of then evaluates the asked-for candidate alone, so
    only a candidate the search reaches can raise. commit_ap adopts a
    candidate's terms from its batch without rebuilding them.
    """

    def __init__(self, model: NetworkModel, pilot_of, p=None, decoder="lsfd"):
        self.model = model
        self.cfg = model.cfg
        self.pilot_of = np.asarray(pilot_of)
        self.p = model.drop.p if p is None else np.asarray(p, dtype=float)
        self.decoder = decoder
        self.p_hat = model.cfg.pilot_powers()
        self.phases = None
        self.terms = None

    def set_phases(self, phases):
        self.phases = np.array(phases, dtype=float)
        self.terms = self.model.terms(self.phases, self.pilot_of)
        return float(self.value(self.terms))

    def value(self, terms):
        """Sum SE of terms, one per candidate for a candidate stack."""
        cfg = self.cfg
        weights = se.decoder_weights(terms, self.decoder, self.p, self.p_hat,
                                     cfg.tau_p, cfg.sigma2)
        gamma = se.sinr_from_weights(terms, weights, self.p, self.p_hat,
                                     cfg.tau_p, cfg.sigma2)
        return se.se_from_sinr(gamma, cfg.tau_c, cfg.tau_p).sum(axis=-1)

    def probe(self, l, candidates) -> ProbeBatch:
        """Evaluate candidate (M, N) phase slices (B, M, N) for AP l."""
        candidates = np.asarray(candidates, dtype=float)
        try:
            terms = self.terms.splice_ap(
                l, self.model.ap_terms(l, candidates, self.pilot_of))
            return ProbeBatch(l, candidates, terms, self.value(terms))
        except (EstimationError, se.SinrComputationError):
            if len(candidates) == 1:
                raise
            return ProbeBatch(l, candidates)

    def _single(self, batch, i):
        """(batch, index) holding candidate i's evaluated terms and value."""
        if batch.values is None:
            return self.probe(batch.ap, batch.candidates[i:i + 1]), 0
        return batch, i

    def value_of(self, batch, i):
        """Sum SE with candidate i of batch in place; raises what evaluating
        that candidate alone raises."""
        batch, i = self._single(batch, i)
        return float(batch.values[i])

    def commit_ap(self, batch, i):
        """Adopt candidate i of batch, reusing its terms."""
        batch, i = self._single(batch, i)
        self.terms = batch.terms.candidate(i)
        self.phases[batch.ap] = batch.candidates[i]


def optimize_beamforming(model: NetworkModel, pilot_of, init_phases,
                         cfg: BeamformingConfig = BeamformingConfig(),
                         rng=None, p=None):
    """Blockwise phase search maximizing the closed-form sum SE.

    For each AP in turn, meta-atom indices are visited in a seeded random
    permutation in blocks of block_size. Probe i of a block (i = 1 ..
    max_probes) adds i * step_size to the block's phases, wrapping modulo
    2 pi; with symmetric_probe a probe that does not clear min_gain also
    tries -i * step_size and keeps the better of the two. The first probe
    improving the objective by more than min_gain is committed and the
    search moves to the next block. The objective trace is non-decreasing;
    with no improving probe the input phases survive.

    All probes of a block, plus their mirrors under symmetric_probe, are
    evaluated as one batch (SumSeObjective.probe). The search then walks
    them in order and accepts the first improving one, so the phases and
    the trace are those of evaluating probe after probe, and an evaluation
    error surfaces only at a probe that order reaches (a mirror only when
    its forward probe was not accepted).

    Returns (phases, trace) with trace a list of TraceRow per probe.
    """
    rng = np.random.default_rng(rng)
    objective = SumSeObjective(model, pilot_of, p=p, decoder=cfg.decoder)
    phases = wrap_phases(np.array(init_phases, dtype=float))
    best = objective.set_phases(phases)
    n_layers, n_atoms = phases.shape[1], phases.shape[2]
    n_probes = cfg.max_probes
    steps = np.arange(1, n_probes + 1) * cfg.step_size
    if cfg.symmetric_probe:
        steps = np.concatenate([steps, -steps])   # mirror of i at n_probes + i
    trace = [TraceRow(iteration=0, objective=best, accepted=False)]
    it = 0
    for _ in range(cfg.sweeps):
        for l in range(phases.shape[0]):
            order = rng.permutation(n_layers * n_atoms)
            for start in range(0, order.size, cfg.block_size):
                block = order[start:start + cfg.block_size]
                rows, cols = np.unravel_index(block, (n_layers, n_atoms))
                candidates = np.repeat(phases[l][None], steps.size, axis=0)
                candidates[:, rows, cols] = wrap_phases(
                    phases[l][rows, cols] + steps[:, None])
                batch = objective.probe(l, candidates)
                for i in range(n_probes):
                    it += 1
                    pick = i
                    gain = objective.value_of(batch, i) - best
                    if cfg.symmetric_probe and gain <= cfg.min_gain:
                        down = objective.value_of(batch, n_probes + i) - best
                        if down > gain:
                            pick, gain = n_probes + i, down
                    if gain > cfg.min_gain:
                        phases[l] = candidates[pick]
                        objective.commit_ap(batch, pick)
                        best += gain
                        trace.append(TraceRow(it, best, True))
                        break
                    trace.append(TraceRow(it, best, False))
    return phases, trace


# ---------------------------------------------------------------------------
# Max-min power control
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSolution:
    p: np.ndarray          # (K,) transmit powers, W
    t_star: float          # certified min-SINR lower bound
    iterations: int
    bracket: tuple         # final (t_min, t_max)


@dataclass(frozen=True)
class _SinrCoefficients:
    """gamma_k(p) = signal_k p_k / (d[k] @ p + noise_k) for fixed weights."""
    signal: np.ndarray     # (K,)
    d: np.ndarray          # (K, K) interference coefficients, d[k, k] >= 0
    noise: np.ndarray      # (K,)

    def gamma(self, p):
        return self.signal * p / (self.d @ p + self.noise)


def sinr_coefficients(terms: se.SinrTerms, weights, p_hat, tau_p, sigma2):
    """Scalarize the SINR into affine-fraction coefficients for fixed weights.

    The coefficients are the unit-power terms of se.sinr_breakdown, so
    gamma(p) reproduces se.sinr_from_weights for every power vector.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    weights = np.asarray(weights, dtype=complex)
    ones = np.ones(terms.n_ues)
    aa = np.abs(weights) ** 2                                   # (K, L)
    signal = np.abs(np.einsum("kl,kl->k", weights.conj(), terms.z)) ** 2
    combined = np.einsum("kl,kjl->kj", weights.conj(), terms.delta)
    d = (np.einsum("kjl,kl->kj", terms.xi, aa)
         + se._coherent_coeffs(terms, ones, p_hat, tau_p)
         * np.abs(combined) ** 2)
    d[np.diag_indices(terms.n_ues)] -= np.einsum("kl,kl->k", aa,
                                                 terms.lam ** 2)
    noise = sigma2 * np.einsum("kl,kl->k", aa, terms.z)
    return _SinrCoefficients(signal=signal, d=d, noise=noise)


def _feasible_powers(coeffs, t, p_max, tol=1e-9):
    """Least power vector meeting gamma_k >= t, or None if infeasible.

    For fixed weights the constraints p_k signal_k >= t (d[k] @ p + noise_k)
    are linear; their least solution solves (I - t D~) p = t n~ with
    D~ = d / signal and n~ = noise / signal. The interference matrix D~ is
    entrywise nonnegative, so whenever the target t exceeds what the network
    can support the solve yields a negative component (Perron-Frobenius),
    and a component above p_max certifies infeasibility under the cap.
    (A fixed-point sweep finds the same point but its contraction ratio
    degenerates to 1 at the feasibility boundary; the direct solve is exact.)
    """
    n_ue = coeffs.signal.shape[0]
    if t <= 0:
        return np.zeros(n_ue)
    a = np.eye(n_ue) - t * coeffs.d / coeffs.signal[:, None]
    b = t * coeffs.noise / coeffs.signal
    try:
        p = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    if np.any(p < -tol * p_max) or np.any(p > p_max * (1.0 + tol)):
        return None
    return np.clip(p, 0.0, p_max)


def maxmin_power(terms: se.SinrTerms, weights, p_max, p_hat, tau_p, sigma2,
                 eps=1e-3, t_max=None) -> PowerSolution:
    """Bisection max-min SINR power control for fixed CPU weights.

    Brackets the best common SINR in [0, t_max] (default twice the full
    power maximum) and bisects on the feasibility of the linear system
    p_k signal_k >= t (d[k] @ p + noise_k), 0 <= p <= p_max. Terminates
    when the bracket is narrower than eps.
    """
    coeffs = sinr_coefficients(terms, weights, p_hat, tau_p, sigma2)
    if np.any(coeffs.signal <= 0):
        raise se.SinrComputationError("zero signal coefficient in power control")
    full = np.full(coeffs.signal.shape[0], float(p_max))
    gamma_full = coeffs.gamma(full)
    t_lo, t_hi = 0.0, float(2.0 * gamma_full.max()) if t_max is None else float(t_max)
    if t_hi <= 0:
        return PowerSolution(p=full, t_star=0.0, iterations=0, bracket=(0.0, 0.0))
    best_p = full
    iterations = 0
    while t_hi - t_lo >= eps:
        t = 0.5 * (t_lo + t_hi)
        p = _feasible_powers(coeffs, t, p_max)
        iterations += 1
        if p is None:
            t_hi = t
        else:
            t_lo = t
            best_p = p
    if t_lo > 0:
        p = _feasible_powers(coeffs, t_lo, p_max)
        if p is not None:
            best_p = p
    return PowerSolution(p=best_p, t_star=t_lo, iterations=iterations,
                         bracket=(t_lo, t_hi))
