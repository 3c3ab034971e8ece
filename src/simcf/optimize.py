# simcf/optimize.py
# The three system-design routines: greedy interference-aware pilot
# allocation, blockwise phase-probing wave-domain beamforming driven by the
# closed-form sum SE, and max-min power control for fixed CPU weights. The
# phase search runs the networks of one stacked NetworkModel at once, each
# with its own drop, pilot map and stack, and keeps that one model for its
# life: a probe batch marks its failing probes instead of raising, and a
# network raises only for a failing probe its search reaches. A probe block
# does only what its probes change: the search keeps the unit phasors of
# its phases and the visited AP's layer matrices with those phasors folded
# in, rewrites only the turned atoms' entries and rows on an accept, forms
# the step powers e^{j d step} and their pair products once, forms what
# every block of an AP reads (the AP's LoS amplitudes and the NLoS-gain
# constants of its parts: pipeline.BlockContext) once per AP visit, and
# writes each probe's SINR parts from the turned AP's block statistics in
# closed form (NetworkModel.block_factors). The power control is a
# bisection whose midpoints are decided by the closed-form
# Perron-Frobenius optimum, a linear solve deciding only those within a
# guard band of it, so it returns what solving every midpoint returns.
# Pilot allocation and power control run on the leading drop (or setting)
# axis of a batch in one pass.

import bisect
import contextlib
import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import se
from .channel import probe_powers
from .config import is_count
from .estimation import EstimationError, PilotMap, pilot_map
from .pipeline import NetworkModel
from .scenario import Drop
from .sim_physics import fold_phasors, wrap_phases

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Pilot allocation
# ---------------------------------------------------------------------------

def pilot_interference(drop: Drop, k, assigned, pilot_of):
    """Contamination cost of giving each pilot to UE k, shape (tau_p,), or
    (D, tau_p) for a batch of drops with assignments pilot_of (D, K).

    The cost of a pilot is the sum over the UEs j in assigned that hold it
    and over all APs l of beta_lk * beta_lj (phase independent), added UE
    by UE in index order. A UE of assigned without a pilot (-1 in pilot_of)
    raises ValueError.
    """
    cost = (drop.beta[..., :, k, None] * drop.beta[..., :, assigned]).sum(axis=-2)
    held = np.asarray(pilot_of)[..., assigned]
    if np.any(held < 0):
        raise ValueError("a UE of assigned holds no pilot")
    pilots = np.arange(drop.cfg.tau_p)
    out = np.zeros((*cost.shape[:-1], drop.cfg.tau_p))
    for j in range(cost.shape[-1]):
        out += cost[..., j, None] * (held[..., j, None] == pilots)
    return out


def allocate_pilots(drop: Drop) -> PilotMap:
    """Greedy contamination-minimizing pilot assignment, as the pilot map
    at the config's pilot powers and tau_p: (K,) for one drop and (D, K)
    for a batch of drops, each drop's greedy step run at once.

    The first tau_p UEs take pilots 0..tau_p-1; every further UE (in index
    order) takes the pilot with the least accumulated interference toward
    the UEs already holding it, ties broken by the lowest pilot index.
    """
    cfg = drop.cfg
    pilot_of = np.full(drop.beta.shape[:-2] + (cfg.K,), -1, dtype=int)
    head = min(cfg.tau_p, cfg.K)
    pilot_of[..., :head] = np.arange(head)
    for k in range(head, cfg.K):
        ui = pilot_interference(drop, k, np.arange(k), pilot_of)
        pilot_of[..., k] = np.argmin(ui, axis=-1)   # the lowest index on ties
    return pilot_map(pilot_of, cfg.pilot_powers(), cfg.tau_p)


# ---------------------------------------------------------------------------
# Wave-domain beamforming
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BeamformingConfig:
    """Knobs of the blockwise phase-probing search."""
    step_size: float = np.pi / 8     # phase increment per probe, rad
    max_probes: int = 15             # probes per block (a 16th at pi/8 is 2 pi)
    min_gain: float = 1e-3           # required sum-SE improvement, bit/s/Hz
    block_size: int = 4              # meta-atoms updated jointly
    sweeps: int = 1                  # outer passes over all APs
    decoder: str = "lsfd"

    def __post_init__(self):
        if not 0.0 < self.step_size < 2.0 * np.pi:
            raise ValueError("step_size must lie in (0, 2 pi)")
        for name in ("max_probes", "block_size", "sweeps"):
            v = getattr(self, name)
            if not is_count(v) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got "
                                 f"{v!r}")
        if not self.min_gain >= 0:      # NaN fails too; inf accepts nothing
            raise ValueError(f"min_gain must be nonnegative, got "
                             f"{self.min_gain!r}")
        if self.decoder not in se.DECODERS:
            raise ValueError(f"decoder must be one of {se.DECODERS}")


@dataclass
class TraceRow:
    iteration: int
    objective: float
    accepted: bool


class Trace(Sequence):
    """Objective trace of one phase search: row 0 holds the start value and
    row i the objective after probe i and whether probe i was accepted.
    Only the accepted probes are stored; each row is made on access."""

    def __init__(self, start):
        self._accepts, self._values, self._len = [0], [start], 1

    def record(self, n_rejected, accepted=None):
        """Append n_rejected rejected probes, then an accepted one with the
        objective accepted unless that is None."""
        self._len += n_rejected
        if accepted is not None:
            self._accepts.append(self._len)
            self._values.append(accepted)
            self._len += 1

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._len))]
        i = range(self._len)[i]
        j = bisect.bisect_right(self._accepts, i) - 1
        return TraceRow(i, self._values[j], j > 0 and self._accepts[j] == i)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


class SumSeObjective:
    """Closed-form sum SE of each network of one stacked model
    (pipeline.NetworkModel.stack, once, in __init__), with batched probing
    of one AP in all of them, under the pilot maps and data powers the
    models carry.

    Only the networks' per-AP SINR parts (se.sinr_parts) are kept,
    (S, ..., L), with the phases (S, L, M, N), their unit phasors shifts
    and each network's best value so far, best (S,). Invariant: shifts
    equals np.exp(1j * phases) bit for bit; set_phases forms it and a
    commit rewrites only the atoms it turns. probe turns a block of AP l's
    atoms by each of B steps in every network and evaluates the S B probes
    as one batch: the factors of AP l's parts under every probe
    (NetworkModel.block_factors) and the parts (se.factor_parts), each
    added to its network's sums of the parts over the other APs, from which
    the SINR follows (se.sinr_from_parts: the Woodbury Rayleigh quotient
    under LSFD, the all-ones weighting under EGCD); each check on the way
    marks the probes it fails (_probe). What a block reads that no probe
    changes is formed apart from the blocks: the step powers and their pair
    products (channel.probe_powers) once per distinct steps array, so once
    per search; and AP l's block context (NetworkModel.block_context), its
    other-AP sums and its stack with its phasors folded in
    (sim_physics.FoldedStack, _folded) once per AP visit, again after
    set_phases. improve commits in each network the first probe that beats
    its best by writing its column into AP l's parts, or raises for a
    failing probe before it. Every network's values and errors are those
    of a search on that network alone, and every probe's those of a
    one-probe call, bit for bit.
    """

    def __init__(self, models, decoder="lsfd"):
        self.model = NetworkModel.stack(models)
        self.n_nets = len(self.model.steering)
        self.cfg = self.model.cfg
        self.p = self.model.drop.p
        self.decoder = decoder
        self.phases = self.shifts = self.parts = self.best = None
        self._others = self._context = self._fold = self._powers = None

    def set_phases(self, phases):
        """Rebuild every network at the phases (S, L, M, N); returns best."""
        self.phases = np.array(phases, dtype=float)
        self.parts = list(se.sinr_parts(self.model.terms(self.phases),
                                        self.decoder, self.p))
        # after the build, which holds every network's temporaries at once
        self.shifts = np.exp(1j * self.phases)
        self._others = self._context = self._fold = None
        self.best = self._sum_se([part.sum(axis=-1) for part in self.parts])
        return self.best.copy()

    def _sum_se(self, sums, ok=None):
        gamma = se.sinr_from_parts(sums, self.decoder, self.p, ok=ok)
        # summed on a C-contiguous array, so that every probe adds its UEs
        # in one order, whatever the layout of the sums
        return np.ascontiguousarray(se.se_from_sinr(
            gamma, self.cfg.tau_c, self.cfg.tau_p)).sum(axis=-1)

    def _other_sums(self, l):
        """Sums of each part over the APs other than l, (S, ..., 1): the
        AP axis kept, where probe puts the probes."""
        if self._others is None or self._others[0] != l:
            others = np.arange(self.cfg.L) != l
            self._others = (l, [(part @ others)[..., None]
                                for part in self.parts])
        return self._others[1]

    def _block_context(self, l):
        """AP l's block context in every network, formed again only for
        another AP."""
        if self._context is None or self._context[0] != l:
            self._context = (l, self.model.block_context(l))
        return self._context[1]

    def _folded(self, l):
        """AP l's stack in every network with its phasors folded in
        (sim_physics.fold_phasors), formed again only for another AP; a
        commit rewrites its turned rows. Only the visited AP's is held:
        S (M-1) N^2 complex entries, ~1 MiB for the four pitches of a
        table1 drop (M = 5, N = 64), so it grows with the networks
        searched at once."""
        if self._fold is None or self._fold[0] != l:
            self._fold = None       # the last AP's, before forming this one's
            self._fold = (l, fold_phasors(self.model.dset,
                                          self.shifts[:, l]))
        return self._fold[1]

    def _step_powers(self, steps):
        """channel.probe_powers of steps up to degree M, formed again only
        when steps differ from the last ones."""
        key = steps.tobytes()
        if self._powers is None or self._powers[0] != key:
            self._powers = (key, probe_powers(steps, self.cfg.M))
        return self._powers[1]

    def probe(self, l, rows, cols, steps):
        """(values (S, B), parts) with the atoms (rows, cols) of AP l turned
        by each of steps (B,) in every network: parts are the SINR parts of
        AP l under the probes, the networks leading and the B probes on the
        AP axis. A failing probe raises its typed error (_fail; the first
        in network-major order), as a full build at its phases does."""
        steps = np.asarray(steps, dtype=float)
        values, parts, estimated, valid = self._probe(
            l, rows, cols, self._step_powers(steps))
        if not valid.all():
            self._fail(l, *np.argwhere(~valid)[0], estimated)
        return values, parts

    def _probe(self, l, rows, cols, powers):
        """probe at the ProbePowers of its steps, marking failing probes
        instead of raising: (values, parts, estimated, valid), estimated
        (S, B) True where the probe's pilot covariances are positive
        definite, valid where its SINR checks pass as well. A failing
        probe's values and parts are finite and meaningless."""
        estimated = np.ones((self.n_nets, len(powers)), dtype=bool)
        factors = self.model.block_factors(self._block_context(l),
                                           self._folded(l), rows, cols,
                                           powers, estimated)
        valid = estimated.copy()
        parts = se.factor_parts(*factors, self.decoder, valid)
        sums = [other + new for other, new in zip(self._other_sums(l), parts)]
        # the networks and probes first, as candidates of sinr_from_parts
        # (transpose, since np.moveaxis would double the cost of this step)
        values = self._sum_se([s.transpose(0, -1, *range(1, s.ndim - 1))
                               for s in sums], valid)
        return values, parts, estimated, valid

    def _fail(self, l, s, i, estimated):
        """Raise for probe i of network s at AP l: EstimationError if its
        pilot covariance failed, else SinrComputationError."""
        where = f"at AP {l}, probe {i + 1} of {estimated.shape[1]}, network {s}"
        if not estimated[s, i]:
            raise EstimationError(
                f"pilot covariance is singular or indefinite {where}")
        raise se.SinrComputationError(
            f"nonpositive {self.decoder.upper()} SINR denominator {where}")

    def improve(self, l, rows, cols, steps, min_gain):
        """Commit in each network the first probe whose value exceeds its
        best by more than min_gain, its best becoming best + (value - best)
        as a probe-by-probe search forms it; returns the index of that probe
        per network, -1 where no probe does. The probes of all networks run
        as one batch (_probe), and a failing probe raises only where a
        network reaches it (_commit)."""
        steps = np.asarray(steps, dtype=float)
        probed = self._probe(l, rows, cols, self._step_powers(steps))
        return self._commit(l, rows, cols, steps, min_gain, *probed)

    def _commit(self, l, rows, cols, steps, min_gain, values, parts,
                estimated, valid):
        """Walk each network's probes in order: the first that fails or
        clears its best decides. A failing one raises (_fail, the first
        such network) before anything is committed, as that network's
        search alone does. Otherwise each deciding network writes its
        probe's column of the parts, its turned phases and phasors (on its
        AP's (M, N) slice) and its best through basic indexing, and the
        turned rows of AP l's folded stack are rewritten for all of them at
        once; returns the deciding probes, -1 where none."""
        decides = (values - self.best[:, None] > min_gain) | ~valid
        hits = np.where(decides.any(axis=1), decides.argmax(axis=1), -1)
        won = [(s, i) for s, i in enumerate(hits.tolist()) if i >= 0]
        for s, i in won:
            if not valid[s, i]:
                self._fail(l, s, i, estimated)
        for s, i in won:
            for part, new in zip(self.parts, parts):
                part[s, ..., l] = new[s, ..., i]
            phases = self.phases[s, l]
            turned = wrap_phases(phases[rows, cols] + steps[i])
            phases[rows, cols] = turned
            self.shifts[s, l][rows, cols] = np.exp(1j * turned)
            best = self.best[s]
            self.best[s] = best + (values[s, i] - best)
        if won:
            self._folded(l).refold(self.model.dset, self.shifts[:, l], rows,
                                   cols)
        return hits


def optimize_beamforming(models, init_phases,
                         cfg: BeamformingConfig = BeamformingConfig(),
                         rng=None):
    """Blockwise phase search maximizing the closed-form sum SE, run for
    every network of a batch at once.

    models are networks of one network each, searched together (the
    pitches of a drop in a pitch sweep); a single network is a batch of
    one. Each keeps its own drop, pilot map and stack; they must share the
    dimensions, tau_c, tau_p, sigma2 and the powers (else ValueError;
    NetworkModel.stack). init_phases is (L, M, N) or one per network
    (S, L, M, N).

    For each AP in turn, meta-atom indices are visited in a seeded random
    permutation in blocks of block_size; the networks share the
    permutation. Probe i of a block (i = 1 .. max_probes) adds
    i * step_size to the block's phases, wrapping modulo 2 pi. In each
    network the first probe improving its objective by more than min_gain
    is committed and the search moves to the next block. Each objective
    trace is non-decreasing; with no improving probe a network's input
    phases survive. All probes of a block, in all networks, are evaluated
    as one batch (SumSeObjective.improve), so each network's phases and
    trace are those of evaluating probe after probe on that network alone.

    Returns one (phases, trace) per model, trace a Trace: one TraceRow
    per probe.
    """
    rng = np.random.default_rng(rng)
    objective = SumSeObjective(models, decoder=cfg.decoder)
    n_aps, n_layers, n_atoms = (objective.cfg.L, objective.cfg.M,
                                objective.cfg.N)
    objective.set_phases(wrap_phases(np.broadcast_to(
        np.asarray(init_phases, dtype=float),
        (objective.n_nets, n_aps, n_layers, n_atoms))))
    steps = np.arange(1, cfg.max_probes + 1) * cfg.step_size
    traces = [Trace(best) for best in objective.best.tolist()]
    for _ in range(cfg.sweeps):
        for l in range(n_aps):
            order = rng.permutation(n_layers * n_atoms)
            for start in range(0, order.size, cfg.block_size):
                block = order[start:start + cfg.block_size]
                rows, cols = np.unravel_index(block, (n_layers, n_atoms))
                hits = objective.improve(l, rows, cols, steps, cfg.min_gain)
                for trace, hit, best in zip(traces, hits.tolist(),
                                            objective.best.tolist()):
                    if hit < 0:
                        trace.record(steps.size)
                    else:
                        trace.record(hit, best)
    return list(zip(objective.phases, traces))


# ---------------------------------------------------------------------------
# Max-min power control
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSolution:
    """Outcome of max-min power control for one setting: t_star is the last
    bisection midpoint found feasible (0.0 if none), p the least powers
    meeting SINR >= t_star under the cap (full power if none), iterations
    the midpoints tested. Each field is that of a bisection solving the
    feasibility system at every midpoint (maxmin_power says when not).
    maxmin_power returns a list of them, one per setting."""
    p: np.ndarray          # (K,) transmit powers, W
    t_star: float          # certified min-SINR lower bound
    iterations: int
    bracket: tuple         # final (t_min, t_max)


# Bisection midpoints t with |t rho - 1| up to this, rho = 1 / t* the
# closed-form optimum's inverse, are decided by the linear solve: there the
# solve's tolerance (1e-9 of p_max) and the rounding of eigvals and solve
# can disagree with t rho < 1.
_GUARD_BAND = 1e-6


def _settings(coeffs, i):
    """The coefficients of the settings i of the leading axis of coeffs."""
    return se.SinrCoefficients(signal=coeffs.signal[i], d=coeffs.d[i],
                               noise=coeffs.noise[i])


def _feasible_powers(coeffs, t, p_max, tol=1e-9):
    """Least power vector meeting gamma_k >= t, all NaN if infeasible.

    For fixed weights the constraints p_k signal_k >= t (d[k] @ p + noise_k)
    are linear; their least solution solves (I - t D~) p = t n~ with
    D~ = d / signal and n~ = noise / signal. The interference matrix D~ is
    entrywise nonnegative, so whenever the target t exceeds what the network
    can support the solve yields a negative component (Perron-Frobenius),
    and a component above p_max certifies infeasibility under the cap.
    (A fixed-point sweep finds the same point but its contraction ratio
    degenerates to 1 at the feasibility boundary; the direct solve is exact.)
    Leading axes of the coefficients and of t (...) are settings, solved in
    one stacked solve; the result is (..., K), one row per setting. A row
    the solve leaves non-finite counts as infeasible (maxmin_power rejects
    non-finite coefficients before any solve).
    """
    t = np.asarray(t, dtype=float)
    n_ue = coeffs.signal.shape[-1]
    a = (np.eye(n_ue)
         - t[..., None, None] * coeffs.d / coeffs.signal[..., :, None])
    b = t[..., None] * coeffs.noise / coeffs.signal
    try:
        p = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:   # a singular system: solve each alone
        p = np.full(b.shape, np.nan)
        for i in np.ndindex(b.shape[:-1]):
            with contextlib.suppress(np.linalg.LinAlgError):
                p[i] = np.linalg.solve(a[i], b[i])
    bad = ((p < -tol * p_max) | (p > p_max * (1.0 + tol))).any(axis=-1)
    p = np.clip(p, 0.0, p_max)
    p[bad] = np.nan
    return p


def _perron_root(coeffs, p_max):
    """max_k rho(D~ + n~ e_k^T / p_max), the inverse of the largest common
    SINR the per-UE cap p_max allows, with D~ and n~ as in _feasible_powers,
    per setting of the leading axes (...).

    Each rho is the largest real part of the matrix's eigenvalues: the
    Perron root of a nonnegative matrix, which d's diagonal (the self-term
    correction, rounded) can leave slightly below 0. All K matrices of all
    settings go through one stacked eigvals.
    """
    n_ue = coeffs.signal.shape[-1]
    ues = np.arange(n_ue)
    a = np.repeat((coeffs.d / coeffs.signal[..., :, None])[..., None, :, :],
                  n_ue, axis=-3)
    a[..., ues, :, ues] += coeffs.noise / coeffs.signal / p_max  # column k of a_k
    return np.linalg.eigvals(a).real.max(axis=(-2, -1))


def maxmin_power(coeffs: se.SinrCoefficients, p_max, eps=1e-3):
    """Max-min SINR power control for fixed CPU weights, as a bisection
    over the feasibility of the linear system
    p_k signal_k >= t (d[k] @ p + noise_k), 0 <= p <= p_max, on the
    coefficients of se.sinr_coefficients.

    The bisection brackets the best common SINR in [0, twice the full-power
    maximum] and halves the bracket until it is narrower than eps, which
    must be > 0. Its outcome is fixed by which midpoints are feasible, and
    for fixed weights the feasible targets have a closed form
    (Perron-Frobenius; Tan, Chiang and Srikant, IEEE TSP 2011; Zheng et al.,
    IEEE TIT 2016). With D~ >= 0 and n~ > 0 as in _feasible_powers, the
    least solution t (I - t D~)^-1 n~ is nonnegative and grows with t
    below 1 / rho(D~), and its largest entry reaches p_max exactly at
    t* = 1 / rho, rho = max_k rho(D~ + n~ e_k^T / p_max); so t is feasible
    iff t rho < 1. rho is computed once (_perron_root), and each midpoint
    outside the guard band |t rho - 1| <= _GUARD_BAND is decided by that
    test, with no solve. A midpoint inside the band, where the solve's
    1e-9 tolerance and its rounding can decide otherwise, is decided by the
    solve (_feasible_powers), as a bisection that solves every midpoint
    decides it. The midpoints, the bracket, t_star and the iteration count
    are then that bisection's, and one solve at the last feasible midpoint
    gives the powers it keeps. (When the noise is below ~1e-9 of the
    interference at p_max, the solve's -1e-9 p_max slack also accepts
    targets above 1 / rho(D~), whose least solutions clip to zero power;
    the closed form rejects them, so t_star stays below t* (1 + band).)

    Leading axes of the coefficients (...) are settings, solved together:
    one stacked eigvals gives every rho, each setting halves its own
    bracket until it is narrower than eps, guard-band midpoints are solved
    setting by setting, and one stacked solve gives the powers of every
    setting with a feasible midpoint (full power for the others, as for a
    setting whose bracket is empty). Returns a list of PowerSolutions, one
    per setting in C order of the leading axes (a list of one for the
    coefficients of one setting, signal (K,)); each equals the solution of
    that setting alone.

    Raises ValueError for eps not > 0, and SinrComputationError for a
    non-finite coefficient, a nonpositive signal coefficient or full-power
    SINR denominator, or when the solve rejects the last midpoint the
    closed form accepted.
    """
    if not eps > 0:
        raise ValueError(f"bisection tolerance eps must be > 0, got {eps}")
    if not all(np.isfinite(x).all()
               for x in (coeffs.signal, coeffs.d, coeffs.noise)):
        raise se.SinrComputationError("non-finite coefficient in power control")
    if np.any(coeffs.signal <= 0):
        raise se.SinrComputationError("zero signal coefficient in power control")
    n_ue = coeffs.signal.shape[-1]
    full = np.full(n_ue, float(p_max))
    t_hi = (2.0 * coeffs.sinr(full).max(axis=-1)).reshape(-1)
    flat = se.SinrCoefficients(signal=coeffs.signal.reshape(-1, n_ue),
                               d=coeffs.d.reshape(-1, n_ue, n_ue),
                               noise=coeffs.noise.reshape(-1, n_ue))
    empty = t_hi <= 0
    t_hi[empty] = 0.0
    rho = np.zeros_like(t_hi)
    rho[~empty] = _perron_root(_settings(flat, ~empty), p_max)
    # each setting's bisection on Python floats, rounded as float64 arrays
    solved = []                     # (t_lo, t_hi, iterations) per setting
    for s, (hi, r) in enumerate(zip(t_hi.tolist(), rho.tolist())):
        lo, n = 0.0, 0
        while hi - lo >= eps:
            t = 0.5 * (lo + hi)
            n += 1
            if abs(t * r - 1.0) <= _GUARD_BAND:
                feasible = not np.isnan(
                    _feasible_powers(_settings(flat, s), t, p_max)).any()
            else:
                feasible = t * r < 1.0
            lo, hi = (t, hi) if feasible else (lo, t)
        solved.append((lo, hi, n))
    t_lo = np.array([lo for lo, _, _ in solved])
    p = np.tile(full, (t_hi.size, 1))
    found = t_lo > 0
    if found.any():
        p[found] = _feasible_powers(_settings(flat, found), t_lo[found], p_max)
    rejected = np.flatnonzero(np.isnan(p).any(axis=-1))
    if rejected.size:
        s = rejected[0]
        raise se.SinrComputationError(
            f"power control: no feasible powers at t = {float(t_lo[s])!r}, "
            f"which the closed form accepts (t rho < 1, rho = "
            f"{float(rho[s])!r})")
    return [PowerSolution(p=p[s], t_star=lo, iterations=n, bracket=(lo, hi))
            for s, (lo, hi, n) in enumerate(solved)]
