# simcf/pipeline.py
# Convenience wiring of the full statistics chain: diffraction matrices,
# effective channel statistics for a phase tensor, estimation statistics
# under the network's pilot map, and closed-form terms, for one network or
# a batch of networks on a leading axis, each with its own drop, pilot map
# and stack. The drops of a sweep value share their stack as a zero-copy
# view; the networks of a phase search are stacked. Heavy fixed pieces are
# computed once: the base correlation per stack (real), the steering per
# drop. A probe block of one AP takes a shorter chain: the AP's block
# statistics and, from them, the factors of its SINR parts
# (NetworkModel.block_factors), with what no probe changes (the AP's LoS
# amplitudes and its BlockConstants: BlockContext) formed once per AP visit
# and passed in.

from dataclasses import dataclass, field, replace

import numpy as np

from . import se
from .channel import (ChannelState, ProbePowers, block_channel_state,
                      build_channel_state, steering_units)
from .config import SystemConfig
from .estimation import (EstimationState, PilotMap, build_estimation_state,
                         pilot_map)
from .scenario import Drop
from .sim_physics import (DiffractionSet, FoldedStack, base_correlation,
                          random_phase_tensor, stack_for)


@dataclass(frozen=True)
class BlockContext:
    """What every probe block of AP ap reads that its probes do not change,
    in every network of a model (NetworkModel.block_context): the AP's LoS
    amplitudes amp = sqrt(beta_los) times the unit steering (..., K, N)
    and its se.BlockConstants at the drop's powers. A phase search forms it
    once per AP visit, for all of its networks at once."""
    ap: int
    amp: np.ndarray
    constants: se.BlockConstants


@dataclass
class NetworkModel:
    """All fixed, phase-independent state of one network, or of a batch of
    networks on a leading axis on which every per-network field may vary:
    the drop's arrays, the pilot map (optimize.allocate_pilots; a batch's
    PilotMap), the matrices of dset, base_corr (..., N, N) and steering
    (..., L, K, N). Phases and every state built from them then carry the
    axis. cfg is the first network's: the batch shares its dimensions,
    tau_c, tau_p, sigma2 and powers, and each stack is its matrices."""
    cfg: SystemConfig
    drop: Drop
    pilots: PilotMap
    dset: DiffractionSet
    base_corr: np.ndarray = field(repr=False)
    steering: np.ndarray = field(repr=False)

    @classmethod
    def from_drop(cls, drop: Drop, pilots: PilotMap) -> "NetworkModel":
        """The model of a drop, or of a batch of drops of one config, whose
        stack is then a zero-copy broadcast view on the network axis."""
        cfg = drop.cfg
        geom, dset = stack_for(cfg)
        base_corr = base_correlation(cfg)
        lead = drop.beta.shape[:-2]
        if lead:
            dset = DiffractionSet(*(np.broadcast_to(w, lead + w.shape)
                                    for w in (dset.w_first, dset.w_layer)))
            base_corr = np.broadcast_to(base_corr, lead + base_corr.shape)
        return cls(cfg=cfg, drop=drop, pilots=pilots, dset=dset,
                   base_corr=base_corr, steering=steering_units(geom, drop))

    @classmethod
    def stack(cls, models) -> "NetworkModel":
        """The batch of models, each of one network, on a new leading axis.
        Raises ValueError unless they share every dimension, tau_c, tau_p,
        sigma2, the data and the pilot powers. base_corr stays real, as
        from_drop keeps it: a block build multiplies it into the float view
        of its coefficients, and the full build's matmul converts it."""
        models = tuple(models)
        if len({(m.cfg.L, m.cfg.K, m.cfg.U, m.cfg.M, m.cfg.N, m.cfg.tau_c,
                 m.cfg.tau_p, m.cfg.sigma2, tuple(m.drop.p),
                 tuple(m.pilots.p_hat)) for m in models}) > 1:
            raise ValueError("the networks of a batch must share their "
                             "dimensions, tau_c, tau_p, sigma2 and powers")
        first = models[0]

        def stacked(get):
            return np.stack([get(model) for model in models])

        dset = DiffractionSet(w_first=stacked(lambda m: m.dset.w_first),
                              w_layer=stacked(lambda m: m.dset.w_layer))
        return cls(cfg=first.cfg,
                   drop=Drop.stack([model.drop for model in models]),
                   pilots=pilot_map(stacked(lambda m: m.pilots.pilot_of),
                                    first.pilots.p_hat, first.pilots.tau_p),
                   dset=dset,
                   base_corr=stacked(lambda m: m.base_corr),
                   steering=stacked(lambda m: m.steering))

    def at(self, i):
        """Network i of a batch; a slice i keeps the network axis."""
        return replace(self, drop=self.drop.at(i), pilots=self.pilots.at(i),
                       dset=DiffractionSet(w_first=self.dset.w_first[i],
                                           w_layer=self.dset.w_layer[i]),
                       base_corr=self.base_corr[i], steering=self.steering[i])

    def random_phases(self, rng):
        return random_phase_tensor(self.cfg.L, self.cfg.M, self.cfg.N, rng)

    def channel_state(self, phases) -> ChannelState:
        """Statistics of every AP for a phase tensor (L, M, N), or (S, L, M,
        N) for a batch of networks."""
        return build_channel_state(self.drop, self.dset, phases,
                                   self.base_corr, self.steering)

    def estimation_state(self, state: ChannelState) -> EstimationState:
        return build_estimation_state(state, self.pilots, self.cfg.sigma2)

    def terms(self, phases) -> se.SinrTerms:
        state = self.channel_state(phases)
        return se.sinr_terms(state, self.estimation_state(state))

    def states(self, phases):
        """(channel state, estimation state) of a phase tensor, for
        se.sinr_terms and the Monte-Carlo oracle."""
        state = self.channel_state(phases)
        return state, self.estimation_state(state)

    def block_context(self, l) -> BlockContext:
        """The BlockContext of AP l in every network."""
        drop = self.drop
        return BlockContext(
            ap=l,
            amp=np.sqrt(drop.beta_los[..., l, :, None])
            * self.steering[..., l, :, :],
            constants=se.block_constants(drop.beta_nlos[..., l, :],
                                         self.pilots, drop.p,
                                         self.cfg.sigma2))

    def block_factors(self, context: BlockContext, folded: FoldedStack, rows,
                      cols, powers: ProbePowers, ok):
        """The se.block_factors (z, dg, Delta') of AP context.ap alone under
        each probe of one block in every network: network s has the AP's
        stack with its phasors folded in, folded (sim_physics.fold_phasors),
        with the atoms (rows, cols) turned by each of the B steps whose
        ProbePowers are powers (channel.block_channel_state). The networks
        lead and the B probes run last. A probe whose pilot covariance is
        not positive definite turns False in ok (S, B)."""
        state = block_channel_state(folded, rows, cols, powers,
                                    self.base_corr, context.amp)
        return se.block_factors(state, context.constants, ok)
