# simcf/pipeline.py
# Convenience wiring of the full statistics chain for one drop: geometry and
# diffraction matrices, effective channel statistics for a phase tensor,
# estimation statistics under the network's pilot map, and closed-form terms.
# Heavy fixed pieces are computed once and reused across phase updates: the
# base correlation once per stack, the steering vectors once per drop (or
# per batch of drops, on a leading drop axis). The networks of one drop whose
# stacks differ (the pitches of a sweep) form a NetworkGroup, whose stack
# matrices carry a leading network axis so one block build serves them all.

from dataclasses import dataclass, field, replace

import numpy as np

from . import se
from .channel import (ChannelState, block_channel_state, build_channel_state,
                      steering_units)
from .config import SystemConfig
from .estimation import EstimationState, PilotMap, build_estimation_state
from .scenario import Drop
from .sim_physics import (DiffractionSet, SimGeometry, base_correlation,
                          random_phase_tensor, stack_for)


@dataclass
class NetworkModel:
    """All fixed, phase-independent state of one network drop, or of a
    batch of drops (a Drop with a leading drop axis): steering (D, L, K, N),
    the pilot map (optimize.allocate_pilots, under which every estimation
    state of the model is built), phases and every state built from them
    then carry the drop axis. base_corr (N, N) is the stack's."""
    cfg: SystemConfig
    drop: Drop
    pilots: PilotMap
    geom: SimGeometry
    dset: DiffractionSet
    base_corr: np.ndarray = field(repr=False)
    steering: np.ndarray = field(repr=False)

    @classmethod
    def from_drop(cls, drop: Drop, pilots: PilotMap) -> "NetworkModel":
        cfg = drop.cfg
        geom, dset = stack_for(cfg)
        return cls(cfg=cfg, drop=drop, pilots=pilots, geom=geom, dset=dset,
                   base_corr=base_correlation(cfg),
                   steering=steering_units(geom, drop))

    def at(self, i):
        """The model of drop i of a batch."""
        return replace(self, drop=self.drop.at(i), pilots=self.pilots.at(i),
                       steering=self.steering[i])

    def random_phases(self, rng):
        return random_phase_tensor(self.cfg.L, self.cfg.M, self.cfg.N, rng)

    def channel_state(self, phases) -> ChannelState:
        """Statistics of every AP for a phase tensor (L, M, N), or (D, L, M,
        N) for a batch of drops."""
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


_SHARED = ("L", "K", "U", "M", "N", "tau_c", "tau_p", "sigma2")


@dataclass
class NetworkGroup:
    """Networks of one drop that differ only in their stacks (the pitches
    of a sweep): the models, and their stack matrices on a leading network
    axis, w_first (S, N, U), w_layer (S, M-1, N, N), base_corr (S, N, N)
    and steering (S, L, K, N). base_corr is stored complex, as the block
    builds multiply it with complex coefficients, so they do not convert it
    per block."""
    models: tuple
    dset: DiffractionSet = field(repr=False)
    base_corr: np.ndarray = field(repr=False)
    steering: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, models) -> "NetworkGroup":
        """The group of models. Raises ValueError unless they share the
        drop's gains and powers, the pilot map (assignment, pilot powers and
        tau_p) and every dimension, tau_c, tau_p and sigma2."""
        models = tuple(models)
        first = models[0]
        for model in models[1:]:
            a, b = first.drop, model.drop
            if not (all(getattr(first.cfg, name) == getattr(model.cfg, name)
                        for name in _SHARED)
                    and all(np.array_equal(getattr(a, name), getattr(b, name))
                            for name in ("beta_los", "beta_nlos", "p"))
                    and all(np.array_equal(getattr(first.pilots, name),
                                           getattr(model.pilots, name))
                            for name in ("pilot_of", "p_hat", "tau_p"))):
                raise ValueError("a network group needs models of one drop "
                                 "that differ only in their stacks")
        dset = DiffractionSet(
            w_first=np.stack([model.dset.w_first for model in models]),
            w_layer=np.stack([model.dset.w_layer for model in models]))
        return cls(models=models, dset=dset,
                   base_corr=np.stack([model.base_corr for model in models]
                                      ).astype(complex),
                   steering=np.stack([model.steering for model in models]))

    def block_terms(self, l, shifts, rows, cols, powers) -> se.SinrTerms:
        """Terms of AP l alone under each probe of one block in every
        network: network s has AP l's phasors shifts[s] (M, N), e^{j phi},
        with the atoms (rows, cols) turned by each of the B steps whose
        powers e^{j d step} are powers (B, >= D + 1) (channel.
        block_channel_state). The AP axis of the result runs over the S B
        (network, probe) pairs, network-major."""
        model = self.models[0]
        state = block_channel_state(model.drop, self.dset, l, shifts, rows,
                                    cols, powers, self.base_corr,
                                    self.steering)
        return se.sinr_terms(state, model.estimation_state(state))
