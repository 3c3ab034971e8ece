# simcf/pipeline.py
# Convenience wiring of the full statistics chain for one drop: geometry and
# diffraction matrices, effective channel statistics for a phase tensor,
# estimation statistics for a pilot assignment, and closed-form terms.
# Heavy fixed pieces (steering vectors, base correlation) are computed once
# per drop and reused across phase updates.

from dataclasses import dataclass, field

import numpy as np

from . import se
from .channel import (ChannelState, block_channel_state, build_channel_state,
                      sinc_correlation, steering_units)
from .config import SystemConfig
from .estimation import EstimationState, build_estimation_state
from .scenario import Drop
from .sim_physics import DiffractionSet, SimGeometry, random_phase_tensor, stack_for


@dataclass
class NetworkModel:
    """All fixed, phase-independent state of one network drop."""
    cfg: SystemConfig
    drop: Drop
    geom: SimGeometry
    dset: DiffractionSet
    base_corr: np.ndarray = field(repr=False)
    steering: np.ndarray = field(repr=False)

    @classmethod
    def from_drop(cls, drop: Drop) -> "NetworkModel":
        cfg = drop.cfg
        geom, dset = stack_for(cfg)
        base_corr = sinc_correlation(geom.output_grid, cfg.wavelength)
        steering = steering_units(geom, drop)
        return cls(cfg=cfg, drop=drop, geom=geom, dset=dset,
                   base_corr=base_corr, steering=steering)

    def random_phases(self, rng):
        return random_phase_tensor(self.cfg.L, self.cfg.M, self.cfg.N, rng)

    def channel_state(self, phases) -> ChannelState:
        """Statistics of every AP for a phase tensor (L, M, N)."""
        return build_channel_state(self.drop, self.dset, phases,
                                   self.base_corr, self.steering)

    def estimation_state(self, state: ChannelState, pilot_of) -> EstimationState:
        return build_estimation_state(state, pilot_of, self.cfg.pilot_powers(),
                                      self.cfg.tau_p, self.cfg.sigma2)

    def terms(self, phases, pilot_of) -> se.SinrTerms:
        return self._terms(self.channel_state(phases), pilot_of)

    def block_terms(self, l, base, rows, cols, steps, pilot_of) -> se.SinrTerms:
        """Terms of AP l alone under each probe of one block: its phases
        base (M, N) with the atoms (rows, cols) turned by each of steps
        (B,). The AP axis of the result runs over the B probes."""
        state = block_channel_state(self.drop, self.dset, l, base, rows, cols,
                                    steps, self.base_corr, self.steering)
        return self._terms(state, pilot_of)

    def _terms(self, state, pilot_of):
        return se.sinr_terms(state, self.estimation_state(state, pilot_of))

    def states(self, phases, pilot_of):
        """(channel state, estimation state) of a phase tensor, for
        se.sinr_terms and the Monte-Carlo oracle."""
        state = self.channel_state(phases)
        return state, self.estimation_state(state, pilot_of)
