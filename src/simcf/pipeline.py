# simcf/pipeline.py
# Convenience wiring of the full statistics chain for one drop: geometry and
# diffraction matrices, effective channel statistics for a phase tensor,
# estimation statistics for a pilot assignment, and closed-form terms.
# Heavy fixed pieces (steering vectors, base correlation) are computed once
# per drop and reused across phase updates.

from dataclasses import dataclass, field

import numpy as np

from . import se
from .channel import ChannelState, steering_units, build_channel_state, sinc_correlation
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

    def channel_state(self, phases, ap_indices=None) -> ChannelState:
        """Statistics of every AP for a phase tensor (L, M, N), or of the
        listed APs only (row i of the result is AP ap_indices[i])."""
        if ap_indices is not None:
            phases = np.asarray(phases)[ap_indices]
        return self._channel_state(phases, ap_indices)

    def _channel_state(self, phases, ap_indices):
        return build_channel_state(self.cfg, self.drop, self.geom, self.dset,
                                   phases, base_corr=self.base_corr,
                                   ap_indices=ap_indices,
                                   steering=self.steering)

    def estimation_state(self, state: ChannelState, pilot_of) -> EstimationState:
        return build_estimation_state(state, pilot_of, self.cfg.pilot_powers(),
                                      self.cfg.tau_p, self.cfg.sigma2)

    def terms(self, phases, pilot_of) -> se.SinrTerms:
        return self._terms(self.channel_state(phases), pilot_of)

    def ap_terms(self, l, slices, pilot_of) -> se.SinrTerms:
        """Terms of AP l alone under each (M, N) phase slice of slices
        (B, M, N), built as one batch: the AP axis of the result runs over
        the B slices."""
        state = self._channel_state(slices, [l] * len(slices))
        return self._terms(state, pilot_of)

    def _terms(self, state, pilot_of):
        return self.terms_from(state, self.estimation_state(state, pilot_of),
                               pilot_of)

    def terms_from(self, state, est, pilot_of) -> se.SinrTerms:
        """Terms of a (channel state, estimation state) pair, such as the
        one states returns."""
        return se.sinr_terms(state, est, pilot_of, self.cfg.pilot_powers(),
                             self.cfg.tau_p)

    def states(self, phases, pilot_of):
        """(channel state, estimation state) for Monte-Carlo use."""
        state = self.channel_state(phases)
        return state, self.estimation_state(state, pilot_of)
