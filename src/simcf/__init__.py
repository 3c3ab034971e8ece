# simcf: uplink simulation and optimization engine for cell-free massive
# MIMO access points fronted by stacked programmable metasurfaces.

from .channel import ChannelState
from .config import ConfigError, SystemConfig
from .estimation import EstimationState, build_estimation_state
from .experiments import (AggregateResult, ExperimentResult, ExperimentSpec,
                          fig3_spec, run_experiment, table1_spec,
                          write_result_csv)
from .montecarlo import UatfEstimate, uatf_monte_carlo
from .optimize import (BeamformingConfig, PowerSolution, allocate_pilots,
                       maxmin_power, optimize_beamforming)
from .pipeline import NetworkModel
from .scenario import (Drop, generate_drop, pathloss_db, rician_kappa,
                       rician_split)
from .se import (SinrTerms, egcd_weights, lsfd_weights, se_from_sinr,
                 sinr_from_weights, sinr_terms)
from .sim_physics import (DiffractionSet, SimGeometry, build_diffraction_set,
                          build_geometry, cascade_through_antennas,
                          random_phase_tensor, sinc_correlation, stack_for,
                          transfer_matrix, wrap_phases)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
