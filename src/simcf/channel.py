# simcf/channel.py
# Statistical channel objects seen through the stack: isotropic-scattering
# spatial correlation on the output layer, planar-wavefront steering toward
# every UE, and the effective antenna-domain statistics of every (AP, UE)
# link for a given phase tensor.

from dataclasses import dataclass

import numpy as np

from .scenario import Drop
from .sim_physics import DiffractionSet, SimGeometry, cascade_through_antennas


def sinc_correlation(points, wavelength):
    """Isotropic-scattering spatial correlation over a set of points.

    Entry (n, n') is sinc(2 d / lambda) with d the Euclidean distance, so
    points half a wavelength apart are exactly uncorrelated. Unit diagonal.
    """
    pts = np.asarray(points)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return np.sinc(2.0 * d / wavelength)


@dataclass(frozen=True)
class ChannelState:
    """Effective statistics of every (AP, UE) link for one phase tensor.

    The NLoS covariance factors as r[l, k] = beta_nlos[l, k] * s[l] because
    the scattering correlation on the output layer is common to all UEs; s
    is the per-AP antenna-domain projection of that common correlation.
    """
    h_bar: np.ndarray       # (L, K, U) complex
    s: np.ndarray           # (L, U, U) complex Hermitian PSD
    beta_nlos: np.ndarray   # (L, K)

    def r_all(self):
        """Materialized covariances, shape (L, K, U, U)."""
        return self.beta_nlos[:, :, None, None] * self.s[:, None, :, :]


def steering_units(geom: SimGeometry, drop: Drop):
    """Unit steering vectors of the output grid toward every UE, (L, K, N)."""
    directions = drop.link_directions()
    grid = geom.output_grid
    centered = grid - grid.mean(axis=0)
    advance = np.einsum("ni,lki->lkn", centered, directions)
    return np.exp(1j * 2.0 * np.pi * advance / drop.cfg.wavelength)


def build_channel_state(cfg, drop: Drop, geom: SimGeometry, dset: DiffractionSet,
                        phases, base_corr=None, ap_indices=None,
                        steering=None) -> ChannelState:
    """Effective statistics for a phase tensor (L, M, N).

    With ap_indices, phases holds one (M, N) slice per listed AP instead,
    shape (len(ap_indices), M, N), and row i of the result belongs to AP
    ap_indices[i]. An AP may be listed more than once: the phase optimizer
    lists AP l once per candidate slice of a probe batch. All rows go
    through one batched cascade.
    """
    if base_corr is None:
        base_corr = sinc_correlation(geom.output_grid, cfg.wavelength)
    if steering is None:
        steering = steering_units(geom, drop)
    aps = np.arange(cfg.L) if ap_indices is None else np.asarray(ap_indices)
    t = cascade_through_antennas(dset, phases)            # (n, N, U)
    proj = t.conj().swapaxes(-1, -2) @ base_corr @ t
    s = 0.5 * (proj + proj.conj().swapaxes(-1, -2))
    amp = np.sqrt(drop.beta_los[aps])[:, :, None] * steering[aps]   # (n, K, N)
    h_bar = amp @ t.conj()
    return ChannelState(h_bar=h_bar, s=s, beta_nlos=drop.beta_nlos[aps, :])
