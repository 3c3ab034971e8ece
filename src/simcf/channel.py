# simcf/channel.py
# Statistical channel objects seen through the stack: isotropic-scattering
# spatial correlation on the output layer, planar-wavefront LoS vectors, the
# effective antenna-domain statistics for a given phase tensor, and random
# channel sampling for Monte-Carlo use.

import logging
from dataclasses import dataclass

import numpy as np

from .scenario import Drop
from .sim_physics import DiffractionSet, SimGeometry, cascade_through_antennas

log = logging.getLogger(__name__)

PSD_CLIP_TOL = 1e-10


def psd_sqrt(mat, clip_tol=PSD_CLIP_TOL):
    """Hermitian square root with eigenvalue clipping at zero.

    Eigenvalues below -clip_tol (relative to the largest) indicate a broken
    input and raise; small negative values from roundoff are clipped and
    logged. Eigendecomposition is used instead of Cholesky because sinc
    correlation matrices are rank deficient at half-wavelength pitch.
    """
    w, v = np.linalg.eigh(mat)
    scale = max(float(w[-1]), 1.0e-300)
    if w[0] < -clip_tol * scale:
        raise np.linalg.LinAlgError(
            f"matrix is not PSD: min eigenvalue {w[0]:.3e} vs scale {scale:.3e}")
    if w[0] < 0:
        log.debug("clipped %d negative eigenvalues (most negative %.3e)",
                  int((w < 0).sum()), float(w[0]))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def sinc_correlation(points, wavelength):
    """Isotropic-scattering spatial correlation over a set of points.

    Entry (n, n') is sinc(2 d / lambda) with d the Euclidean distance, so
    points half a wavelength apart are exactly uncorrelated. Unit diagonal.
    """
    pts = np.asarray(points)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return np.sinc(2.0 * d / wavelength)


def steering_vector(points, direction, wavelength):
    """Unit-modulus planar-wavefront response of a point set.

    Phase of entry n is 2 pi / lambda times the propagation advance of point
    n relative to the set centroid for a plane wave arriving from
    `direction` (unit vector pointing from the set toward the source).
    """
    pts = np.asarray(points)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    advance = (pts - pts.mean(axis=0)) @ direction
    return np.exp(1j * 2.0 * np.pi * advance / wavelength)


@dataclass(frozen=True)
class SimUeChannelStats:
    """Rician statistics of one stack-output-to-UE link (N-dimensional)."""
    h_bar_sim: np.ndarray   # (N,) deterministic LoS component
    r_sim: np.ndarray       # (N, N) NLoS covariance

    def sqrt_factor(self):
        return psd_sqrt(self.r_sim)


def sim_ue_stats(output_grid, direction, beta_los, beta_nlos, base_corr,
                 wavelength) -> "SimUeChannelStats":
    """Per-link stack-output statistics from geometry and large-scale gains."""
    h_bar = np.sqrt(beta_los) * steering_vector(output_grid, direction, wavelength)
    return SimUeChannelStats(h_bar_sim=h_bar, r_sim=beta_nlos * base_corr)


@dataclass(frozen=True)
class EffectiveChannelStats:
    """Antenna-domain statistics after propagation through the stack."""
    h_bar: np.ndarray   # (U,) mean channel
    r_eff: np.ndarray   # (U, U) NLoS covariance


def effective_stats(w_first, g, stats: SimUeChannelStats) -> EffectiveChannelStats:
    """Project stack-output statistics to the antenna domain.

    h_bar = w_first^H g^H h_bar_sim and r_eff = w_first^H g^H r_sim g w_first.
    """
    t = g @ w_first                     # (N, U)
    h_bar = t.conj().T @ stats.h_bar_sim
    r_eff = t.conj().T @ stats.r_sim @ t
    r_eff = 0.5 * (r_eff + r_eff.conj().T)
    return EffectiveChannelStats(h_bar=h_bar, r_eff=r_eff)


def sample_channel(stats: SimUeChannelStats, rng, size=None, sqrt_factor=None):
    """Draw stack-output channel realizations.

    Each draw is h_bar_sim * exp(j phi) + r_sim^(1/2) z with phi uniform on
    [-pi, pi) per draw and z standard circular complex Gaussian.
    Returns (N,) for size None, else (size, N).
    """
    rng = np.random.default_rng(rng)
    n = stats.h_bar_sim.shape[0]
    if sqrt_factor is None:
        sqrt_factor = stats.sqrt_factor()
    m = 1 if size is None else int(size)
    phi = rng.uniform(-np.pi, np.pi, size=m)
    z = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
    h = np.exp(1j * phi)[:, None] * stats.h_bar_sim[None, :] + z @ sqrt_factor.T
    return h[0] if size is None else h


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

    @property
    def shape(self):
        return self.h_bar.shape

    def r(self, l, k):
        """NLoS covariance of link (l, k), shape (U, U)."""
        return self.beta_nlos[l, k] * self.s[l]

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
