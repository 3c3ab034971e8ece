# simcf/sim_physics.py
# Stacked-metasurface propagation: meta-atom geometry, scalar diffraction
# transfer matrices between consecutive layers, and the cascaded wave-domain
# beamforming matrix obtained from per-atom phase shifts.
#
# Geometry convention (AP-local frame): the AP antenna line sits at z = 0,
# metasurface layer m (1-based) lies in the plane z = -m * d_layer, so the
# stack points "down" toward the served area and the output layer is the one
# farthest from the antennas. Meta-atoms form an nx-by-ny grid centered on
# the z axis with pitch d_meta; grid indexing is row-major over (x, y), i.e.
# n = ix * ny + iy.

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import SystemConfig

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SimGeometry:
    """Meta-atom and antenna coordinates in the AP-local frame (meters)."""
    layer_grids: np.ndarray   # (M, N, 3)
    antenna_pos: np.ndarray   # (U, 3)
    d_layer: float
    grid_shape: tuple

    def __post_init__(self):
        self.layer_grids.setflags(write=False)
        self.antenna_pos.setflags(write=False)

    @property
    def output_grid(self):
        """Grid of the layer facing the users (last layer)."""
        return self.layer_grids[-1]


def planar_grid(nx, ny, pitch):
    """Centered (nx*ny, 2) grid, row-major over (x, y)."""
    xs = (np.arange(nx) - (nx - 1) / 2.0) * pitch
    ys = (np.arange(ny) - (ny - 1) / 2.0) * pitch
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def build_geometry(cfg: SystemConfig) -> SimGeometry:
    """Lay out all layers and the antenna line for one AP.

    Antennas sit on a centered x-axis line with half-wavelength pitch, one
    layer spacing above layer 1.
    """
    nx, ny = cfg.grid_shape
    base = planar_grid(nx, ny, cfg.d_meta)
    grids = np.zeros((cfg.M, cfg.N, 3))
    for m in range(cfg.M):
        grids[m, :, :2] = base
        grids[m, :, 2] = -(m + 1) * cfg.d_layer
    ant = np.zeros((cfg.U, 3))
    ant[:, 0] = (np.arange(cfg.U) - (cfg.U - 1) / 2.0) * cfg.wavelength / 2.0
    return SimGeometry(layer_grids=grids, antenna_pos=ant,
                       d_layer=cfg.d_layer, grid_shape=(nx, ny))


def transfer_matrix(src_pos, dst_pos, wavelength, atom_area):
    """Scalar-diffraction transfer matrix between two point sets.

    Entry (n, n') couples source point n' to destination point n:
        area * cos(chi) / d * (1 / (2 pi d) - j / lambda) * exp(j 2 pi d / lambda)
    with d the point-to-point distance and chi the angle off the source-plane
    normal, computed as |dz| / d.
    """
    src = np.atleast_2d(src_pos)
    dst = np.atleast_2d(dst_pos)
    diff = dst[:, None, :] - src[None, :, :]
    d = np.linalg.norm(diff, axis=-1)
    if np.any(d <= 0.0):
        raise ValueError("coincident source/destination points (zero distance)")
    cos_chi = np.abs(diff[..., 2]) / d
    amp = atom_area * cos_chi / d * (1.0 / (TWO_PI * d) - 1j / wavelength)
    return amp * np.exp(1j * TWO_PI * d / wavelength)


@dataclass(frozen=True)
class DiffractionSet:
    """Fixed propagation matrices of one stack (identical for every AP)."""
    w_first: np.ndarray    # (N, U): antennas -> layer 1
    w_layer: np.ndarray    # (M-1, N, N): layer m-1 -> layer m, m = 2..M

    def __post_init__(self):
        self.w_first.setflags(write=False)
        self.w_layer.setflags(write=False)

    @property
    def n_layers(self):
        return self.w_layer.shape[0] + 1


def build_diffraction_set(geom: SimGeometry, wavelength, atom_area) -> DiffractionSet:
    """All inter-layer and antenna-to-first-layer matrices for one stack."""
    m_layers, n_atoms, _ = geom.layer_grids.shape
    w_first = transfer_matrix(geom.antenna_pos, geom.layer_grids[0],
                              wavelength, atom_area)
    w_layer = np.zeros((m_layers - 1, n_atoms, n_atoms), dtype=complex)
    for m in range(1, m_layers):
        w_layer[m - 1] = transfer_matrix(geom.layer_grids[m - 1],
                                         geom.layer_grids[m],
                                         wavelength, atom_area)
    return DiffractionSet(w_first=w_first, w_layer=w_layer)


@lru_cache(maxsize=32)
def _cached_stack(m, n, u, wavelength, d_meta, t_sim):
    cfg = SystemConfig(L=1, K=1, U=u, M=m, N=n, wavelength=wavelength,
                       d_meta=d_meta, t_sim=t_sim)
    geom = build_geometry(cfg)
    return geom, build_diffraction_set(geom, wavelength, d_meta * d_meta)


def stack_for(cfg: SystemConfig):
    """(geometry, diffraction set) for cfg, cached on the geometry parameters."""
    return _cached_stack(cfg.M, cfg.N, cfg.U, cfg.wavelength, cfg.d_meta, cfg.t_sim)


def cascade_through_antennas(dset: DiffractionSet, phases):
    """Antenna-to-output-layer propagation G @ w_first, (..., M, N) -> (..., N, U).

    Cheaper than forming G when only the effective U-dimensional channel is
    needed: right-multiplies layer by layer. Leading axes of phases are
    batch axes (APs, probe candidates); each slice goes through its own
    broadcast matmul, so it equals a call on that slice alone bit for bit.
    """
    phases = np.asarray(phases)
    if phases.shape[-2:] != (dset.n_layers, dset.w_first.shape[0]):
        raise ValueError(f"phase array must be (..., M, N), got {phases.shape}")
    shifts = np.exp(1j * phases)[..., None]
    t = shifts[..., 0, :, :] * dset.w_first
    for m in range(1, dset.n_layers):
        t = shifts[..., m, :, :] * (dset.w_layer[m - 1] @ t)
    return t


def wrap_phases(phases):
    """Map phase angles into [0, 2 pi)."""
    return np.mod(phases, TWO_PI)


def random_phase_tensor(n_aps, n_layers, n_atoms, rng):
    """Independent uniform phases in [0, 2 pi), shape (L, M, N)."""
    rng = np.random.default_rng(rng)
    return rng.uniform(0.0, TWO_PI, size=(n_aps, n_layers, n_atoms))
