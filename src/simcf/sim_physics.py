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
    """Fixed propagation matrices of one stack (identical for every AP), or
    of a stack per network on a leading network axis."""
    w_first: np.ndarray    # (..., N, U): antennas -> layer 1
    w_layer: np.ndarray    # (..., M-1, N, N): layer m-1 -> layer m, m = 2..M

    def __post_init__(self):
        self.w_first.setflags(write=False)
        self.w_layer.setflags(write=False)

    @property
    def n_layers(self):
        return self.w_layer.shape[-3] + 1


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


def sinc_correlation(points, wavelength):
    """Isotropic-scattering spatial correlation over a set of points.

    Entry (n, n') is sinc(2 d / lambda) with d the Euclidean distance, so
    points half a wavelength apart are exactly uncorrelated. Unit diagonal.
    """
    pts = np.asarray(points)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return np.sinc(2.0 * d / wavelength)


@lru_cache(maxsize=32)
def _cached_stack(m, n, u, wavelength, d_meta, t_sim):
    cfg = SystemConfig(L=1, K=1, U=u, M=m, N=n, wavelength=wavelength,
                       d_meta=d_meta, t_sim=t_sim)
    geom = build_geometry(cfg)
    base_corr = sinc_correlation(geom.output_grid, wavelength)
    base_corr.setflags(write=False)
    return (geom, build_diffraction_set(geom, wavelength, d_meta * d_meta),
            base_corr)


def _stack_key(cfg):
    return cfg.M, cfg.N, cfg.U, cfg.wavelength, cfg.d_meta, cfg.t_sim


def stack_for(cfg: SystemConfig):
    """(geometry, diffraction set) for cfg, cached on the geometry parameters."""
    return _cached_stack(*_stack_key(cfg))[:2]


def base_correlation(cfg: SystemConfig):
    """Read-only output-grid correlation (sinc_correlation) of cfg's stack,
    from the same cache entry as stack_for."""
    return _cached_stack(*_stack_key(cfg))[2]


def cascade_through_antennas(dset: DiffractionSet, phases):
    """Antenna-to-output-layer propagation G @ w_first, (..., M, N) -> (..., N, U).

    Cheaper than forming G when only the effective U-dimensional channel is
    needed: right-multiplies layer by layer. Leading axes of phases are
    batch axes (the APs of a phase tensor); each slice goes through its own
    broadcast matmul, so it equals a call on that slice alone bit for bit.
    The matrices of a stacked dset (leading network axes) gain an AP axis,
    so phases (..., L, M, N) of each network go through its own stack.
    """
    phases = np.asarray(phases)
    if phases.shape[-2:] != (dset.n_layers, dset.w_first.shape[-2]):
        raise ValueError(f"phase array must be (..., M, N), got {phases.shape}")
    w_first, w_layer = dset.w_first, dset.w_layer
    if w_first.ndim > 2:
        w_first, w_layer = w_first[..., None, :, :], w_layer[..., None, :, :, :]
    t = w_first     # phasors formed layer by layer: a batch's are large
    for m in range(dset.n_layers):
        if m:
            t = w_layer[..., m - 1, :, :] @ t
        t = np.exp(1j * phases[..., m, :])[..., None] * t
    return t


@dataclass(frozen=True)
class FoldedStack:
    """The matrices of a stack with the phasors of one AP's phases folded
    in, the cascade's factors: first = Phi_0 w_first (..., N, U) and
    layers[m - 1] = Phi_m w_layer[m - 1] (..., M-1, N, N), Phi_m =
    diag(e^{j phi_m}), so that the cascade is layers[M-2] ... layers[0]
    first (fold_phasors). Row n of a layer's factor depends on atom n's
    phasor alone; refold rewrites the rows of turned atoms in place."""
    first: np.ndarray
    layers: np.ndarray

    @property
    def n_layers(self):
        return self.layers.shape[-3] + 1

    def refold(self, dset: DiffractionSet, shifts, rows, cols):
        """Rewrite the rows of the atoms (rows, cols) in every network from
        the phasors shifts (..., M, N): equal bit for bit to fold_phasors
        of them, and to the rows they replace where an atom's phasor did
        not change."""
        for m, n in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist()):
            if m:
                np.multiply(shifts[..., m, n, None],
                            dset.w_layer[..., m - 1, n, :],
                            out=self.layers[..., m - 1, n, :])
            else:
                np.multiply(shifts[..., 0, n, None], dset.w_first[..., n, :],
                            out=self.first[..., n, :])


def fold_phasors(dset: DiffractionSet, shifts) -> FoldedStack:
    """The FoldedStack of the unit phasors shifts (..., M, N) e^{j phi} of
    one AP, its leading axes those of the matrices of dset."""
    if shifts.shape[-2:] != (dset.n_layers, dset.w_first.shape[-2]):
        raise ValueError(f"phasor array must be (..., M, N), got "
                         f"{shifts.shape}")
    return FoldedStack(first=shifts[..., 0, :, None] * dset.w_first,
                       layers=shifts[..., 1:, :, None] * dset.w_layer)


def block_cascade_coeffs(folded: FoldedStack, rows, cols):
    """Cascade of a stack with a block of atoms turned, as a polynomial.

    folded holds the stack's layer factors with the AP's phasors in them
    (fold_phasors). Turning the atoms (rows, cols) by theta gives the
    cascade sum_d c[d] e^{j d theta}, d = 0..D, with D the number of
    distinct layers in rows: each touched layer's factor splits into its
    other rows (keep) plus e^{j theta} times the block's rows (move). So
    the block's atoms are grouped by layer once; an untouched layer is one
    matmul of its factor, and a touched layer writes that product straight
    into a coefficient array one degree wider, then moves each of its
    atoms' rows up one degree (zeros in their place), with no full-size
    keep or move and no phasor product. Leading axes of folded are network
    axes (the stacks of a pitch sweep): the block, and so D, is shared, and
    each network's layers propagate all its coefficients with one matmul of
    the same shape as a call on that network alone, so its slice equals
    that call bit for bit. Returns c, shape (..., D+1, N, U).
    """
    atoms_of = {}
    for row, col in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist()):
        atoms_of.setdefault(row, []).append(col)
    u = folded.first.shape[-1]
    c = folded.first          # (..., N, (d+1) U): column d*U + i is c[d][:, i]
    for m in range(folded.n_layers):
        if m not in atoms_of:
            if m:
                c = folded.layers[..., m - 1, :, :] @ c
            continue
        out = np.empty((*c.shape[:-1], c.shape[-1] + u), dtype=complex)
        if m:
            np.matmul(folded.layers[..., m - 1, :, :], c, out=out[..., :-u])
        else:
            out[..., :-u] = c
        out[..., -u:] = 0.0
        for atom in atoms_of[m]:
            row = out[..., atom, :]
            row[..., u:] = row[..., :-u]
            row[..., :u] = 0.0
        c = out
    return c.reshape(*c.shape[:-1], -1, u).swapaxes(-3, -2)


def step_powers(steps, degree):
    """e^{j d step} for each of steps (B,) and d = 0..degree, shape
    (B, degree + 1): the powers of z = e^{j step} at which
    block_channel_state evaluates a block's cascade polynomial
    (channel.probe_powers adds their pair products). A phase search forms
    them once for its steps, with degree the layer count M, the largest a
    block can reach."""
    return np.exp(1j * np.multiply.outer(np.asarray(steps, dtype=float),
                                         np.arange(degree + 1)))


def wrap_phases(phases):
    """Map phase angles into [0, 2 pi)."""
    return np.mod(phases, TWO_PI)


def random_phase_tensor(n_aps, n_layers, n_atoms, rng):
    """Independent uniform phases in [0, 2 pi), shape (L, M, N)."""
    rng = np.random.default_rng(rng)
    return rng.uniform(0.0, TWO_PI, size=(n_aps, n_layers, n_atoms))
