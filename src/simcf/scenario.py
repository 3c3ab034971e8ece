# simcf/scenario.py
# One network "drop": AP/UE placement on a wrap-around torus, pathloss,
# correlated shadow fading, Rician factors and the LoS/NLoS power split.

import logging
from dataclasses import dataclass, replace

import numpy as np

from .config import SystemConfig

log = logging.getLogger(__name__)

# Urban-microcell pathloss: -30.18 dB at 1 m, 26 dB per distance decade.
PATHLOSS_REF_DB = -30.18
PATHLOSS_SLOPE_DB = 26.0


class ScenarioError(RuntimeError):
    """Raised when a drop cannot be generated (e.g. broken covariance)."""


def torus_displacement(from_xy, to_xy, side):
    """Minimum-image planar displacement vectors on a square torus.

    from_xy: (..., A, 2), to_xy: (..., B, 2) -> (..., A, B, 2) with
    components in [-side/2, side/2); leading axes are batch axes. The 9-copy
    wrap-around reduces to coordinatewise minimum-image shifts on a square
    period.
    """
    d = to_xy[..., None, :, :] - from_xy[..., :, None, :]
    return d - side * np.round(d / side)


def torus_distance(from_xy, to_xy, side):
    """Pairwise minimum-image planar distances, shape (..., A, B)."""
    return np.linalg.norm(torus_displacement(from_xy, to_xy, side), axis=-1)


def pathloss_db(dist_m):
    """Distance-dependent pathloss in dB (shadowing excluded)."""
    return PATHLOSS_REF_DB - PATHLOSS_SLOPE_DB * np.log10(dist_m)


def rician_kappa(dist_m):
    """LoS-to-NLoS power ratio as a function of link distance in meters."""
    return 10.0 ** (1.3 - 0.003 * np.asarray(dist_m, dtype=float))


def rician_split(beta, kappa):
    """Split total gain into LoS and NLoS parts; the two always sum to beta."""
    beta = np.asarray(beta, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    beta_los = kappa / (kappa + 1.0) * beta
    return beta_los, beta - beta_los


PSD_CLIP_TOL = 1e-10


def psd_sqrt(mat):
    """Hermitian square root with eigenvalue clipping at zero, of one
    matrix (n, n) or of every matrix of a stack (..., n, n).

    Eigenvalues below -PSD_CLIP_TOL relative to the largest of their own
    matrix indicate a broken input and raise LinAlgError; small negative
    values from roundoff are clipped and logged. Eigendecomposition is used
    instead of Cholesky because sinc correlation matrices are rank
    deficient at half-wavelength pitch.
    """
    w, v = np.linalg.eigh(mat)
    low = w[..., 0]
    scale = np.maximum(w[..., -1], 1.0e-300)
    broken = np.flatnonzero(low < -PSD_CLIP_TOL * scale)
    if broken.size:
        i = broken[0]
        raise np.linalg.LinAlgError(
            f"matrix is not PSD: min eigenvalue {low.flat[i]:.3e} vs scale "
            f"{scale.flat[i]:.3e}")
    if np.any(low < 0):
        log.debug("clipped %d negative eigenvalues (most negative %.3e)",
                  int((w < 0).sum()), float(low.min()))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _corr_sqrt(positions, side, delta_sf, d_dc):
    """Square root of the exponential shadowing covariance among positions
    (..., n, 2), one stacked psd_sqrt over the leading axes."""
    dist = torus_distance(positions, positions, side)
    try:
        return psd_sqrt(delta_sf ** 2 * np.exp2(-dist / d_dc))
    except np.linalg.LinAlgError as exc:
        raise ScenarioError(f"shadowing covariance of {positions.shape[-2]} "
                            f"positions: {exc}") from exc


def _shadowing(cfg, ap_pos, ue_pos, a, b):
    """Shadow fading (..., n, L, K) in dB, sqrt(delta_f) a[l] +
    sqrt(1 - delta_f) b[k], of white normals a (..., n, L), b (..., n, K)
    colored to the covariance delta_sf^2 2^(-d / d_dc) over the torus
    distances of the positions (..., L, 2), (..., K, 2)."""
    a = a @ _corr_sqrt(ap_pos, cfg.area_side, cfg.delta_sf,
                       cfg.d_dc).swapaxes(-1, -2)
    b = b @ _corr_sqrt(ue_pos, cfg.area_side, cfg.delta_sf,
                       cfg.d_dc).swapaxes(-1, -2)
    return (np.sqrt(cfg.delta_f) * a[..., :, None]
            + np.sqrt(1.0 - cfg.delta_f) * b[..., None, :])


_PER_DROP = ("ap_pos", "ue_pos", "dist", "beta", "kappa", "beta_los",
             "beta_nlos", "shadowing")


@dataclass(frozen=True)
class Drop:
    """Immutable large-scale snapshot of one network realization, or of a
    batch of them (generate_drop with one seed per drop): every array but
    p then has a leading drop axis, ap_pos (D, L, 2) ... shadowing
    (D, L, K), and p (K,) is shared."""
    cfg: SystemConfig
    ap_pos: np.ndarray      # (L, 2)
    ue_pos: np.ndarray      # (K, 2)
    dist: np.ndarray        # (L, K) 3-D link distances, torus planar + height
    beta: np.ndarray        # (L, K) channel gain, linear
    kappa: np.ndarray       # (L, K) Rician factor, linear
    beta_los: np.ndarray    # (L, K)
    beta_nlos: np.ndarray   # (L, K)
    shadowing: np.ndarray   # (L, K) dB
    p: np.ndarray           # (K,) data powers, W

    def __post_init__(self):
        for name in (*_PER_DROP, "p"):
            getattr(self, name).setflags(write=False)

    def at(self, i):
        """Drop i of a batch, with the shapes of a single drop."""
        return replace(self, **{name: getattr(self, name)[i]
                                for name in _PER_DROP})

    @classmethod
    def stack(cls, drops):
        """The batch of single drops (of equal powers p) on a new leading
        axis, with the first drop's config."""
        return replace(drops[0], **{
            name: np.stack([getattr(drop, name) for drop in drops])
            for name in _PER_DROP})

    def link_directions(self):
        """Unit 3-D direction vectors AP -> UE, shape (..., L, K, 3).

        Uses the same minimum-image planar displacement as the distances, so
        steering directions stay consistent with pathloss on the torus.
        """
        disp = torus_displacement(self.ap_pos, self.ue_pos, self.cfg.area_side)
        dz = np.full(disp.shape[:-1], self.cfg.h_ue - self.cfg.h_ap)
        vec = np.concatenate([disp, dz[..., None]], axis=-1)
        return vec / np.linalg.norm(vec, axis=-1, keepdims=True)


def generate_drop(cfg: SystemConfig, seed) -> Drop:
    """Generate one drop: uniform placement, shadowed pathloss, Rician split.

    seed is one seed (what np.random.SeedSequence takes) or a 2-D
    array-like of them, one row per drop, for a batch of drops on a leading
    axis (Drop). Each drop draws from its own seed's generators, in the
    order AP and UE positions, then the AP and the UE shadowing normals;
    the rest runs on the whole batch, so drop i of a batch equals the drop
    of its seed alone. Deterministic in (cfg, seed). Powers start at p_max.
    """
    batch = np.ndim(seed) == 2
    ap_pos, ue_pos, ap_white, ue_white = [], [], [], []
    for one in (seed if batch else [seed]):
        children = np.random.SeedSequence(one).spawn(2)
        rng_pos, rng_shadow = [np.random.default_rng(s) for s in children]
        ap_pos.append(rng_pos.uniform(0.0, cfg.area_side, size=(cfg.L, 2)))
        ue_pos.append(rng_pos.uniform(0.0, cfg.area_side, size=(cfg.K, 2)))
        ap_white.append(rng_shadow.standard_normal((1, cfg.L)))
        ue_white.append(rng_shadow.standard_normal((1, cfg.K)))
    ap_pos, ue_pos = np.stack(ap_pos), np.stack(ue_pos)
    planar = torus_distance(ap_pos, ue_pos, cfg.area_side)
    dist = np.hypot(planar, cfg.h_ap - cfg.h_ue)
    shadowing = _shadowing(cfg, ap_pos, ue_pos, np.stack(ap_white),
                           np.stack(ue_white))[:, 0]
    beta = 10.0 ** ((pathloss_db(dist) + shadowing) / 10.0)
    kappa = rician_kappa(dist)
    beta_los, beta_nlos = rician_split(beta, kappa)
    drop = Drop(
        cfg=cfg, ap_pos=ap_pos, ue_pos=ue_pos, dist=dist,
        beta=beta, kappa=kappa, beta_los=beta_los, beta_nlos=beta_nlos,
        shadowing=shadowing, p=np.full(cfg.K, cfg.p_max, dtype=float),
    )
    return drop if batch else drop.at(0)
