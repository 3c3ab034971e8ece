# simcf/scenario.py
# One network "drop": AP/UE placement on a wrap-around torus, pathloss,
# correlated shadow fading, Rician factors and the LoS/NLoS power split.

import logging
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig

log = logging.getLogger(__name__)

PILOT_UNASSIGNED = -1

# Urban-microcell pathloss: -30.18 dB at 1 m, 26 dB per distance decade.
PATHLOSS_REF_DB = -30.18
PATHLOSS_SLOPE_DB = 26.0


class ScenarioError(RuntimeError):
    """Raised when a drop cannot be generated (e.g. broken covariance)."""


def torus_displacement(from_xy, to_xy, side):
    """Minimum-image planar displacement vectors on a square torus.

    from_xy: (A, 2), to_xy: (B, 2) -> (A, B, 2) with components in
    [-side/2, side/2). The 9-copy wrap-around reduces to coordinatewise
    minimum-image shifts on a square period.
    """
    d = to_xy[None, :, :] - from_xy[:, None, :]
    return d - side * np.round(d / side)


def torus_distance(from_xy, to_xy, side):
    """Pairwise minimum-image planar distances, shape (A, B)."""
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


def psd_sqrt(mat, clip_tol=PSD_CLIP_TOL):
    """Hermitian square root with eigenvalue clipping at zero.

    Eigenvalues below -clip_tol (relative to the largest) indicate a broken
    input and raise LinAlgError; small negative values from roundoff are
    clipped and logged. Eigendecomposition is used instead of Cholesky
    because sinc correlation matrices are rank deficient at half-wavelength
    pitch.
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


def _corr_sqrt(positions, side, delta_sf, d_dc):
    """Square root of the exponential shadowing covariance among positions."""
    dist = torus_distance(positions, positions, side)
    try:
        return psd_sqrt(delta_sf ** 2 * np.exp2(-dist / d_dc))
    except np.linalg.LinAlgError as exc:
        raise ScenarioError(f"shadowing covariance of {len(positions)} "
                            f"positions: {exc}") from exc


def correlated_shadowing(cfg: SystemConfig, ap_pos, ue_pos, rng, n_draws=None):
    """Draw spatially correlated shadow fading F (L, K) in dB.

    F[l, k] = sqrt(delta_f) a[l] + sqrt(1 - delta_f) b[k], where a and b are
    zero-mean Gaussian with covariance delta_sf^2 * 2^(-d / d_dc) over the
    AP-AP and UE-UE torus distances respectively. n_draws returns a batch of
    independent realizations, shape (n_draws, L, K).
    """
    rng = np.random.default_rng(rng)
    n = 1 if n_draws is None else int(n_draws)
    a = rng.standard_normal((n, len(ap_pos))) \
        @ _corr_sqrt(ap_pos, cfg.area_side, cfg.delta_sf, cfg.d_dc).T
    b = rng.standard_normal((n, len(ue_pos))) \
        @ _corr_sqrt(ue_pos, cfg.area_side, cfg.delta_sf, cfg.d_dc).T
    f = (np.sqrt(cfg.delta_f) * a[:, :, None]
         + np.sqrt(1.0 - cfg.delta_f) * b[:, None, :])
    return f[0] if n_draws is None else f


@dataclass(frozen=True)
class Drop:
    """Immutable large-scale snapshot of one network realization."""
    cfg: SystemConfig
    ap_pos: np.ndarray      # (L, 2)
    ue_pos: np.ndarray      # (K, 2)
    dist: np.ndarray        # (L, K) 3-D link distances, torus planar + height
    beta: np.ndarray        # (L, K) channel gain, linear
    kappa: np.ndarray       # (L, K) Rician factor, linear
    beta_los: np.ndarray    # (L, K)
    beta_nlos: np.ndarray   # (L, K)
    shadowing: np.ndarray   # (L, K) dB
    pilot_of: np.ndarray    # (K,) pilot index or PILOT_UNASSIGNED
    p: np.ndarray           # (K,) data powers, W

    def __post_init__(self):
        for name in ("ap_pos", "ue_pos", "dist", "beta", "kappa",
                     "beta_los", "beta_nlos", "shadowing", "pilot_of", "p"):
            getattr(self, name).setflags(write=False)

    def link_directions(self):
        """Unit 3-D direction vectors AP -> UE, shape (L, K, 3).

        Uses the same minimum-image planar displacement as the distances, so
        steering directions stay consistent with pathloss on the torus.
        """
        disp = torus_displacement(self.ap_pos, self.ue_pos, self.cfg.area_side)
        dz = np.full(disp.shape[:2], self.cfg.h_ue - self.cfg.h_ap)
        vec = np.concatenate([disp, dz[..., None]], axis=-1)
        return vec / np.linalg.norm(vec, axis=-1, keepdims=True)


def generate_drop(cfg: SystemConfig, seed) -> Drop:
    """Generate one drop: uniform placement, shadowed pathloss, Rician split.

    Deterministic in (cfg, seed). Pilots start unassigned and powers at p_max.
    """
    ss = np.random.SeedSequence(seed)
    rng_pos, rng_shadow = [np.random.default_rng(s) for s in ss.spawn(2)]
    ap_pos = rng_pos.uniform(0.0, cfg.area_side, size=(cfg.L, 2))
    ue_pos = rng_pos.uniform(0.0, cfg.area_side, size=(cfg.K, 2))
    planar = torus_distance(ap_pos, ue_pos, cfg.area_side)
    dist = np.hypot(planar, cfg.h_ap - cfg.h_ue)
    shadowing = correlated_shadowing(cfg, ap_pos, ue_pos, rng_shadow)
    beta = 10.0 ** ((pathloss_db(dist) + shadowing) / 10.0)
    kappa = rician_kappa(dist)
    beta_los, beta_nlos = rician_split(beta, kappa)
    return Drop(
        cfg=cfg, ap_pos=ap_pos, ue_pos=ue_pos, dist=dist,
        beta=beta, kappa=kappa, beta_los=beta_los, beta_nlos=beta_nlos,
        shadowing=shadowing,
        pilot_of=np.full(cfg.K, PILOT_UNASSIGNED, dtype=int),
        p=np.full(cfg.K, cfg.p_max, dtype=float),
    )
