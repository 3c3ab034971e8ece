# simcf/config.py
# System-level parameters for one SIM-enhanced cell-free network.
# All powers are linear Watts, all lengths are meters, shadowing is in dB.

import math
from dataclasses import dataclass, fields, replace

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration violates a structural constraint."""


def most_square_factors(n):
    """Factor n = nx * ny with nx <= ny and nx as large as possible."""
    nx = int(np.sqrt(n))
    while nx > 1 and n % nx != 0:
        nx -= 1
    return nx, n // nx


def is_count(x):
    """x is an integer and not a bool (which is an int, but True is no
    count)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class SystemConfig:
    """Static deployment and hardware parameters.

    Wavelength defaults to 0.15 m (2 GHz carrier); the metasurface
    geometry scales with it, so d_meta and t_sim default to lambda/2 and
    5*lambda unless set explicitly.
    """
    L: int = 10            # access points (one stacked surface each)
    K: int = 5             # single-antenna user terminals
    U: int = 2             # antennas per AP, half-wavelength line array
    M: int = 5             # metasurface layers per stack
    N: int = 64            # meta-atoms per layer (nx * ny grid)
    tau_c: int = 200       # coherence block length (symbols)
    tau_p: int = 4         # pilot symbols per block
    sigma2: float = 10.0 ** (-12.4)   # noise power, W (-94 dBm)
    p_max: float = 0.2     # max uplink transmit power per UE, W
    p_hat: float | tuple = None       # pilot power, scalar or per-UE; None -> p_max
    area_side: float = 500.0          # deployment square side, wrap-around
    h_ap: float = 15.0     # AP height
    h_ue: float = 1.65     # UE height
    wavelength: float = 0.15
    d_meta: float = None   # meta-atom pitch (and size); None -> wavelength / 2
    t_sim: float = None    # total stack thickness; None -> 5 * wavelength
    delta_f: float = 0.5   # AP/UE split of the shadow-fading variance
    delta_sf: float = 8.0  # shadow-fading standard deviation, dB
    d_dc: float = 100.0    # shadowing decorrelation distance, m

    def __post_init__(self):
        if self.d_meta is None:
            object.__setattr__(self, "d_meta", self.wavelength / 2.0)
        if self.t_sim is None:
            object.__setattr__(self, "t_sim", 5.0 * self.wavelength)
        if self.p_hat is None:
            object.__setattr__(self, "p_hat", float(self.p_max))
        elif isinstance(self.p_hat, (list, np.ndarray)):
            object.__setattr__(self, "p_hat", tuple(float(v) for v in self.p_hat))
        self.validate()

    def validate(self):
        for name in ("L", "K", "U", "M", "N", "tau_p", "tau_c"):
            v = getattr(self, name)
            if not is_count(v) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if self.tau_p > self.tau_c:
            raise ConfigError(
                f"need tau_p <= tau_c, got tau_p={self.tau_p} tau_c={self.tau_c}")
        # wavelength first: d_meta and t_sim default to multiples of it
        for name in ("wavelength", "sigma2", "p_max", "area_side", "d_meta",
                     "t_sim", "delta_sf", "d_dc", "delta_f"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got "
                                  f"{getattr(self, name)!r}")
        # a zero pitch or stack thickness leaves no stack to diffract through
        for name in ("wavelength", "d_meta", "t_sim"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("sigma2", "p_max", "area_side", "delta_sf", "d_dc"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not 0.0 <= self.delta_f <= 1.0:
            raise ConfigError("delta_f must lie in [0, 1]")
        p_hat = np.asarray(self.p_hat)
        if p_hat.ndim and p_hat.shape != (self.K,):
            raise ConfigError(f"p_hat has shape {p_hat.shape}, expected a "
                              f"scalar or K={self.K} values")
        if not all(0 <= v < math.inf for v in p_hat.flat):
            raise ConfigError("pilot powers must be finite and nonnegative")
        nx, ny = most_square_factors(self.N)
        if nx * ny != self.N:
            raise ConfigError(f"N={self.N} admits no grid factorization")

    @property
    def grid_shape(self):
        """(nx, ny) meta-atom grid; square whenever N is a perfect square."""
        return most_square_factors(self.N)

    @property
    def d_layer(self):
        """Axial spacing between adjacent layers (and antennas to layer 1)."""
        return self.t_sim / self.M

    def pilot_powers(self):
        """Per-UE pilot power vector of length K."""
        return np.full(self.K, self.p_hat, dtype=float)

    def replace(self, **kwargs):
        return replace(self, **kwargs)

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)
