# simcf/channel.py
# Statistical channel objects seen through the stack: planar-wavefront
# steering toward every UE, and the effective antenna-domain statistics of
# every (AP, UE) link for a phase tensor, or of one AP under every probe of
# a block of its atoms, for one network or a batch of networks on a leading
# axis, each with its own drop and stack. A block state takes the AP's
# stack with its phasors folded in (sim_physics.FoldedStack), which the
# phase search keeps, the step powers and their pair products
# (ProbePowers), which it forms once, and the AP's LoS amplitudes, which it
# forms once per AP visit, so a probe batch runs no exp and no phasor
# product and forms nothing its probes do not change. The block's Gram
# takes the real output-grid correlation as one real product on the float
# view of the coefficients.

from dataclasses import dataclass

import numpy as np

from .scenario import Drop
from .sim_physics import (DiffractionSet, FoldedStack, SimGeometry,
                          block_cascade_coeffs, cascade_through_antennas,
                          step_powers)


@dataclass(frozen=True)
class ChannelState:
    """Effective statistics of every (AP, UE) link for one phase tensor.

    The NLoS covariance factors as r[l, k] = beta_nlos[l, k] * s[l] because
    the scattering correlation on the output layer is common to all UEs; s
    is the per-AP antenna-domain projection of that common correlation. The
    state keeps the factors only; no per-link covariance is formed. The
    state of a batch of networks has a leading network axis on every field.
    """
    h_bar: np.ndarray       # (L, K, U) complex
    s: np.ndarray           # (L, U, U) complex Hermitian PSD
    beta_nlos: np.ndarray   # (L, K)

    def at(self, i):
        """Network i of the state of a batch of networks."""
        return ChannelState(h_bar=self.h_bar[i], s=self.s[i],
                            beta_nlos=self.beta_nlos[i])


def steering_units(geom: SimGeometry, drop: Drop):
    """Unit steering vectors of the output grid toward every UE,
    (..., L, K, N) with the leading axis of a batch of drops."""
    directions = drop.link_directions()
    grid = geom.output_grid
    centered = grid - grid.mean(axis=0)
    advance = np.einsum("ni,...lki->...lkn", centered, directions)
    return np.exp(1j * 2.0 * np.pi * advance / drop.cfg.wavelength)


def build_channel_state(drop: Drop, dset: DiffractionSet, phases, base_corr,
                        steering) -> ChannelState:
    """Effective statistics for a phase tensor (L, M, N), or for phases
    (S, L, M, N) of a batch of S networks, whose drop's arrays, matrices of
    dset, base_corr (S, N, N) and steering carry the network axis (every
    field of the state then has it too).

    base_corr is the output-grid correlation (sinc_correlation) and
    steering the unit steering vectors (steering_units) of the drop. All
    APs (of all networks) go through one batched cascade.
    """
    t = cascade_through_antennas(dset, phases)            # (L, N, U)
    if base_corr.ndim > 2:
        base_corr = base_corr[..., None, :, :]
    proj = t.conj().swapaxes(-1, -2) @ base_corr @ t
    s = 0.5 * (proj + proj.conj().swapaxes(-1, -2))
    amp = np.sqrt(drop.beta_los)[..., None] * steering     # (L, K, N)
    h_bar = amp @ t.conj()
    return ChannelState(h_bar=h_bar, s=s, beta_nlos=drop.beta_nlos)


@dataclass(frozen=True)
class ProbePowers:
    """The probes of a block as block_channel_state reads them: the step
    powers z (B, degree + 1), z[b, d] = e^{j d step_b} (sim_physics.
    step_powers), and for each block degree D = 0..degree the products
    pairs[D] (B, 1, (D + 1)^2), conj(z^d') z^d in the order of d' then d,
    that weigh the Gram of the cascade polynomial. A phase search forms
    them once for its steps (probe_powers)."""
    z: np.ndarray
    pairs: tuple

    def __len__(self):
        return len(self.z)


def probe_powers(steps, degree) -> ProbePowers:
    """The ProbePowers of steps (B,) up to degree, the layer count M being
    the largest degree a block can reach."""
    z = step_powers(steps, degree)
    return ProbePowers(z=z, pairs=tuple(
        (z.conj()[:, :n, None] * z[:, None, :n]).reshape(-1, 1, n * n)
        for n in range(1, degree + 2)))


@dataclass(frozen=True)
class BlockState:
    """Statistics of one AP under each of B probes (block_channel_state):
    h_bar (..., K, U, B), the probes last as in the SINR parts
    (se.block_factors), and s (..., B, U, U), one Hermitian matrix per
    probe."""
    h_bar: np.ndarray
    s: np.ndarray


def block_channel_state(folded: FoldedStack, rows, cols, powers: ProbePowers,
                        base_corr, amp) -> BlockState:
    """Statistics of one AP under each probe of one block, in every network
    of a batch.

    Probe b turns the atoms (rows, cols) of the AP by step_b; folded is
    the AP's stack with its phasors folded in (sim_physics.fold_phasors),
    powers the ProbePowers of the steps (up to at least the number D of
    distinct layers in rows) and amp (..., K, N) the AP's LoS amplitudes
    sqrt(beta_los_k) times the unit steering toward UE k. Leading axes of
    folded, of base_corr (real) and of amp are network axes, which share
    the block and the steps; the BlockState keeps them leading. With the
    cascade t(z) = sum_d c_d z^d (block_cascade_coeffs) at z = e^{j step},
    s(z) = t^H base_corr t is the Laurent polynomial sum_{d', d}
    conj(z^d') z^d c_d'^H base_corr c_d and h_bar(z) = sum_d conj(z^d) amp
    conj(c_d): the coefficient products are formed once per block and
    network (base_corr times the coefficients as one real product on their
    float view) and each probe costs only their weighted sums, which run on
    their own, so a probe's statistics equal a one-network, one-probe call
    bit for bit.
    """
    c = block_cascade_coeffs(folded, rows, cols)          # (..., D+1, N, U)
    *lead, n_coef, n_atoms, u = c.shape
    n_ue = amp.shape[-2]
    flat = c.swapaxes(-3, -2).reshape(*lead, n_atoms, n_coef * u)
    flat_conj = flat.conj()
    corr_flat = (base_corr @ flat.view(float)).view(complex)
    gram = flat_conj.swapaxes(-1, -2) @ corr_flat
    gram = gram.reshape(*lead, n_coef, u, n_coef, u).swapaxes(-3, -2)
    gram = gram.reshape(*lead, 1, n_coef * n_coef, u * u)
    mean = (amp @ flat_conj).reshape(*lead, n_ue, n_coef, u)
    mean = mean.swapaxes(-3, -2).reshape(*lead, 1, n_coef, n_ue * u)
    proj = (powers.pairs[n_coef - 1] @ gram).reshape(*lead, -1, u, u)
    s = 0.5 * (proj + proj.conj().swapaxes(-1, -2))
    h_bar = powers.z[:, :n_coef].conj()[:, None, :] @ mean   # (..., B, 1, K U)
    h_bar = np.ascontiguousarray(h_bar[..., 0, :].swapaxes(-1, -2))
    return BlockState(h_bar=h_bar.reshape(*lead, n_ue, u, -1), s=s)
