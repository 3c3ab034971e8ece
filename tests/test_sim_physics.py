import numpy as np
import pytest

from simcf import SystemConfig, allocate_pilots, generate_drop
from simcf.pipeline import NetworkModel
from simcf.sim_physics import (DiffractionSet, base_correlation,
                               block_cascade_coeffs, build_diffraction_set,
                               build_geometry, cascade_through_antennas,
                               fold_phasors, planar_grid, random_phase_tensor,
                               sinc_correlation, stack_for, step_powers,
                               transfer_matrix, wrap_phases)

from reference import block_cascade_coeffs_dense, cascade, turned_slices


def scalar_coefficient(src, dst, wavelength, area):
    # independent re-implementation, one scalar at a time
    dvec = np.subtract(dst, src)
    d = float(np.sqrt(np.sum(dvec ** 2)))
    cos_chi = abs(dvec[2]) / d
    return (area * cos_chi / d) * (1.0 / (2.0 * np.pi * d) - 1j / wavelength) \
        * np.exp(1j * 2.0 * np.pi * d / wavelength)


def test_axial_coefficient_closed_form():
    # axial pair one wavelength apart with quarter-wavelength-square atoms
    w = transfer_matrix([0, 0, 0], [0, 0, 1.0], 1.0, 0.25)[0, 0]
    assert w == pytest.approx(0.25 * (1 / (2 * np.pi) - 1j))


def test_transverse_offset_reduces_prefactor():
    axial = transfer_matrix([0, 0, 0], [0, 0, 1.0], 1.0, 0.25)[0, 0]
    offset = transfer_matrix([0, 0, 0], [1.0, 0, 1.0], 1.0, 0.25)[0, 0]
    # cos(chi) < 1 and larger distance both shrink the magnitude
    assert abs(offset) < abs(axial)


def test_coincident_points_raise():
    with pytest.raises(ValueError):
        transfer_matrix([1, 2, 3], [1, 2, 3], 1.0, 0.25)


def test_transfer_matrix_matches_scalar_loop():
    cfg = SystemConfig(L=1, K=1, U=2, M=2, N=4, wavelength=0.15)
    geom = build_geometry(cfg)
    area = cfg.d_meta ** 2
    w = transfer_matrix(geom.layer_grids[0], geom.layer_grids[1],
                        cfg.wavelength, area)
    for n in range(cfg.N):
        for m in range(cfg.N):
            ref = scalar_coefficient(geom.layer_grids[0][m],
                                     geom.layer_grids[1][n],
                                     cfg.wavelength, area)
            assert w[n, m] == pytest.approx(ref, rel=1e-12)


def test_base_correlation_is_cached_with_the_stack():
    # built once per stack, read-only, and the one every model of it uses
    cfg = SystemConfig(L=2, K=2, U=2, M=2, N=9, tau_p=1)
    corr = base_correlation(cfg)
    assert corr is base_correlation(cfg.replace(L=3, K=1))
    assert not corr.flags.writeable
    geom, _ = stack_for(cfg)
    assert np.array_equal(corr, sinc_correlation(geom.output_grid,
                                                 cfg.wavelength))
    drop = generate_drop(cfg, 1)
    model = NetworkModel.from_drop(drop, allocate_pilots(drop))
    assert model.base_corr is corr


def test_congruent_layers_give_symmetric_matrix():
    cfg = SystemConfig(L=1, K=1, U=1, M=3, N=16)
    geom, dset = stack_for(cfg)
    for m in range(dset.w_layer.shape[0]):
        assert np.allclose(dset.w_layer[m], dset.w_layer[m].T)


def test_stack_cache_and_determinism():
    cfg = SystemConfig(L=2, K=2, U=2, M=2, N=9, tau_p=1)
    g1, d1 = stack_for(cfg)
    g2, d2 = stack_for(cfg)
    assert d1 is d2   # cached on geometry parameters
    rebuilt = build_diffraction_set(g1, cfg.wavelength, cfg.d_meta ** 2)
    assert np.array_equal(rebuilt.w_first, d1.w_first)


def test_frobenius_norm_decreases_with_layer_spacing():
    cfg = SystemConfig(L=1, K=1, U=1, M=2, N=16)
    norms = []
    for t_sim in np.linspace(0.5, 5.0, 8) * cfg.wavelength * cfg.M:
        geom = build_geometry(cfg.replace(t_sim=t_sim))
        dset = build_diffraction_set(geom, cfg.wavelength, cfg.d_meta ** 2)
        norms.append(np.linalg.norm(dset.w_layer[0]))
    assert np.all(np.diff(norms) < 0)


def test_cascade_single_layer_is_pure_phase():
    cfg = SystemConfig(L=1, K=1, U=1, M=1, N=9)
    _, dset = stack_for(cfg)
    phases = np.linspace(0, 1, 9).reshape(1, 9)
    g = cascade(dset, phases)
    assert np.allclose(g, np.diag(np.exp(1j * phases[0])))


def test_cascade_zero_phases_is_transfer_product():
    cfg = SystemConfig(L=1, K=1, U=1, M=3, N=4)
    _, dset = stack_for(cfg)
    g = cascade(dset, np.zeros((3, 4)))
    assert np.allclose(g, dset.w_layer[1] @ dset.w_layer[0])


def test_cascade_matches_stepwise_oracle():
    cfg = SystemConfig(L=1, K=1, U=2, M=3, N=4)
    _, dset = stack_for(cfg)
    rng = np.random.default_rng(0)
    phases = rng.uniform(0, 2 * np.pi, (3, 4))
    # naive left-multiplication
    g = np.diag(np.exp(1j * phases[0]))
    for m in range(1, 3):
        g = np.diag(np.exp(1j * phases[m])) @ dset.w_layer[m - 1] @ g
    assert np.allclose(cascade(dset, phases), g)
    assert np.allclose(cascade_through_antennas(dset, phases),
                       cascade(dset, phases) @ dset.w_first)


def test_cascade_periodic_in_phases():
    cfg = SystemConfig(L=1, K=1, U=2, M=2, N=9)
    _, dset = stack_for(cfg)
    rng = np.random.default_rng(1)
    phases = rng.uniform(0, 2 * np.pi, (2, 9))
    g1 = cascade(dset, phases)
    g2 = cascade(dset, phases + 2 * np.pi)
    assert np.max(np.abs(g1 - g2)) <= 1e-12 * np.max(np.abs(g1))


def test_phase_diagonal_preserves_vector_norm():
    rng = np.random.default_rng(2)
    phases = rng.uniform(0, 2 * np.pi, 16)
    x = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert np.linalg.norm(np.exp(1j * phases) * x) == pytest.approx(
        np.linalg.norm(x))


def test_cascade_linear_in_transfer_matrix():
    cfg = SystemConfig(L=1, K=1, U=1, M=2, N=4)
    geom, dset = stack_for(cfg)
    rng = np.random.default_rng(3)
    phases = rng.uniform(0, 2 * np.pi, (2, 4))
    a = rng.normal(size=(1, 4, 4)) + 1j * rng.normal(size=(1, 4, 4))
    b = rng.normal(size=(1, 4, 4)) + 1j * rng.normal(size=(1, 4, 4))
    g_a = cascade(DiffractionSet(dset.w_first.copy(), a), phases)
    g_b = cascade(DiffractionSet(dset.w_first.copy(), b), phases)
    g_ab = cascade(DiffractionSet(dset.w_first.copy(), a + b), phases)
    assert np.allclose(g_ab, g_a + g_b)


def test_geometry_layout():
    cfg = SystemConfig(L=1, K=1, U=3, M=4, N=6)
    geom = build_geometry(cfg)
    # layers evenly spaced by t_sim / M, grid centered, row-major over (x, y)
    assert np.allclose(np.diff(geom.layer_grids[:, 0, 2]), -cfg.d_layer)
    assert geom.layer_grids[-1, 0, 2] == pytest.approx(-cfg.t_sim)
    assert np.allclose(geom.layer_grids[0, :, :2].mean(axis=0), 0.0)
    nx, ny = geom.grid_shape
    grid = planar_grid(nx, ny, cfg.d_meta)
    assert np.allclose(geom.layer_grids[0, :, :2], grid)
    # second atom advances along y for row-major (x, y) indexing
    assert grid[1, 0] == grid[0, 0]
    assert grid[1, 1] == pytest.approx(grid[0, 1] + cfg.d_meta)
    # antennas on a centered half-wavelength line
    assert np.allclose(np.diff(geom.antenna_pos[:, 0]), cfg.wavelength / 2)
    assert geom.antenna_pos[:, 2].max() == 0.0


def test_random_phase_tensor_shape_and_range():
    phases = random_phase_tensor(2, 3, 4, rng=5)
    assert phases.shape == (2, 3, 4)
    assert np.all((phases >= 0) & (phases < 2 * np.pi))
    assert np.array_equal(phases, random_phase_tensor(2, 3, 4, rng=5))


def test_wrap_phases():
    assert wrap_phases(2 * np.pi + 0.25) == pytest.approx(0.25)
    assert wrap_phases(-0.25) == pytest.approx(2 * np.pi - 0.25)


def test_cascade_batch_equals_per_slice_calls():
    cfg = SystemConfig(L=1, K=1, U=2, M=3, N=9)
    _, dset = stack_for(cfg)
    phases = np.random.default_rng(2).uniform(0, 2 * np.pi, (4, 2, 3, 9))
    batch = cascade_through_antennas(dset, phases)
    assert batch.shape == (4, 2, 9, 2)
    for idx in np.ndindex(4, 2):
        assert np.array_equal(batch[idx],
                              cascade_through_antennas(dset, phases[idx]))
    with pytest.raises(ValueError):
        cascade_through_antennas(dset, phases[..., :8])


STEPS = np.arange(-16, 17) * np.pi / 8     # mirrors, theta = 0 and 2 pi


def _check_block_polynomial(dset, phases, rows, cols):
    coeffs = block_cascade_coeffs(fold_phasors(dset, np.exp(1j * phases)),
                                  rows, cols)
    assert coeffs.shape == (len(set(rows.tolist())) + 1,
                            *dset.w_first.shape)
    # the block rows write the dense keep/move products' floats
    assert np.array_equal(coeffs, block_cascade_coeffs_dense(dset, phases,
                                                             rows, cols))
    powers = step_powers(STEPS, dset.n_layers)[:, :len(coeffs)]
    got = np.einsum("bd,dnu->bnu", powers, coeffs)
    want = cascade_through_antennas(dset,
                                    turned_slices(phases, rows, cols, STEPS))
    np.testing.assert_allclose(got, want, rtol=1e-13,
                               atol=1e-13 * np.abs(want).max())
    np.testing.assert_allclose(coeffs.sum(axis=0),
                               cascade_through_antennas(dset, phases),
                               rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("block_size", [1, 3, 5])
def test_block_cascade_polynomial_matches_turned_cascade(m, block_size):
    # every block of a permutation of all atoms, the last one short when
    # block_size does not divide M N, at steps of both signs
    cfg = SystemConfig(L=1, K=1, U=2, M=m, N=16)
    _, dset = stack_for(cfg)
    rng = np.random.default_rng([m, block_size])
    phases = rng.uniform(0, 2 * np.pi, (m, 16))
    order = rng.permutation(m * 16)
    for start in range(0, order.size, block_size):
        rows, cols = np.unravel_index(order[start:start + block_size],
                                      (m, 16))
        _check_block_polynomial(dset, phases, rows, cols)


def test_block_cascade_polynomial_degree_counts_layers():
    cfg = SystemConfig(L=1, K=1, U=2, M=5, N=16)
    _, dset = stack_for(cfg)
    phases = np.random.default_rng(4).uniform(0, 2 * np.pi, (5, 16))
    one_layer = (np.full(4, 3), np.array([0, 5, 9, 15]))
    every_layer = (np.array([4, 0, 2, 1, 3]), np.array([7, 7, 1, 12, 0]))
    for (rows, cols), degree in ((one_layer, 1), (every_layer, 5)):
        assert len(block_cascade_coeffs(
            fold_phasors(dset, np.exp(1j * phases)), rows, cols)) == degree + 1
        _check_block_polynomial(dset, phases, rows, cols)


@pytest.mark.parametrize("u", [1, 2, 3])
def test_stacked_block_cascade_equals_dense_oracle_per_network(u):
    # the stacks of three pitches on a network axis: each network's slice
    # of the coefficients is the dense keep/move oracle's on that network
    # alone, for blocks that touch one layer, put two atoms in one layer
    # and touch every layer
    cfg = SystemConfig(L=1, K=1, U=u, M=4, N=16)
    stacks = [stack_for(cfg.replace(d_meta=cfg.d_meta / f))[1]
              for f in (1, 2, 4)]
    dset = DiffractionSet(np.stack([s.w_first for s in stacks]),
                          np.stack([s.w_layer for s in stacks]))
    phases = np.random.default_rng(u).uniform(0, 2 * np.pi, (3, 4, 16))
    blocks = {"one layer": ([2], [5]),
              "two atoms in a layer": ([1, 3, 1], [0, 9, 15]),
              "every layer": ([3, 0, 2, 1, 0], [4, 4, 11, 6, 13])}
    for label, (rows, cols) in blocks.items():
        rows, cols = np.array(rows), np.array(cols)
        coeffs = block_cascade_coeffs(
            fold_phasors(dset, np.exp(1j * phases)), rows, cols)
        assert coeffs.shape == (3, len(set(rows.tolist())) + 1, 16, u), label
        for s, stack in enumerate(stacks):
            assert np.array_equal(
                coeffs[s],
                block_cascade_coeffs_dense(stack, phases[s], rows, cols)), \
                (label, s)


def test_refold_equals_fold_of_turned_phasors():
    # rows of turned atoms rewritten in every network of a stack equal the
    # fold of the turned phasors bit for bit, in the first layer and deeper
    cfg = SystemConfig(L=1, K=1, U=2, M=3, N=16)
    stacks = [stack_for(cfg.replace(d_meta=cfg.d_meta / f))[1] for f in (1, 2)]
    dset = DiffractionSet(np.stack([s.w_first for s in stacks]),
                          np.stack([s.w_layer for s in stacks]))
    phases = np.random.default_rng(9).uniform(0, 2 * np.pi, (2, 3, 16))
    shifts = np.exp(1j * phases)
    folded = fold_phasors(dset, shifts)
    rows, cols = np.array([0, 2, 2, 1]), np.array([5, 0, 15, 5])
    shifts[0, rows, cols] = np.exp(1j * (phases[0, rows, cols] + 0.3))
    folded.refold(dset, shifts, rows, cols)
    want = fold_phasors(dset, shifts)
    assert np.array_equal(folded.first, want.first)
    assert np.array_equal(folded.layers, want.layers)
