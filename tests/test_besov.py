import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4sim.besov import (BesovProfile, DyadicPartition, besov_norm,
                           besov_profile, block, combine, commutator_com,
                           default_partition, duhamel_para_commutator,
                           heat_para_commutator, para_gt, para_lt,
                           physical_blocks, resonance)
from phi4sim.errors import GridError
from phi4sim.fourier import (DispersionQ, ExponentialQuadrature, FourierField,
                             FrequencyLattice, apply_semigroup, product)
from conftest import delta_field, random_hermitian_field


# ---------------------------------------------------------------------------
# partition of unity


@pytest.mark.parametrize("K", [2, 4, 16])
def test_partition_sums_to_one_on_lattice(K):
    g = FrequencyLattice(K)
    part = DyadicPartition(K)
    total = part.weights(g).sum(axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_partition_sums_to_one_on_dense_radii():
    part = DyadicPartition(8)
    r = np.linspace(0.0, 2.0 ** (part.jmax + 1), 2000)
    total = sum(part.chi_j(j, r) for j in range(-1, part.jmax + 1))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_annulus_supports():
    part = DyadicPartition(8)
    assert part.chi_tilde(0.5) == 1.0
    assert part.chi_tilde(1.5) == 0.0
    assert part.chi(0.5) == 0.0  # below the annulus
    assert part.chi(3.0) == 0.0  # above the annulus
    assert abs(part.chi(1.5) - 1.0) < 1e-12  # plateau of the annulus bump


def test_resonance_weight_is_one_at_equal_radii():
    part = DyadicPartition(8)
    # coverage is guaranteed up to the maximal lattice radius sqrt(3) K
    r = np.linspace(0.0, np.sqrt(3.0) * 8, 500)
    w = part.resonance_weight(r, r)
    assert np.max(np.abs(w - 1.0)) < 1e-12


def test_blocks_reassemble_field(rng):
    g = FrequencyLattice(6)
    part = default_partition(g)
    f = random_hermitian_field(g, rng)
    total = np.zeros_like(f.coeffs)
    for j in range(-1, part.jmax + 1):
        total += block(f, j, part).coeffs
    assert np.max(np.abs(total - f.coeffs)) < 1e-12


def test_block_beyond_range_is_zero(rng):
    g = FrequencyLattice(4)
    f = random_hermitian_field(g, rng)
    part = default_partition(g)
    assert np.all(block(f, part.jmax + 3).coeffs == 0)
    with pytest.raises(ValueError):
        block(f, -2)


def test_single_mode_besov_norm_scales_with_alpha():
    g = FrequencyLattice(8)
    f = delta_field(g, (5, 0, 0))
    prof = besov_profile(f)
    for alpha in (-0.5, 0.0, 1.0):
        want = max(2.0 ** (alpha * j) * b for j, b in zip(prof.j, prof.b))
        assert abs(besov_norm(f, alpha) - want) < 1e-12


def test_constant_field_lives_in_lowest_block():
    g = FrequencyLattice(4)
    prof = besov_profile(delta_field(g, (0, 0, 0)))  # the constant 2
    assert abs(prof.b[0] - 2.0) < 1e-13
    assert np.max(prof.b[1:]) < 1e-13


# ---------------------------------------------------------------------------
# paraproducts


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_bony_decomposition_is_exact(seed):
    g = FrequencyLattice(6)
    rng = np.random.default_rng(seed)
    f = random_hermitian_field(g, rng)
    h = random_hermitian_field(g, rng)
    lhs = product(f, h).coeffs
    rhs = (para_lt(f, h) + para_gt(f, h) + resonance(f, h)).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_para_gt_is_transposed_para_lt(rng):
    g = FrequencyLattice(5)
    f = random_hermitian_field(g, rng)
    h = random_hermitian_field(g, rng)
    assert np.array_equal(para_gt(f, h).coeffs, para_lt(h, f).coeffs)


def test_paraproduct_frequency_localization():
    # low < high: a low mode against a high mode lands in the paraproduct,
    # never in the resonance
    g = FrequencyLattice(16)
    lo = delta_field(g, (1, 0, 0))
    hi = delta_field(g, (12, 0, 0))
    assert np.max(np.abs(resonance(lo, hi).coeffs)) < 1e-13
    full = product(lo, hi).coeffs
    assert np.max(np.abs(para_lt(lo, hi).coeffs - full)) < 1e-12


def test_block_sharing_matches_direct_calls(rng):
    g = FrequencyLattice(5)
    f = random_hermitian_field(g, rng)
    h = random_hermitian_field(g, rng)
    part = default_partition(g)
    P = g.pad_size(2)
    Bf = physical_blocks(f.coeffs, g, part, P)
    Bh = physical_blocks(h.coeffs, g, part, P)
    assert np.array_equal(combine(Bf, Bh, g, P, "lt"), para_lt(f, h).coeffs)
    assert np.array_equal(combine(Bh, Bf, g, P, "lt"), para_gt(f, h).coeffs)
    assert np.array_equal(combine(Bf, Bh, g, P, "res"), resonance(f, h).coeffs)


def test_commutator_definition(rng):
    g = FrequencyLattice(5)
    f = random_hermitian_field(g, rng)
    a = random_hermitian_field(g, rng)
    b = random_hermitian_field(g, rng)
    want = resonance(para_lt(f, a), b).coeffs \
        - product(f, resonance(a, b)).coeffs
    assert np.max(np.abs(commutator_com(f, a, b).coeffs - want)) < 1e-13


def test_heat_commutator_vanishes_at_zero_time(rng):
    g = FrequencyLattice(4)
    Q = DispersionQ.quartic(0.1, nu=1.0)
    f = random_hermitian_field(g, rng)
    h = random_hermitian_field(g, rng)
    out = heat_para_commutator(f, h, Q, 0.0)
    assert np.max(np.abs(out.coeffs)) < 1e-13


def test_heat_commutator_matches_definition(rng):
    g = FrequencyLattice(4)
    Q = DispersionQ.quartic(0.1, nu=1.0)
    f = random_hermitian_field(g, rng)
    h = random_hermitian_field(g, rng)
    t = 0.3
    want = apply_semigroup(para_lt(f, h), Q, t).coeffs \
        - para_lt(f, apply_semigroup(h, Q, t)).coeffs
    assert np.array_equal(heat_para_commutator(f, h, Q, t).coeffs, want)


def test_duhamel_commutator_matches_reference_accumulation(rng):
    g = FrequencyLattice(3)
    Q = DispersionQ.quartic(0.2, nu=1.0)
    dt, nsteps = 0.05, 6
    t_grid = np.arange(nsteps + 1) * dt
    f_traj = [random_hermitian_field(g, rng) for _ in range(nsteps + 1)]
    g_traj = [random_hermitian_field(g, rng) for _ in range(nsteps + 1)]
    out = duhamel_para_commutator(f_traj, g_traj, Q, t_grid)
    quad = ExponentialQuadrature(g, Q, dt)
    I_pg = np.zeros_like(f_traj[0].coeffs)
    I_g = np.zeros_like(I_pg)
    for m in range(nsteps + 1):
        if m > 0:
            I_pg = quad.advance(I_pg, para_lt(f_traj[m - 1], g_traj[m - 1]).coeffs)
            I_g = quad.advance(I_g, g_traj[m - 1].coeffs)
        want = I_pg - para_lt(f_traj[m], FourierField(g, I_g)).coeffs
        assert np.max(np.abs(out[m].coeffs - want)) < 1e-13


def test_duhamel_commutator_rejects_nonuniform_grid(rng):
    g = FrequencyLattice(2)
    Q = DispersionQ.laplacian(0.0)
    f = [random_hermitian_field(g, rng) for _ in range(3)]
    with pytest.raises(GridError):
        duhamel_para_commutator(f, f, Q, np.array([0.0, 0.1, 0.35]))
