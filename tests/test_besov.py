import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4sim import besov
from phi4sim.besov import besov_norm, besov_profile, chi_j, para_lt, weights
from phi4sim.fourier import FrequencyLattice, from_physical, product, to_physical
from conftest import (combine, delta_field, lt, physical_blocks,
                      random_hermitian_field, resonance)


# ---------------------------------------------------------------------------
# partition of unity


@pytest.mark.parametrize("K", [2, 4, 16])
def test_partition_sums_to_one_on_lattice(K):
    g = FrequencyLattice(K)
    total = weights(g).sum(axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_partition_sums_to_one_on_dense_radii():
    jmax = len(weights(FrequencyLattice(8))) - 2
    r = np.linspace(0.0, 2.0 ** (jmax + 1), 2000)
    total = sum(chi_j(j, r) for j in range(-1, jmax + 1))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_annulus_supports():
    assert chi_j(-1, 0.5) == 1.0
    assert chi_j(-1, 1.5) == 0.0
    assert chi_j(0, 0.5) == 0.0  # below the annulus
    assert chi_j(0, 3.0) == 0.0  # above the annulus
    assert abs(chi_j(0, 1.5) - 1.0) < 1e-12  # plateau of the annulus bump


def test_blocks_reassemble_field(rng):
    g = FrequencyLattice(6)
    f = random_hermitian_field(g, rng)
    B = physical_blocks(f, g)
    assert B.shape == (len(weights(g)),) + (g.pad_size(2),) * 3
    want = to_physical(f, g, g.pad_size(2))
    assert np.max(np.abs(B.sum(axis=0) - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("K", [3, 8])
def test_blocks_equal_the_batched_transform_bit_for_bit(rng, K):
    # the reference block stack, one block at a time, gives the bits of
    # transforming every weighted spectrum of a (2, 3) batch at once
    g = FrequencyLattice(K)
    f = random_hermitian_field(g, rng)
    coeffs = np.stack([f * c for c in rng.standard_normal(6)]).reshape((2, 3) + g.shape)
    W = weights(g)
    want = to_physical(coeffs[..., None, :, :, :] * W, g, g.pad_size(2))
    got = physical_blocks(coeffs, g)
    assert got.shape == (2, 3, len(W)) + (g.pad_size(2),) * 3
    assert np.array_equal(got, want)


@pytest.mark.parametrize("K", [3, 8])
def test_profile_equals_the_block_stack_sup_norms_bit_for_bit(rng, K):
    g = FrequencyLattice(K)
    f = random_hermitian_field(g, rng)
    want = np.max(np.abs(physical_blocks(f, g)), axis=(-3, -2, -1))
    prof = besov_profile(f, g)
    assert np.array_equal(prof.b, want)
    assert np.array_equal(prof.j, np.arange(-1, len(want) - 1))


def test_single_mode_besov_norm_scales_with_alpha():
    g = FrequencyLattice(8)
    f = delta_field(g, (5, 0, 0))
    prof = besov_profile(f, g)
    for alpha in (-0.5, 0.0, 1.0):
        want = max(2.0 ** (alpha * j) * b for j, b in zip(prof.j, prof.b))
        assert abs(besov_norm(f, g, alpha) - want) < 1e-12


def test_constant_field_lives_in_lowest_block():
    g = FrequencyLattice(4)
    prof = besov_profile(delta_field(g, (0, 0, 0)), g)  # the constant 2
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
    lhs = product(f, h, g)
    rhs = lt(f, h, g) + lt(h, f, g) + resonance(f, h, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_paraproduct_frequency_localization():
    # low < high: a low mode against a high mode lands in the paraproduct,
    # never in the resonance
    g = FrequencyLattice(16)
    lo = delta_field(g, (1, 0, 0))
    hi = delta_field(g, (12, 0, 0))
    assert np.max(np.abs(resonance(lo, hi, g))) < 1e-13
    full = product(lo, hi, g)
    assert np.max(np.abs(para_lt(lo, hi, g) - full)) < 1e-12


def _lt_by_cumsum(Bf, Bg, g):
    """The low-high paraproduct summed from a cumulative copy of the blocks."""
    P = g.pad_size(2)
    C = np.cumsum(Bf, axis=-4)
    acc = np.zeros(np.broadcast_shapes(Bf.shape[:-4], Bg.shape[:-4]) + (P,) * 3)
    for a in range(2, Bf.shape[-4]):
        acc += C[..., a - 2, :, :, :] * Bg[..., a, :, :, :]
    return from_physical(acc, g, P)


@pytest.mark.parametrize("K", [1, 2, 3, 8, 13])  # nblocks 2, 3, 4, 5, 6
def test_lt_running_sum_matches_cumsum_bit_for_bit(K):
    # para_lt, which forms one block at a time, against the block stacks:
    # the conftest reference (running sum) and a cumulative sum
    g = FrequencyLattice(K)
    assert len(weights(g)) == {1: 2, 2: 3, 3: 4, 8: 5, 13: 6}[K]
    rng = np.random.default_rng(8)
    for batch in ((), (3,)):
        f, h = (from_physical(rng.standard_normal(batch + (g.n,) * 3), g, g.n)
                for _ in range(2))
        Bf, Bh = physical_blocks(f, g), physical_blocks(h, g)
        want = combine(Bf, Bh, g, "lt")
        assert np.array_equal(want, _lt_by_cumsum(Bf, Bh, g))
        got = para_lt(f, h, g)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        if K == 1:
            assert not np.any(got)


def test_lt_at_the_smallest_cutoff_makes_no_transform(monkeypatch):
    # K = 1 has the blocks j = -1, 0 only: no Delta_j g has a low sum below it
    def fail(*args, **kwargs):
        raise AssertionError("para_lt transformed a block at K = 1")

    monkeypatch.setattr(besov, "to_physical", fail)
    monkeypatch.setattr(besov, "from_physical", fail)
    g = FrequencyLattice(1)
    f = np.ones(g.shape, dtype=np.complex128)
    assert np.array_equal(para_lt(f, f, g), np.zeros(g.shape, dtype=np.complex128))


def test_lt_holds_three_padded_arrays():
    # K = 24: P = 75 and 7 blocks, so one (P, P, P) float64 array is 3.4 MB
    # and the block stacks of f and g would be 14 of them, 47.3 MB.  The
    # sum's three arrays and the transform pair's scratch peak at 4.39 of
    # them (14.8 MB)
    g = FrequencyLattice(24)
    rng = np.random.default_rng(3)
    f, h = (from_physical(rng.standard_normal((g.n,) * 3), g, g.n) for _ in range(2))
    para_lt(f, h, g)  # warm the transform matrices and block weights
    tracemalloc.start()
    try:
        para_lt(f, h, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * g.pad_size(2) ** 3 * 8
