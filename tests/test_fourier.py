import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from phi4sim import fourier
from phi4sim.errors import GridError, SymbolError
from phi4sim.fourier import (DispersionQ, ExponentialQuadrature, FrequencyLattice,
                             _mirror, from_physical, get_threads, load_field,
                             product, save_field, set_threads, to_physical,
                             validate_symbol)
from conftest import (delta_field, hermitian_defect, random_hermitian_field,
                      reflected)


# ---------------------------------------------------------------------------
# lattice and transforms


def test_lattice_shapes_and_frequencies():
    g = FrequencyLattice(3)
    assert g.n == 7
    assert list(g.freqs) == [0, 1, 2, 3, -3, -2, -1]
    ksq = g.kabs**2
    assert ksq[0, 0, 0] == 0
    assert ksq[1, 0, 0] == 1
    assert ksq[-1, 0, 0] == 1
    assert g.shape == g.kabs.shape == (7, 7, 4)
    assert list(g.kabs[0, 0]) == [0, 1, 2, 3]  # |k| = k3 on the k3 axis


@pytest.mark.parametrize("m", [0, 1, 3])
def test_sub_cube_indexes_the_smaller_lattice_s_modes(m):
    g, sub = FrequencyLattice(3), FrequencyLattice(m)
    idx = g.sub_cube(m)
    assert np.array_equal(g.kabs[idx], sub.kabs)
    k1, k2, k3 = np.meshgrid(g.freqs, g.freqs, g.freqs[: g.K + 1], indexing="ij")
    for k, f in ((k1, sub.freqs[:, None, None]), (k2, sub.freqs[None, :, None]),
                 (k3, sub.freqs[None, None, : m + 1])):
        assert np.array_equal(k[idx], np.broadcast_to(f, sub.shape))
    batch = np.arange(2 * g.kabs.size).reshape((2,) + g.shape)
    assert batch[idx].shape == (2,) + sub.shape


def test_lattice_rejects_bad_sizes():
    with pytest.raises(GridError):
        FrequencyLattice(-1)


def test_mirror_is_mode_negation():
    g = FrequencyLattice(2)
    h = np.zeros(g.shape, dtype=np.complex128)
    h[1, (-2) % g.n, 1] = 1.0 + 2.0j
    full = _mirror(h, g)
    assert full.shape == (g.n,) * 3
    assert full[(-1) % g.n, 2 % g.n, (-1) % g.n] == 1.0 - 2.0j
    assert np.count_nonzero(full) == 2
    assert np.array_equal(full[..., : g.K + 1], h)


@given(K=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_forward_inverse_round_trip(K, seed):
    g = FrequencyLattice(K)
    rng = np.random.default_rng(seed)
    f = random_hermitian_field(g, rng)
    again = from_physical(to_physical(f, g, g.n), g, g.n)
    assert np.max(np.abs(again - f)) < 1e-12


def test_forward_of_real_samples_is_hermitian(rng):
    g = FrequencyLattice(3)
    f = random_hermitian_field(g, rng)
    assert f.shape == g.shape
    assert hermitian_defect(_mirror(f, g)) < 1e-12


def _mirror_as_before(h, g):
    """The conjugate mirror from_physical used to append to its k3 >= 0 half."""
    K, n = g.K, g.n
    out = np.empty(h.shape[:-1] + (n,), dtype=np.complex128)
    out[..., : K + 1] = h
    out[..., K + 1:] = np.roll(np.conj(h[..., ::-1, ::-1, :0:-1]), 1, axis=(-3, -2))
    return out


@given(K=st.integers(0, 10), batch=st.sampled_from([(), (2,)]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_half_and_full_cubes_convert_exactly(K, batch, seed):
    g = FrequencyLattice(K)
    rng = np.random.default_rng(seed)
    P = g.pad_size(2)
    h = from_physical(rng.standard_normal(batch + (P, P, P)), g, P)
    assert h.shape == batch + g.shape
    full = _mirror(h, g)
    assert np.array_equal(full, _mirror_as_before(h, g))
    assert np.array_equal(full[..., : K + 1], h)
    assert hermitian_defect(full) <= 1e-15 * np.max(np.abs(full))


def test_pad_size_covers_degree():
    g = FrequencyLattice(8)
    assert g.pad_size(2) >= 3 * 8 + 1
    assert g.pad_size(4) >= 5 * 8 + 1


def test_fast_len_is_scipys_next_fast_len():
    # the pad sizes fix the outputs, so they are scipy's, value for value
    for n in range(1, 2049):
        assert fourier.fast_len(n) == scipy.fft.next_fast_len(n, real=False)
        assert fourier.fast_len(n, (2, 3, 5)) == scipy.fft.next_fast_len(n, real=True)


# ---------------------------------------------------------------------------
# the pruned real pair against full-grid transforms


def _hermitian_cube(g, rng, batch=()):
    z = rng.standard_normal(batch + (g.n,) * 3) \
        + 1j * rng.standard_normal(batch + (g.n,) * 3)
    return z + np.conj(reflected(z))


def _full_grid_pair(g, P):
    """Reference pair: the cube embedded in an explicit zero (P,P,P) array,
    full 3-D transforms, the cube extracted again.  The forward reference is
    the complex fftn of the real samples, so it needs no conjugate mirror."""
    idx = np.r_[0:g.K + 1, P - g.K:P]
    cube = np.ix_(idx, idx, idx)

    def to_phys(c):
        full = np.zeros(c.shape[:-3] + (P, P, P), dtype=np.complex128)
        for b in np.ndindex(c.shape[:-3]):
            full[b][cube] = c[b]
        return scipy.fft.irfftn(full, s=(P, P, P), axes=(-3, -2, -1)) * P**3

    def from_phys(f):
        full = scipy.fft.fftn(f, axes=(-3, -2, -1)) / P**3
        out = np.empty(f.shape[:-3] + (g.n,) * 3, dtype=np.complex128)
        for b in np.ndindex(f.shape[:-3]):
            out[b] = full[b][cube]
        return out

    return to_phys, from_phys


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@given(K=st.integers(0, 10), degree=st.integers(1, 5),
       batch=st.sampled_from([(), (2,)]), seed=st.integers(0, 2**32 - 1))
@example(K=24, degree=4, batch=(), seed=0)  # P = 121
@settings(max_examples=40, deadline=None)
def test_pruned_pair_matches_full_grid_transforms(K, degree, batch, seed):
    g = FrequencyLattice(K)
    P = g.pad_size(degree)  # odd and even sizes both occur
    rng = np.random.default_rng(seed)
    to_ref, from_ref = _full_grid_pair(g, P)
    c = _hermitian_cube(g, rng, batch)
    x = to_physical(c[..., : K + 1], g, P)
    assert x.shape == batch + (P, P, P) and np.isrealobj(x)
    assert _rel(x, to_ref(c)) <= 1e-13
    f = rng.standard_normal(batch + (P, P, P))
    assert _rel(_mirror(from_physical(f, g, P), g), from_ref(f)) <= 1e-13


_BLAS_RUN = """
import hashlib
import numpy as np
from phi4sim.fourier import FrequencyLattice, from_physical, product, to_physical
rng = np.random.default_rng(7)
h = hashlib.sha256()
for K, degree in ((2, 2), (8, 2), (8, 3), (8, 4), (24, 5), (40, 2)):
    g = FrequencyLattice(K)
    P = g.pad_size(degree)
    f = rng.standard_normal((3, P, P, P))
    c = from_physical(f, g, P)
    for a in (c, to_physical(c, g, P), product(c[0], c[1], g, degree)):
        h.update(np.ascontiguousarray(a).tobytes())
print(h.hexdigest())
"""


def test_pruned_pair_is_independent_of_thread_count():
    # to_physical, from_physical and product give the same bits with one and
    # with two workers and BLAS threads, also where OpenBLAS would split a
    # product across its threads (K = 24, P = 147 and K = 40, P = 121)
    import phi4sim

    src = os.path.dirname(os.path.dirname(phi4sim.__file__))
    digests = []
    for n in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=n,
                   OMP_NUM_THREADS=n, PHI4_THREADS=n)
        out = subprocess.run([sys.executable, "-c", _BLAS_RUN], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@pytest.mark.parametrize("degree", [2, 4])
def test_pruned_pair_of_a_batch_is_the_pair_of_each_slice(degree, rng):
    # batch dimensions are looped over one slice at a time: chunk independence
    g = FrequencyLattice(8)
    P = g.pad_size(degree)
    c = _hermitian_cube(g, rng, (2, 3))[..., : g.K + 1]
    f = rng.standard_normal((2, 3, P, P, P))
    x, h = to_physical(c, g, P), from_physical(f, g, P)
    for b in np.ndindex(2, 3):
        assert np.array_equal(x[b], to_physical(c[b], g, P))
        assert np.array_equal(h[b], from_physical(f[b], g, P))
    assert np.array_equal(x[1], to_physical(c[1], g, P))  # a sub-batch too


@pytest.mark.parametrize("batch", [(), (2, 3)], ids=["single", "batched"])
def test_to_physical_into_out_is_the_fresh_result(batch, rng):
    g = FrequencyLattice(4)
    P = g.pad_size(3)
    c = _hermitian_cube(g, rng, batch)[..., : g.K + 1]
    out = np.full(batch + (P, P, P), np.nan)
    assert to_physical(c, g, P, out=out) is out
    assert np.array_equal(out, to_physical(c, g, P))
    for bad in (np.empty(batch + (P, P, P + 1)), np.empty((P, P, P, 1)),
                np.empty(batch + (P, P, P), dtype=np.float32),
                np.empty(batch + (P, P, P), dtype=np.complex128)):
        with pytest.raises(GridError, match="out must be"):
            to_physical(c, g, P, out=bad)


def test_pruned_pair_rejects_a_grid_smaller_than_the_lattice(rng):
    g = FrequencyLattice(3)
    c = _hermitian_cube(g, rng)[..., : g.K + 1]
    with pytest.raises(GridError, match="smaller than lattice"):
        to_physical(c, g, g.n - 1)
    with pytest.raises(GridError, match="smaller than lattice"):
        from_physical(rng.standard_normal((g.n - 1,) * 3), g, g.n - 1)


@pytest.mark.parametrize("K", [0, 1, 4])
def test_pruned_pair_round_trips_without_padding(K, rng):
    g = FrequencyLattice(K)
    c = _hermitian_cube(g, rng)[..., : K + 1]
    for P in {g.n, g.pad_size(3)}:  # P = 2K+1 has no zero lines at all
        assert _rel(from_physical(to_physical(c, g, P), g, P), c) <= 1e-13


# ---------------------------------------------------------------------------
# products


def _direct_convolution(F, G, g):
    """O(n^6) reference convolution of two half spectra projected to the full
    cube."""
    K, n = g.K, g.n
    Fc, Gc = _mirror(F, g), _mirror(G, g)
    out = np.zeros((n, n, n), dtype=np.complex128)
    rng = range(-K, K + 1)
    for a1 in rng:
        for a2 in rng:
            for a3 in rng:
                fa = Fc[a1 % n, a2 % n, a3 % n]
                if fa == 0:
                    continue
                for b1 in rng:
                    for b2 in rng:
                        for b3 in rng:
                            c = (a1 + b1, a2 + b2, a3 + b3)
                            if max(abs(c[0]), abs(c[1]), abs(c[2])) > K:
                                continue
                            out[c[0] % n, c[1] % n, c[2] % n] += \
                                fa * Gc[b1 % n, b2 % n, b3 % n]
    return out


def test_product_matches_direct_convolution(rng):
    g = FrequencyLattice(2)
    F = random_hermitian_field(g, rng)
    G = random_hermitian_field(g, rng)
    got = _mirror(product(F, G, g), g)
    want = _direct_convolution(F, G, g)
    assert np.max(np.abs(got - want)) < 1e-12


def test_product_of_single_modes_adds_frequencies():
    g = FrequencyLattice(3)
    f = delta_field(g, (1, 0, 2))
    h = delta_field(g, (2, -1, 0))
    p = _mirror(product(f, h, g), g)
    # (e_a + e_-a)(e_b + e_-b) has the four modes +-a +-b
    sums = [(3, -1, 2), (-1, 1, 2), (1, -1, -2), (-3, 1, -2)]
    for k in sums:
        assert abs(p[tuple(ki % g.n for ki in k)] - 1.0) < 1e-13
    assert np.count_nonzero(np.abs(p) > 1e-13) == len(sums)


def test_product_outside_cube_is_projected_away():
    g = FrequencyLattice(2)
    f = delta_field(g, (2, 0, 0))
    p = product(f, f, g)  # modes +-4 exceed the cutoff, 2 e_0 survives
    assert abs(p[0, 0, 0] - 2.0) < 1e-14
    p[0, 0, 0] = 0.0
    assert np.max(np.abs(p)) < 1e-14


def test_no_aliasing_in_cubic_power(rng):
    g = FrequencyLattice(2)
    F = random_hermitian_field(g, rng)
    P = g.pad_size(3)
    cube = _mirror(from_physical(to_physical(F, g, P)**3, g, P), g)
    # compare against pairwise convolution done fully alias-free at degree 3
    want = _direct_convolution_3(F, g)
    assert np.max(np.abs(cube - want)) < 1e-11


def test_to_physical_rejects_a_full_cube(rng):
    # a full cube's k3 < 0 columns would be read as k3 > K without the check
    g = FrequencyLattice(2)
    full = _mirror(random_hermitian_field(g, rng), g)
    with pytest.raises(GridError, match="half spectrum"):
        to_physical(full, g, g.pad_size(2))


def test_from_physical_rejects_complex_samples():
    g = FrequencyLattice(2)
    with pytest.raises(TypeError, match="real samples"):
        from_physical(np.ones((g.n,) * 3) * 1j, g, g.n)


def _direct_convolution_3(F, g):
    big = FrequencyLattice(2 * g.K)
    K = g.K
    idx = np.concatenate([np.arange(0, K + 1), np.arange(big.n - K, big.n)])
    cube = np.ix_(idx, idx, idx)
    c = np.zeros((big.n,) * 3, dtype=np.complex128)
    c[cube] = _mirror(F, g)
    Fb = c[..., : big.K + 1]
    sq_full = _direct_convolution(Fb, Fb, big)  # cube 2K holds the full square
    out_big = _direct_convolution(sq_full[..., : big.K + 1], Fb, big)
    return out_big[cube]


# ---------------------------------------------------------------------------
# dispersion symbols


def test_bracket_limit_is_shifted_laplacian():
    Q = DispersionQ.quartic(0.0, nu=1.0)
    for k in ((0, 0, 0), (1, 0, 0), (2, 1, 0)):
        ksq = sum(x * x for x in k)
        assert abs(Q.bracket_sq(np.sqrt(ksq)) - (1 + 4 * np.pi**2 * ksq)) < 1e-12


def test_bracket_positive_eps_formula():
    eps, nu = 0.3, 2.0
    Q = DispersionQ.quartic(eps, nu)
    k = np.sqrt(5.0)
    z = 2 * np.pi * eps * k
    want = 1 + (z**2 + nu * z**4) / eps**2
    assert abs(Q.bracket_sq(k) - want) < 1e-12


@pytest.mark.parametrize("eps", [-0.1, 1.5, float("nan")])
def test_symbol_rejects_eps_outside_the_unit_interval(eps):
    with pytest.raises(SymbolError, match=r"\[0, 1\]"):
        DispersionQ.quartic(eps)


def test_negative_symbol_rejected():
    Q = DispersionQ(lambda z: -np.ones_like(np.asarray(z, float)), 0.5)
    with pytest.raises(SymbolError):
        Q.bracket_sq(np.array([1.0, 2.0]))


def test_validate_symbol_accepts_quartic():
    rep = validate_symbol(DispersionQ.quartic(0.1, nu=1.0))
    assert rep.passed
    assert rep.items["normalization"] and rep.items["positivity"]
    assert rep.items["growth"] and abs(rep.eta_hat - 1.0) < 0.1
    assert rep.items["derivative_bounds"] is None


def test_validate_symbol_flags_insufficient_growth():
    rep = validate_symbol(DispersionQ.laplacian(0.1))
    assert not rep.items["growth"]
    assert rep.eta_hat < 0
    assert not rep.passed


# ---------------------------------------------------------------------------
# semigroup and quadrature


def test_exponential_quadrature_exact_for_constant_forcing():
    g = FrequencyLattice(2)
    Q = DispersionQ.quartic(0.0, nu=1.0)
    dt = 0.37
    quad = ExponentialQuadrature(g, Q, dt)
    y0 = np.ones(g.shape, dtype=np.complex128)
    u = 2.5 * np.ones_like(y0)
    got = quad.advance(y0, u)
    b = Q.bracket_sq_grid(g)
    want = np.exp(-dt * b) * y0 + (1 - np.exp(-dt * b)) / b * u
    assert np.max(np.abs(got - want)) < 1e-14


def test_quadrature_decay_composes():
    g = FrequencyLattice(2)
    Q = DispersionQ.quartic(0.1, nu=0.5)
    q1 = ExponentialQuadrature(g, Q, 0.2)
    q2 = ExponentialQuadrature(g, Q, 0.3)
    q3 = ExponentialQuadrature(g, Q, 0.5)
    assert np.max(np.abs(q1.decay * q2.decay - q3.decay)) < 1e-14


# ---------------------------------------------------------------------------
# snapshots and determinism


def test_snapshot_round_trip(tmp_path, rng):
    g = FrequencyLattice(3)
    f = random_hermitian_field(g, rng)
    path = tmp_path / "field.fld"
    save_field(path, f, g)
    grid, back = load_field(path)
    assert grid == g
    assert np.array_equal(back, f)


def test_snapshot_holds_the_full_cube(tmp_path, rng):
    # the file format is the (re, im) pairs of all (2K+1)^3 modes
    g = FrequencyLattice(2)
    f = random_hermitian_field(g, rng)
    path = tmp_path / "field.fld"
    save_field(path, f, g)
    raw = np.frombuffer(path.read_bytes()[17:], dtype="<f8")
    assert np.array_equal(raw[0::2] + 1j * raw[1::2], _mirror(f, g).ravel())


@pytest.mark.parametrize("offset, value", [(12, b"\x09"), (16, b"\x00")],
                         ids=["M", "flag"])
def test_snapshot_rejects_header_of_no_real_cube(tmp_path, rng, offset, value):
    # bytes 12..15 hold M (must be 2K+1), byte 16 the flag (must be 1)
    path, g = tmp_path / "field.fld", FrequencyLattice(2)
    save_field(path, random_hermitian_field(g, rng), g)
    data = bytearray(path.read_bytes())
    data[offset:offset + 1] = value
    path.write_bytes(bytes(data))
    with pytest.raises(GridError, match="header"):
        load_field(path)


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fld"
    path.write_bytes(b"NOTAFLD0" + b"\x00" * 32)
    with pytest.raises(GridError):
        load_field(path)


def test_snapshot_rejects_truncation(tmp_path, rng):
    g = FrequencyLattice(2)
    f = random_hermitian_field(g, rng)
    path = tmp_path / "trunc.fld"
    save_field(path, f, g)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(GridError):
        load_field(path)


def test_snapshot_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.fld"
    path.write_bytes(b"PHI4FLD1\x02\x00")
    with pytest.raises(GridError, match="header"):
        load_field(path)


def test_snapshot_rejects_trailing_bytes(tmp_path, rng):
    g = FrequencyLattice(2)
    path = tmp_path / "long.fld"
    save_field(path, random_hermitian_field(g, rng), g)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(GridError):
        load_field(path)


def test_snapshot_rejects_a_cube_of_no_real_field(tmp_path, rng):
    # a valid header over a random complex cube: its k3 < 0 half is not the
    # conjugate mirror of the stored half, so no real field has this spectrum
    path, g = tmp_path / "complex.fld", FrequencyLattice(2)
    save_field(path, random_hermitian_field(g, rng), g)
    data = path.read_bytes()
    c = rng.standard_normal((5, 5, 5)) + 1j * rng.standard_normal((5, 5, 5))
    path.write_bytes(data[:17] + c.astype("<c16").tobytes())
    with pytest.raises(GridError, match="real field"):
        load_field(path)


def test_results_independent_of_thread_count(rng):
    # at K = 24 the passes are cut into blocks that the workers share; eight
    # workers on fewer cores, switching often, write the same bits as one
    g = FrequencyLattice(24)
    P = g.pad_size(5)
    assert len(fourier._spans(g, P, g.n)) > 2
    F = random_hermitian_field(g, rng)
    G = random_hermitian_field(g, rng)
    f = rng.standard_normal((2, P, P, P))
    before, interval = get_threads(), sys.getswitchinterval()
    runs = []
    try:
        sys.setswitchinterval(1e-6)
        for n in (1, 8):
            set_threads(n)
            runs.append((product(F, G, g, 5), from_physical(f, g, P),
                         to_physical(F, g, P)))
    finally:
        set_threads(before)
        sys.setswitchinterval(interval)
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_thread_count_from_environment_is_clamped():
    import phi4sim

    src = os.path.dirname(os.path.dirname(phi4sim.__file__))
    env = dict(os.environ, PHI4_THREADS="-1", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import phi4sim.fourier as f; print(f.get_threads())"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"
