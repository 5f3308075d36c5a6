import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from phi4sim.errors import GridError, SymbolError
from phi4sim.fourier import (DispersionQ, ExponentialQuadrature, FourierField,
                             FrequencyLattice, apply_semigroup, bracket_eps,
                             from_physical, get_threads, load_field, product,
                             save_field, set_threads, to_physical,
                             validate_symbol)
from conftest import delta_field, hermitian_defect, random_hermitian_field


# ---------------------------------------------------------------------------
# lattice and transforms


def test_lattice_shapes_and_frequencies():
    g = FrequencyLattice(3)
    assert g.n == 7
    assert list(g.freqs) == [0, 1, 2, 3, -3, -2, -1]
    assert g.ksq[0, 0, 0] == 0
    assert g.ksq[1, 0, 0] == 1
    assert g.ksq[-1, 0, 0] == 1


def test_lattice_rejects_bad_sizes():
    with pytest.raises(GridError):
        FrequencyLattice(-1)


def test_reflect_is_mode_negation():
    g = FrequencyLattice(2)
    c = np.zeros((g.n,) * 3)
    c[1, (-2) % g.n, 0] = 1.0
    r = g.reflect(c)
    assert r[(-1) % g.n, 2 % g.n, 0] == 1.0
    assert np.count_nonzero(r) == 1


@given(K=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_forward_inverse_round_trip(K, seed):
    g = FrequencyLattice(K)
    rng = np.random.default_rng(seed)
    f = random_hermitian_field(g, rng)
    again = from_physical(to_physical(f.coeffs, g, g.n), g, g.n)
    assert np.max(np.abs(again - f.coeffs)) < 1e-12


def test_forward_of_real_samples_is_hermitian(rng):
    g = FrequencyLattice(3)
    f = random_hermitian_field(g, rng)
    assert hermitian_defect(f) < 1e-12


def test_pad_size_covers_degree():
    g = FrequencyLattice(8)
    assert g.pad_size(2) >= 3 * 8 + 1
    assert g.pad_size(4) >= 5 * 8 + 1


# ---------------------------------------------------------------------------
# the pruned real pair against full-grid transforms


def _hermitian_cube(g, rng, batch=()):
    z = rng.standard_normal(batch + (g.n,) * 3) \
        + 1j * rng.standard_normal(batch + (g.n,) * 3)
    return z + np.conj(g.reflect(z))


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
@settings(max_examples=40, deadline=None)
def test_pruned_pair_matches_full_grid_transforms(K, degree, batch, seed):
    g = FrequencyLattice(K)
    P = g.pad_size(degree)  # odd and even sizes both occur
    rng = np.random.default_rng(seed)
    to_ref, from_ref = _full_grid_pair(g, P)
    c = _hermitian_cube(g, rng, batch)
    x = to_physical(c, g, P)
    assert x.shape == batch + (P, P, P) and np.isrealobj(x)
    assert _rel(x, to_ref(c)) <= 1e-13
    f = rng.standard_normal(batch + (P, P, P))
    assert _rel(from_physical(f, g, P), from_ref(f)) <= 1e-13


def test_pruned_pair_is_independent_of_thread_count(rng):
    g = FrequencyLattice(6)
    P = g.pad_size(3)
    c = _hermitian_cube(g, rng, (3,))
    f = rng.standard_normal((3, P, P, P))
    before = get_threads()
    try:
        runs = []
        for n in (1, 2):
            set_threads(n)
            runs.append((to_physical(c, g, P), from_physical(f, g, P)))
    finally:
        set_threads(before)
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


@pytest.mark.parametrize("K", [0, 1, 4])
def test_pruned_pair_round_trips_without_padding(K, rng):
    g = FrequencyLattice(K)
    c = _hermitian_cube(g, rng)
    for P in {g.n, g.pad_size(3)}:  # P = 2K+1 has no zero lines at all
        assert _rel(from_physical(to_physical(c, g, P), g, P), c) <= 1e-13


# ---------------------------------------------------------------------------
# products


def _direct_convolution(F, G):
    """O(n^6) reference convolution projected to the cube."""
    g = F.grid
    K, n = g.K, g.n
    out = np.zeros((n, n, n), dtype=np.complex128)
    rng = range(-K, K + 1)
    for a1 in rng:
        for a2 in rng:
            for a3 in rng:
                fa = F.coeffs[a1 % n, a2 % n, a3 % n]
                if fa == 0:
                    continue
                for b1 in rng:
                    for b2 in rng:
                        for b3 in rng:
                            c = (a1 + b1, a2 + b2, a3 + b3)
                            if max(abs(c[0]), abs(c[1]), abs(c[2])) > K:
                                continue
                            out[c[0] % n, c[1] % n, c[2] % n] += \
                                fa * G.coeffs[b1 % n, b2 % n, b3 % n]
    return out


def test_product_matches_direct_convolution(rng):
    g = FrequencyLattice(2)
    F = random_hermitian_field(g, rng)
    G = random_hermitian_field(g, rng)
    got = product(F, G).coeffs
    want = _direct_convolution(F, G)
    assert np.max(np.abs(got - want)) < 1e-12


def test_product_of_single_modes_adds_frequencies():
    g = FrequencyLattice(3)
    f = delta_field(g, (1, 0, 2))
    h = delta_field(g, (2, -1, 0))
    p = product(f, h).coeffs
    # (e_a + e_-a)(e_b + e_-b) has the four modes +-a +-b
    sums = [(3, -1, 2), (-1, 1, 2), (1, -1, -2), (-3, 1, -2)]
    for k in sums:
        assert abs(p[tuple(ki % g.n for ki in k)] - 1.0) < 1e-13
    assert np.count_nonzero(np.abs(p) > 1e-13) == len(sums)


def test_product_outside_cube_is_projected_away():
    g = FrequencyLattice(2)
    f = delta_field(g, (2, 0, 0))
    p = product(f, f).coeffs  # modes +-4 exceed the cutoff, 2 e_0 survives
    assert abs(p[0, 0, 0] - 2.0) < 1e-14
    p[0, 0, 0] = 0.0
    assert np.max(np.abs(p)) < 1e-14


def test_no_aliasing_in_cubic_power(rng):
    g = FrequencyLattice(2)
    F = random_hermitian_field(g, rng)
    P = g.pad_size(3)
    cube = from_physical(to_physical(F.coeffs, g, P)**3, g, P)
    # compare against pairwise convolution done fully alias-free at degree 3
    want = _direct_convolution_3(F)
    assert np.max(np.abs(cube - want)) < 1e-11


def test_from_physical_rejects_complex_samples():
    g = FrequencyLattice(2)
    with pytest.raises(TypeError, match="real samples"):
        from_physical(np.ones((g.n,) * 3) * 1j, g, g.n)


def test_field_rejects_complex_scale(rng):
    F = random_hermitian_field(FrequencyLattice(2), rng)
    for scale in (1j, np.complex128(2.0)):
        with pytest.raises(TypeError):
            F * scale
        with pytest.raises(TypeError):
            scale * F


def _direct_convolution_3(F):
    g = F.grid
    big = FrequencyLattice(2 * g.K)
    K = g.K
    idx = np.concatenate([np.arange(0, K + 1), np.arange(big.n - K, big.n)])
    cube = np.ix_(idx, idx, idx)
    c = np.zeros((big.n,) * 3, dtype=np.complex128)
    c[cube] = F.coeffs
    Fb = FourierField(big, c)
    sq_full = _direct_convolution(Fb, Fb)  # cube 2K holds the full square
    out_big = _direct_convolution(FourierField(big, sq_full), Fb)
    return out_big[cube]


# ---------------------------------------------------------------------------
# dispersion symbols


def test_bracket_limit_is_shifted_laplacian():
    Q = DispersionQ.quartic(0.0, nu=1.0)
    for k in ((0, 0, 0), (1, 0, 0), (2, 1, 0)):
        ksq = sum(x * x for x in k)
        assert abs(bracket_eps(Q, k)**2 - (1 + 4 * np.pi**2 * ksq)) < 1e-12


def test_bracket_positive_eps_formula():
    eps, nu = 0.3, 2.0
    Q = DispersionQ.quartic(eps, nu)
    k = np.sqrt(5.0)
    z = 2 * np.pi * eps * k
    want = 1 + (z**2 + nu * z**4) / eps**2
    assert abs(Q.bracket_sq(k) - want) < 1e-12


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


@given(t=st.floats(0.0, 2.0), s=st.floats(0.0, 2.0), seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_semigroup_property(t, s, seed):
    g = FrequencyLattice(3)
    rng = np.random.default_rng(seed)
    f = random_hermitian_field(g, rng)
    Q = DispersionQ.quartic(0.2, nu=1.0)
    once = apply_semigroup(f, Q, t + s)
    twice = apply_semigroup(apply_semigroup(f, Q, t), Q, s)
    assert np.max(np.abs(once.coeffs - twice.coeffs)) < 1e-12


def test_semigroup_at_zero_is_identity(rng):
    g = FrequencyLattice(3)
    f = random_hermitian_field(g, rng)
    out = apply_semigroup(f, DispersionQ.laplacian(0.0), 0.0)
    assert np.array_equal(out.coeffs, f.coeffs)


def test_exponential_quadrature_exact_for_constant_forcing():
    g = FrequencyLattice(2)
    Q = DispersionQ.quartic(0.0, nu=1.0)
    dt = 0.37
    quad = ExponentialQuadrature(g, Q, dt)
    y0 = np.ones((g.n,) * 3, dtype=np.complex128)
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
    save_field(path, f)
    back = load_field(path)
    assert back.grid == g
    assert np.array_equal(back.coeffs, f.coeffs)


@pytest.mark.parametrize("offset, value", [(12, b"\x09"), (16, b"\x00")],
                         ids=["M", "flag"])
def test_snapshot_rejects_header_of_no_real_cube(tmp_path, rng, offset, value):
    # bytes 12..15 hold M (must be 2K+1), byte 16 the flag (must be 1)
    path = tmp_path / "field.fld"
    save_field(path, random_hermitian_field(FrequencyLattice(2), rng))
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
    save_field(path, f)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(GridError):
        load_field(path)


def test_snapshot_rejects_trailing_bytes(tmp_path, rng):
    g = FrequencyLattice(2)
    path = tmp_path / "long.fld"
    save_field(path, random_hermitian_field(g, rng))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(GridError):
        load_field(path)


def test_results_independent_of_thread_count(rng):
    g = FrequencyLattice(4)
    F = random_hermitian_field(g, rng)
    G = random_hermitian_field(g, rng)
    before = get_threads()
    try:
        set_threads(1)
        p1 = product(F, G).coeffs.copy()
        set_threads(2)
        p2 = product(F, G).coeffs.copy()
    finally:
        set_threads(before)
    assert np.array_equal(p1, p2)


def test_thread_count_from_environment_is_clamped():
    import phi4sim

    src = os.path.dirname(os.path.dirname(phi4sim.__file__))
    env = dict(os.environ, PHI4_THREADS="-1", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import phi4sim.fourier as f; print(f.get_threads())"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"
