import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4sim.fourier import DispersionQ, FrequencyLattice, _mirror
from phi4sim.gaussian import (NoiseSeed, TAG_INIT, TAG_OU, advance,
                              gaussian_expectation, hermite, ou_increment,
                              ou_transition, sample_stationary,
                              unit_hermitian_normals)
from conftest import chaos_coefficients, hermitian_defect, reflected


# ---------------------------------------------------------------------------
# counter-based streams


def test_normals_are_hermitian_and_deterministic():
    g = FrequencyLattice(3)
    seed = NoiseSeed(42)
    z1 = unit_hermitian_normals(seed, g, sample=0, tag=TAG_INIT, step=0)
    z2 = unit_hermitian_normals(seed, g, sample=0, tag=TAG_INIT, step=0)
    assert np.array_equal(z1, z2)
    assert z1.shape == g.shape
    assert hermitian_defect(_mirror(z1, g)) < 1e-15
    assert abs(z1[0, 0, 0].imag) < 1e-15  # the self-conjugate mode is real


@pytest.mark.parametrize("K", [0, 1, 2, 3, 8])
def test_normals_are_the_half_of_the_symmetrized_cube(K):
    # the stream is drawn over the whole cube, so the half is bit-identical
    # to the k3 >= 0 columns of the symmetrized draw
    g = FrequencyLattice(K)
    seed = NoiseSeed(42)
    ss = np.random.SeedSequence([42, 1, TAG_OU, 5])
    ab = np.random.Generator(np.random.Philox(seed=ss)).standard_normal(
        (2,) + (g.n,) * 3)
    z = (ab[0] + 1j * ab[1]) / np.sqrt(2.0)
    full = (z + np.conj(reflected(z))) / np.sqrt(2.0)
    got = unit_hermitian_normals(seed, g, sample=1, tag=TAG_OU, step=5)
    assert np.array_equal(got.view(np.int64), full[..., : g.K + 1].view(np.int64))
    assert np.array_equal(_mirror(got, g), full)


def test_distinct_counters_give_distinct_draws():
    g = FrequencyLattice(2)
    seed = NoiseSeed(42)
    base = unit_hermitian_normals(seed, g, 0, TAG_OU, 0)
    for other in (unit_hermitian_normals(seed, g, 1, TAG_OU, 0),
                  unit_hermitian_normals(seed, g, 0, TAG_INIT, 0),
                  unit_hermitian_normals(seed, g, 0, TAG_OU, 1),
                  unit_hermitian_normals(NoiseSeed(43), g, 0, TAG_OU, 0)):
        assert not np.array_equal(base, other)


def test_unit_variance_of_normals():
    g = FrequencyLattice(2)
    seed = NoiseSeed(7)
    M = 4000
    acc = np.zeros(g.shape)
    for m in range(M):
        z = unit_hermitian_normals(seed, g, m, TAG_INIT, 0)
        acc += np.abs(z) ** 2
    mean = acc / M
    # |Z|^2 has variance 1 (complex modes) or 2 (the real mode); z-test at 4 sigma
    tol = 4.0 * np.sqrt(2.0 / M)
    assert np.max(np.abs(mean - 1.0)) < tol


# ---------------------------------------------------------------------------
# stationary field and the mode evolution


def test_stationary_spectrum():
    g = FrequencyLattice(2)
    Q = DispersionQ.quartic(0.2, nu=1.0)
    seed = NoiseSeed(3)
    bsq = Q.bracket_sq_grid(g)
    M = 4000
    acc = np.zeros(g.shape)
    for m in range(M):
        acc += np.abs(sample_stationary(seed, g, Q, sample=m).coeffs) ** 2
    mean = acc / M
    want = 0.5 / bsq
    z = (mean - want) / (want * np.sqrt(2.0 / M))
    assert np.max(np.abs(z)) < 5.0


def test_advance_matches_decay_plus_increment():
    g = FrequencyLattice(2)
    Q = DispersionQ.quartic(0.1, nu=0.5)
    seed = NoiseSeed(9)
    ens = sample_stationary(seed, g, Q)
    dt = 0.07
    new = advance(ens, dt)
    decay = np.exp(-dt * Q.bracket_sq_grid(g))
    inc = ou_increment(seed, g, ens.sample, ens.step, ou_transition(g, Q, dt))
    assert np.max(np.abs(new.coeffs - (decay * ens.coeffs + inc))) < 1e-15
    assert new.step == ens.step + 1


def test_advance_is_decay_plus_ou_increment_bit_for_bit():
    # brute_force_reference regenerates the noise path through ou_increment
    g = FrequencyLattice(3)
    Q = DispersionQ.quartic(0.2, nu=1.0)
    seed = NoiseSeed(5)
    ens = advance(sample_stationary(seed, g, Q, sample=2), 0.01)
    dt = 0.003
    decay = np.exp(-dt * Q.bracket_sq_grid(g))
    inc = ou_increment(seed, g, ens.sample, ens.step, ou_transition(g, Q, dt))
    assert np.array_equal(advance(ens, dt).coeffs, decay * ens.coeffs + inc)


def test_advance_with_a_precomputed_transition_is_the_plain_step():
    # the noise builds compute ou_transition once per step size
    g = FrequencyLattice(3)
    Q = DispersionQ.quartic(0.2, nu=1.0)
    ens = advance(sample_stationary(NoiseSeed(5), g, Q, sample=1), 0.01)
    for dt in (0.01, 0.003):
        new = advance(ens, dt, ou_transition(g, Q, dt))
        assert new.step == ens.step + 1
        assert np.array_equal(new.coeffs, advance(ens, dt).coeffs)


def test_advance_rejects_nonpositive_step():
    g = FrequencyLattice(1)
    ens = sample_stationary(NoiseSeed(0), g, DispersionQ.laplacian(0.0))
    with pytest.raises(ValueError):
        advance(ens, 0.0)


def test_matched_counters_couple_different_symbols():
    # the same underlying normals drive both symbols: coefficients agree after
    # rescaling by the spectral standard deviations
    g = FrequencyLattice(3)
    seed = NoiseSeed(5)
    Qa = DispersionQ.quartic(0.2, nu=1.0)
    Qb = DispersionQ.laplacian(0.0)
    ea = sample_stationary(seed, g, Qa, sample=4)
    eb = sample_stationary(seed, g, Qb, sample=4)
    za = ea.coeffs * np.sqrt(2.0 * Qa.bracket_sq_grid(g))
    zb = eb.coeffs * np.sqrt(2.0 * Qb.bracket_sq_grid(g))
    assert np.max(np.abs(za - zb)) < 1e-13


# ---------------------------------------------------------------------------
# Hermite / chaos machinery


def test_hermite_low_orders():
    x = np.linspace(-3, 3, 31)
    nu = 0.7
    assert np.allclose(hermite(0, x, nu), 1.0)
    assert np.allclose(hermite(1, x, nu), x)
    assert np.allclose(hermite(2, x, nu), x**2 - nu)
    assert np.allclose(hermite(3, x, nu), x**3 - 3 * nu * x)
    assert np.allclose(hermite(4, x, nu), x**4 - 6 * nu * x**2 + 3 * nu**2)


def test_gaussian_expectation_moments():
    s2 = 1.7
    assert abs(gaussian_expectation(np.array([0, 0, 1.0]), s2) - s2) < 1e-14
    assert abs(gaussian_expectation(np.array([0, 0, 0, 0, 1.0]), s2)
               - 3 * s2**2) < 1e-12
    assert gaussian_expectation(np.array([0, 1.0]), s2) == 0.0  # odd


def test_gaussian_expectation_rejects_negative_variance():
    with pytest.raises(ValueError):
        gaussian_expectation(np.array([1.0]), -1.0)


@given(coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=7),
       nu=st.floats(0.1, 3.0))
@settings(max_examples=40, deadline=None)
def test_chaos_expansion_reconstructs_polynomial(coeffs, nu):
    c = np.asarray(coeffs, dtype=np.float64)
    ck = chaos_coefficients(c, nu)
    x = np.linspace(-2.5, 2.5, 17)
    want = np.polynomial.polynomial.polyval(x, c)
    got = sum(ck[k] * hermite(k, x, nu) for k in range(len(ck)))
    scale = 1.0 + np.max(np.abs(want))
    assert np.max(np.abs(got - want)) / scale < 1e-10


def test_hermite_chaos_of_pure_hermite_is_unit_vector():
    nu = 1.3
    # H_3 as an ordinary polynomial: x^3 - 3 nu x
    c = np.array([0.0, -3 * nu, 0.0, 1.0])
    ck = chaos_coefficients(c, nu)
    want = [0.0, 0.0, 0.0, 1.0]
    assert np.allclose(ck, want, atol=1e-12)
