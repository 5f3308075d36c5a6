import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4sim.fourier import DispersionQ, FrequencyLattice
from phi4sim.gaussian import (NoiseSeed, TAG_INIT, TAG_OU, advance,
                              band_mask, chaos_coefficients,
                              gaussian_expectation, hermite, ou_increment,
                              sample_stationary, unit_hermitian_normals,
                              wick_power)


# ---------------------------------------------------------------------------
# counter-based streams


def test_normals_are_hermitian_and_deterministic():
    g = FrequencyLattice(3)
    seed = NoiseSeed(42)
    z1 = unit_hermitian_normals(seed, g, sample=0, tag=TAG_INIT, step=0)
    z2 = unit_hermitian_normals(seed, g, sample=0, tag=TAG_INIT, step=0)
    assert np.array_equal(z1, z2)
    defect = np.max(np.abs(g.reflect(z1) - np.conj(z1)))
    assert defect < 1e-15
    assert abs(z1[0, 0, 0].imag) < 1e-15  # the self-conjugate mode is real


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
    acc = np.zeros((g.n,) * 3)
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
    acc = np.zeros((g.n,) * 3)
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
    inc = ou_increment(seed, g, Q, ens.sample, ens.step, dt)
    assert np.max(np.abs(new.coeffs - (decay * ens.coeffs + inc))) < 1e-15
    assert new.step == ens.step + 1
    assert abs(new.t - dt) < 1e-15


@pytest.mark.parametrize("band", [None, 1])
def test_advance_is_decay_plus_ou_increment_bit_for_bit(band):
    # brute_force_reference regenerates the noise path through ou_increment
    g = FrequencyLattice(3)
    Q = DispersionQ.quartic(0.2, nu=1.0)
    seed = NoiseSeed(5)
    ens = advance(sample_stationary(seed, g, Q, sample=2, band=band), 0.01)
    dt = 0.003
    decay = np.exp(-dt * Q.bracket_sq_grid(g))
    inc = ou_increment(seed, g, Q, ens.sample, ens.step, dt, band)
    assert np.array_equal(advance(ens, dt).coeffs, decay * ens.coeffs + inc)


def test_advance_rejects_nonpositive_step():
    g = FrequencyLattice(1)
    ens = sample_stationary(NoiseSeed(0), g, DispersionQ.laplacian(0.0))
    with pytest.raises(ValueError):
        advance(ens, 0.0)


def test_band_restriction_zeroes_high_modes():
    g = FrequencyLattice(4)
    ens = sample_stationary(NoiseSeed(1), g, DispersionQ.quartic(0.2), band=2)
    mask = band_mask(g, 2)
    assert np.all(ens.coeffs[mask == 0] == 0)
    assert np.any(ens.coeffs[mask == 1] != 0)
    ens2 = advance(ens, 0.05)
    assert np.all(ens2.coeffs[mask == 0] == 0)


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


def test_wick_power_is_hermite_pointwise(rng):
    x = rng.standard_normal((4, 4, 4))
    assert np.array_equal(wick_power(x, 3, 2.0), hermite(3, x, 2.0))


def test_gaussian_expectation_moments():
    s2 = 1.7
    assert abs(gaussian_expectation(np.array([0, 0, 1.0]), s2) - s2) < 1e-14
    assert abs(gaussian_expectation(np.array([0, 0, 0, 0, 1.0]), s2)
               - 3 * s2**2) < 1e-12
    assert gaussian_expectation(np.array([0, 1.0]), s2) == 0.0  # odd


def test_gaussian_expectation_callable_agrees_with_polynomial():
    s2 = 0.9
    c = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    poly = lambda x: np.polynomial.polynomial.polyval(x, c)
    exact = gaussian_expectation(c, s2)
    assert abs(gaussian_expectation(poly, s2) - exact) < 1e-10


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
