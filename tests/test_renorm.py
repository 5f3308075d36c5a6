import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4sim.errors import GrowthViolationError
from phi4sim.fourier import (DispersionQ, FrequencyLattice, from_physical,
                             to_physical)
from phi4sim.renorm import (EvenOctant, Potential, a_coeffs, build_renorm, c1,
                            c2, c3, c_total, chaos_convolution_power,
                            coupling_lambda, g_kernel_time_integral, sigma2_eps,
                            sigma2_limit, standard_constants,
                            stationary_pair_integral,
                            time_integrated_chaos_moment)


# ---------------------------------------------------------------------------
# potential


def test_potential_shapes_and_derivatives():
    V = Potential.sextic(2.0)
    assert V.n == 3 and V.degree == 6
    x = 1.7
    assert abs(V.eval(x) - 2.0 / 6.0 * x**6) < 1e-12
    assert abs(V.eval(x, 1) - 2.0 * x**5) < 1e-12
    assert abs(V.eval(x, 4) - 2.0 * 60 * x**2) < 1e-10


def test_potential_requires_quartic_terms():
    with pytest.raises(ValueError):
        Potential((1.0,))


# ---------------------------------------------------------------------------
# variances and the coupling constant


@pytest.mark.parametrize("nu", [0.25, 1.0, 4.0])
def test_sigma2_limit_closed_form(nu):
    # 2 pi int r^2 / (4 pi^2 r^2 (1 + 4 pi^2 nu r^2)) dr = 1 / (8 pi sqrt(nu))
    Q = DispersionQ.quartic(0.1, nu=nu)
    want = 1.0 / (8.0 * np.pi * np.sqrt(nu))
    assert abs(sigma2_limit(Q) - want) / want < 1e-8


def test_sigma2_limit_rejects_insufficient_growth():
    with pytest.raises(GrowthViolationError):
        sigma2_limit(DispersionQ.laplacian(0.1))


def test_sigma2_eps_is_the_plain_lattice_sum():
    eps, K = 0.25, 3
    Q = DispersionQ.quartic(eps, nu=1.0)
    g = FrequencyLattice(K)
    want = 0.5 * eps * float(np.sum(1.0 / Q.bracket_sq_grid(g)))
    assert abs(sigma2_eps(Q, eps, K) - want) < 1e-14


def test_sigma2_eps_error_decreases_along_the_scaling():
    Q = DispersionQ.quartic(0.1, nu=1.0)
    s2 = sigma2_limit(Q)
    errs = [abs(sigma2_eps(Q, e, math.ceil(4.0 / e)) - s2)
            for e in (0.4, 0.2, 0.1)]
    assert errs[0] > errs[1] > errs[2]


def test_coupling_lambda_quartic_is_exactly_one():
    # V = x^4/4 has constant fourth derivative 6, so lambda = 1 for any variance
    V = Potential.quartic(0.25)
    assert coupling_lambda(V, 0.123) == 1.0
    assert coupling_lambda(V, 17.0) == 1.0


def test_coupling_lambda_sextic_closed_form():
    # V = a x^6 / 6: V'''' = 60 a x^2, so lambda = 10 a sigma^2 = 5a/(4 pi sqrt(nu))
    for a, nu in ((1.0, 1.0), (2.0, 0.5)):
        Q = DispersionQ.quartic(0.1, nu=nu)
        lam = coupling_lambda(Potential.sextic(a), sigma2_limit(Q))
        want = 5.0 * a / (4.0 * np.pi * np.sqrt(nu))
        assert abs(lam - want) / want < 1e-8


def test_a1_is_one_for_quartic():
    V = Potential.quartic(0.25)
    a = a_coeffs(V, 0.2, 1.0, sigma2_eps(DispersionQ.quartic(0.2), 0.2, 4))
    assert len(a) == 1 and abs(a[0] - 1.0) < 1e-14


def test_c1_quartic_closed_form():
    # V'' = 3 x^2, so C1 = 3 sigma_eps^2 / (3 lambda eps) = sigma_eps^2 / eps
    eps, K = 0.2, 4
    Q = DispersionQ.quartic(eps)
    s2e = sigma2_eps(Q, eps, K)
    V = Potential.quartic(0.25)
    assert abs(c1(V, eps, 1.0, s2e) - s2e / eps) < 1e-12


# ---------------------------------------------------------------------------
# stationary pair integrals


def _spi_bruteforce(Q, N, K):
    """Independent tuple sum, restricted to the cube, no clever chunking."""
    g = FrequencyLattice(K)
    bsq = Q.bracket_sq_grid(g)
    kv = np.stack([g.k1.ravel(), g.k2.ravel(), g.k3.ravel()], axis=-1)
    b = bsq.ravel()
    total = 0.0
    idx = np.arange(b.size)
    import itertools
    for tup in itertools.product(idx, repeat=N):
        ks = sum(kv[i] for i in tup)
        if np.max(np.abs(ks)) > K:
            continue
        btot = Q.bracket_sq(np.sqrt(float(ks @ ks)))
        total += np.prod([1.0 / b[i] for i in tup]) / (btot + sum(b[i] for i in tup))
    return math.factorial(N) / 2.0**N * total


def test_pair_integral_k0_closed_form():
    # a single mode with bracket^2 = 1: N!/2^N * 1/(N+1)
    Q = DispersionQ.quartic(0.0, nu=1.0)
    for N in (2, 3, 4):
        want = math.factorial(N) / 2.0**N / (N + 1.0)
        got = stationary_pair_integral(Q, N, 0)
        assert abs(got - want) < 1e-12


def test_pair_integral_matches_bruteforce_small():
    Q = DispersionQ.quartic(0.3, nu=1.0)
    want = _spi_bruteforce(Q, 2, 1)
    got = stationary_pair_integral(Q, 2, 1, method="direct")
    assert abs(got - want) / want < 1e-12


@pytest.mark.parametrize("N", [2, 3, 4])
def test_pair_integral_fft_matches_direct(N):
    Q = DispersionQ.quartic(0.25, nu=1.0)
    K = 1 if N == 4 else 3  # the direct sum grows like (2K+1)^(3N)
    d = stationary_pair_integral(Q, N, K, method="direct")
    f = stationary_pair_integral(Q, N, K, method="fft")
    assert abs(f - d) / d < 1e-7


def test_pair_integral_rejects_odd_pad():
    Q = DispersionQ.quartic(0.25, nu=1.0)
    with pytest.raises(ValueError):
        stationary_pair_integral(Q, 2, 3, method="fft", pad=45)


@given(K=st.integers(0, 12), extra=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_even_octant_matches_full_grid(K, extra, seed):
    # a random cube spectrum, real and even in every axis
    grid = FrequencyLattice(K)
    P = 2 * K + 2 + 2 * extra
    a = np.abs(grid.freqs)
    spec = np.random.default_rng(seed).uniform(-1.0, 1.0, (K + 1,) * 3)[np.ix_(a, a, a)]
    full = to_physical(spec, grid, P)
    octant = EvenOctant(grid, P)
    phys = octant.samples(spec)
    h = P // 2 + 1
    assert np.max(np.abs(phys - full[:h, :h, :h])) <= 1e-13 * np.max(np.abs(full))
    assert abs(octant.mean(phys**2) - np.mean(full**2)) <= 1e-13 * np.mean(full**2)
    assert np.max(np.abs(octant.spectrum(phys) - spec)) <= 1e-13
    # on a product the forward step aliases exactly like the full-grid DFT
    want = from_physical(full**2, grid, P)
    assert np.max(np.abs(octant.spectrum(phys**2) - want)) <= 1e-13 * np.max(np.abs(want))


def test_pair_integral_reduced_padding_agrees():
    # the half-padded grid used for large K drops only ~1e-12 of the mass
    Q = DispersionQ.quartic(0.25, nu=1.0)
    import scipy.fft
    full = stationary_pair_integral(Q, 2, 16, method="fft",
                                    pad=scipy.fft.next_fast_len(3 * 16 + 1, real=True))
    red = stationary_pair_integral(Q, 2, 16, method="fft",
                                   pad=scipy.fft.next_fast_len(2 * 16 + 2, real=True))
    assert abs(full - red) / full < 1e-9


def test_kernel_time_integral_k0_m1():
    # single mode: (3!/2^2) * 1/(1+2) = 1/2
    Q = DispersionQ.quartic(0.0, nu=1.0)
    assert abs(g_kernel_time_integral(Q, 0.0, 1, 0) - 0.5) < 1e-13


def test_kernel_time_integral_restricted_is_pair_integral_at_k0():
    # at k = 0 the resonance weight is identically 1, so the cube-restricted
    # kernel integral is (2m+1) times the N = 2m pair integral (the kernel
    # prefactor is (2m+1)!/2^(2m) against N!/2^N)
    Q = DispersionQ.quartic(0.3, nu=1.0)
    got = g_kernel_time_integral(Q, 0.3, 1, 1, k=(0, 0, 0), restrict=True)
    want = 3.0 * stationary_pair_integral(Q, 2, 1, method="direct")
    assert abs(got - want) / want < 1e-12


def test_chaos_convolution_power_single_mode():
    Q = DispersionQ.quartic(0.0, nu=1.0)
    out = chaos_convolution_power(Q, 3, 0)
    assert out.shape == (1, 1, 1)
    assert abs(out[0, 0, 0].real - 0.125) < 1e-12  # (1/2)^3


def test_time_integrated_chaos_moment_k0():
    # single mode, n = 2: (2!/4) * (1/4) * (1/3) = 1/6
    Q = DispersionQ.quartic(0.0, nu=1.0)
    out = time_integrated_chaos_moment(Q, 2, 0)
    assert abs(out[0, 0, 0] - 1.0 / 6.0) < 1e-10


def test_time_integrated_chaos_moment_direct_small():
    # independent tuple sum at K = 1, n = 2
    Q = DispersionQ.quartic(0.3, nu=1.0)
    K = 1
    g = FrequencyLattice(K)
    bsq = Q.bracket_sq_grid(g)
    kv = np.stack([g.k1.ravel(), g.k2.ravel(), g.k3.ravel()], axis=-1)
    b = bsq.ravel()
    want = np.zeros((g.n,) * 3)
    for i in range(b.size):
        for j in range(b.size):
            ks = kv[i] + kv[j]
            if np.max(np.abs(ks)) > K:
                continue
            tgt = tuple(ks % g.n)
            bk = bsq[tgt]
            want[tgt] += (1.0 / (2 * b[i])) * (1.0 / (2 * b[j])) / (bk + b[i] + b[j])
    want *= 2.0 / bsq  # n! / b(k), n = 2
    got = time_integrated_chaos_moment(Q, 2, K)
    assert np.max(np.abs(got - want)) / np.max(want) < 1e-8


# ---------------------------------------------------------------------------
# counterterm bundles


def test_c2_quartic_reduces_to_single_pair_integral():
    eps, K = 0.3, 2
    Q = DispersionQ.quartic(eps, nu=1.0)
    V = Potential.quartic(0.25)
    want = stationary_pair_integral(Q, 2, K)  # a_1 = 1, m = 1
    assert abs(c2(Q, V, eps, 1.0, K) - want) / want < 1e-10


def test_c3_vanishes_for_quartic_and_not_for_sextic():
    eps, K = 0.3, 1
    Qq = DispersionQ.quartic(eps, nu=1.0)
    assert c3(Qq, Potential.quartic(0.25), eps, 1.0, K) == 0.0
    lam = coupling_lambda(Potential.sextic(1.0), sigma2_limit(Qq))
    assert c3(Qq, Potential.sextic(1.0), eps, lam, K) > 0.0


def test_c_total_formula():
    assert abs(c_total(2.0, 1.5, 0.25, 0.125) -
               (3 * 2.0 * 1.5 - 9 * 4.0 * 0.25 - 6 * 4.0 * 0.125)) < 1e-14


def test_build_renorm_bundles_consistently():
    Q = DispersionQ.quartic(0.4, nu=1.0)
    V = Potential.quartic(0.25)
    rs = build_renorm(Q, V, K=2)
    assert rs.eps == 0.4 and rs.K == 2
    assert abs(rs.lam - 1.0) < 1e-14
    assert abs(rs.C1 - rs.sigma2_eps / 0.4) < 1e-12
    assert rs.C3 == 0.0
    assert abs(rs.C_total - c_total(rs.lam, rs.C1, rs.C2, rs.C3)) < 1e-12
    assert len(rs.a_m) == 1 and abs(rs.a_m[0] - 1.0) < 1e-14


def test_build_renorm_default_cutoff():
    rs = build_renorm(DispersionQ.quartic(0.5, nu=1.0), Potential.quartic(0.25))
    assert rs.K == 8  # ceil(4 / eps)


def test_standard_constants_closed_forms():
    R = 3
    c1_std, c2_std = standard_constants(1.0 / R, K=R)
    g = FrequencyLattice(R)
    Q0 = DispersionQ.laplacian(0.0)
    want1 = 0.5 * float(np.sum(1.0 / Q0.bracket_sq_grid(g)))
    want2 = 0.5 * stationary_pair_integral(Q0, 2, R)
    assert abs(c1_std - want1) < 1e-13
    assert abs(c2_std - want2) < 1e-13
    # the rounding rule floor(1/eps) picks the same cube
    a, b = standard_constants(1.0 / R)
    assert a == c1_std and b == c2_std
