import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from scipy.special import roots_legendre

from phi4sim import renorm
from phi4sim.errors import FeasibilityError, GrowthViolationError
from phi4sim.fourier import (DispersionQ, FrequencyLattice, from_physical,
                             to_physical, validate_symbol)
from phi4sim.renorm import (EvenOctant, Potential, _even_pad, _octant_bsq,
                            _octant_sum, _resonance_block, _s_quadrature,
                            _spi_pad, _unfold, a_coeffs, build_renorm, c1,
                            c2, c3, c_total, chaos_convolution_power,
                            coupling_lambda, sigma2_eps, sigma2_limit,
                            standard_constants,
                            stationary_pair_integral,
                            time_integrated_chaos_moment)
from conftest import cube_bsq, cube_modes


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


@pytest.mark.parametrize("nu", [0.01, 0.25, 1.0, 4.0, 100.0])
def test_sigma2_limit_quartic_family_to_rounding(nu):
    want = 1.0 / (8.0 * np.pi * np.sqrt(nu))
    assert abs(sigma2_limit(DispersionQ.quartic(0.1, nu=nu)) - want) / want <= 1e-14


def test_sigma2_limit_sextic_symbol_to_rounding():
    # Q = z^2 + z^6: 2 pi int r^2 / Q(2 pi r) dr = (1/4 pi^2) int du / (1 + u^4)
    # = 1 / (8 sqrt(2) pi)
    Q = DispersionQ(lambda z: z**2 + z**6, 0.1)
    want = 1.0 / (8.0 * np.sqrt(2.0) * np.pi)
    assert abs(sigma2_limit(Q) - want) / want <= 1e-14


def test_sigma2_limit_raises_when_the_tail_is_too_slow_to_integrate():
    # growth z^3.1 passes the growth check (eta ~ 0.03), but its r^-1.1 tail
    # keeps the integrand unbounded at t = pi/2: an error, not a rough number
    Q = DispersionQ(lambda z: z**2 + np.abs(z)**3.1, 0.1)
    assert validate_symbol(Q).items["growth"]
    with pytest.raises(FeasibilityError):
        sigma2_limit(Q)


def test_s_quadrature_rule_is_scipys_gauss_legendre():
    # the panels carry numpy's 8-point Gauss-Legendre rule; scipy's agrees to
    # rounding (each lies within 8e-16 of the exact weights)
    x, w = np.polynomial.legendre.leggauss(8)
    xs, ws = roots_legendre(8)
    assert np.max(np.abs(x - xs)) <= 1e-15
    assert np.max(np.abs(w - ws)) <= 2e-15
    for N in (2, 3, 4):
        nodes, weights = _s_quadrature(N)
        smax = 40.0 / (N + 1.0)
        assert np.all((nodes > 0) & (nodes < smax))
        for p in (0, 7, 15):  # the rule is exact to degree 15 on each panel
            want = smax ** (p + 1) / (p + 1)
            assert abs(weights @ nodes**p - want) / want <= 1e-14


def test_s_quadrature_nodes_strictly_increase():
    # the resonance kernel shrinks its support from node to node, which holds
    # only if s increases along the nodes
    for N in (1, 2, 3, 4):
        assert np.all(np.diff(_s_quadrature(N)[0]) > 0)


def test_sigma2_eps_is_the_plain_lattice_sum():
    eps, K = 0.25, 3
    Q = DispersionQ.quartic(eps, nu=1.0)
    g = FrequencyLattice(K)
    want = 0.5 * eps * float(np.sum(1.0 / cube_bsq(Q, g)))
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


def test_sextic_coupling_approaches_the_limit_at_first_order_in_eps():
    # for V of degree 6 a run at (eps, K) behaves like Phi^4_3 with the
    # coupling at the lattice variance; sigma2_eps reaches sigma2_limit only
    # linearly in eps, so lambda_eff / lambda* - 1 halves with each halving
    # of eps (2.014, 0.961, 0.464 at eps 0.2, 0.1, 0.05)
    V, Q = Potential.sextic(1.0), DispersionQ.quartic(0.1, nu=1.0)
    lam = coupling_lambda(V, sigma2_limit(Q))
    excess = [coupling_lambda(V, sigma2_eps(Q, eps, math.ceil(4.0 / eps))) / lam - 1.0
              for eps in (0.2, 0.1, 0.05)]
    for coarse, fine in zip(excess, excess[1:]):
        assert 0.4 <= fine / coarse <= 0.55, excess


def test_a1_is_one_for_quartic():
    V = Potential.quartic(0.25)
    a = a_coeffs(V, 1.0, sigma2_eps(DispersionQ.quartic(0.2), 0.2, 4))
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
    """Independent tuple sum, restricted to the cube, no clever chunking: a
    loop over the first N-1 legs, the last one a vector over the cube."""
    g = FrequencyLattice(K)
    kv = np.stack([k.ravel() for k in cube_modes(g)], axis=-1)
    b = cube_bsq(Q, g).ravel()
    total = 0.0
    for tup in itertools.product(range(b.size), repeat=N - 1):
        lead = list(tup)
        ks = kv[lead].sum(axis=0) + kv
        ok = np.max(np.abs(ks), axis=1) <= K
        btot = Q.bracket_sq(np.sqrt(np.sum(ks[ok] ** 2, axis=1).astype(np.float64)))
        total += np.sum(np.prod(1.0 / b[lead]) / b[ok] / (btot + b[lead].sum() + b[ok]))
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
    got = stationary_pair_integral(Q, 2, 1)
    assert abs(got - want) / want < 1e-12


@pytest.mark.parametrize("N,K", [(2, 3), (3, 2), (4, 1)])
def test_pair_integral_matches_the_tuple_sum(N, K):
    # the tuple sum grows like (2K+1)^(3N)
    Q = DispersionQ.quartic(0.25, nu=1.0)
    want = _spi_bruteforce(Q, N, K)
    assert abs(stationary_pair_integral(Q, N, K) - want) / want < 1e-7


def test_pair_integral_rejects_odd_pad():
    Q = DispersionQ.quartic(0.25, nu=1.0)
    with pytest.raises(ValueError):
        _resonance_block(Q, 2, 3, 45)


@given(K=st.integers(0, 12), extra=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_even_octant_matches_full_grid(K, extra, seed):
    # a random cube spectrum, real and even in every axis
    grid = FrequencyLattice(K)
    P = 2 * K + 2 + 2 * extra
    a = np.abs(grid.freqs)
    spec = np.random.default_rng(seed).uniform(-1.0, 1.0, (K + 1,) * 3)[np.ix_(a, a, a)]
    full = to_physical(spec[..., : K + 1], grid, P)
    octant = EvenOctant(K, P)
    phys = octant.samples(spec)
    h = P // 2 + 1
    assert np.max(np.abs(phys - full[:h, :h, :h])) <= 1e-13 * np.max(np.abs(full))
    square = _unfold(octant.block(phys**2))
    assert abs(square[0, 0, 0] - np.mean(full**2)) <= 1e-13 * np.mean(full**2)
    assert np.max(np.abs(_unfold(octant.block(phys)) - spec)) <= 1e-13
    # on a product the forward step aliases exactly like the full-grid DFT
    want = from_physical(full**2, grid, P)
    assert np.max(np.abs(square[..., : K + 1] - want)) <= 1e-13 * np.max(np.abs(want))


def _octant_pads(K):
    # the minimum pad and the pair-integral pads of both branches of _spi_pad
    Q, Q0 = DispersionQ.quartic(0.25, nu=1.0), DispersionQ.laplacian(0.0)
    return sorted({2 * K + 2, _spi_pad(Q, 2, K), _spi_pad(Q0, 2, K)})


@pytest.mark.parametrize("K,P", [(K, P) for K in (0, 1, 8, 40) for P in _octant_pads(K)])
def test_octant_products_match_the_type1_dct(K, P):
    grid = FrequencyLattice(K)
    octant = EvenOctant(K, P)
    M = P // 2 + 1
    rng = np.random.default_rng(K * 1000 + P)
    block = rng.uniform(-1.0, 1.0, (K + 1,) * 3)
    want = block
    for axis in (-1, -2, -3):
        want = scipy.fft.dct(want, type=1, n=M, axis=axis)
    assert np.max(np.abs(octant.samples(block) - want)) <= 1e-14 * np.max(np.abs(want))
    phys = rng.uniform(-1.0, 1.0, (M,) * 3)
    a = np.abs(grid.freqs)
    want = (scipy.fft.dctn(phys, type=1) / P**3)[np.ix_(a, a, a)]
    assert np.max(np.abs(_unfold(octant.block(phys)) - want)) <= 1e-14 * np.max(np.abs(want))


def test_octant_sums_make_no_scipy_transform(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("renorm called a scipy.fft transform")
    for name in ("dct", "dctn"):
        monkeypatch.setattr(scipy.fft, name, refuse)
    Q = DispersionQ.quartic(0.25, nu=1.0)
    assert stationary_pair_integral(Q, 2, 3) > 0
    assert np.all(np.isfinite(chaos_convolution_power(Q, 2, 2)))
    assert np.all(np.isfinite(time_integrated_chaos_moment(Q, 2, 1)))


def _power(y, N):
    yN = y
    for _ in range(N - 1):
        yN = yN * y
    return yN


def _node_octant(h, N, K, P):
    """The octant an s-node of the kernel runs on: K_s the last slab h[i] of
    the non-negative block {0..K}^3 holding a mode with h >= 2^-52/(2K+1)^3
    of the block's largest h, found over the whole block, and the alias-free
    pad for K_s, capped at P."""
    block = h[: K + 1, : K + 1, : K + 1]
    cut = np.finfo(np.float64).eps / (2 * K + 1) ** 3 * block.max()
    Ks = max(i for i in range(K + 1) if np.any(block[i] >= cut))
    return EvenOctant(Ks, min(P, _even_pad((N + 1) * Ks + 1)))


def _resonance_on_the_cube(Q, N, K, P):
    """Block {0..K}^3 of the time-integrated resonance from the bracket over
    the full mode cube: each s-node takes e^{-s b} on the cube and runs on
    the octant of _node_octant."""
    bsq = cube_bsq(Q, FrequencyLattice(K))
    acc = np.zeros((K + 1,) * 3)
    for s, w in zip(*_s_quadrature(N)):
        h = np.exp(-s * bsq)
        octant = _node_octant(h, N, K, P)
        n = octant.K + 1
        node = octant.block(_power(octant.samples(h / bsq), N))
        acc[:n, :n, :n] = acc[:n, :n, :n] + w * h[:n, :n, :n] * node
    return math.factorial(N) / 2.0**N * acc


def _pair_integral_on_the_cube(Q, N, K):
    m = np.r_[1.0, np.full(K, 2.0)]
    x = _resonance_on_the_cube(Q, N, K, _spi_pad(Q, N, K))
    return float(m @ (m @ (x @ m)))


@pytest.mark.parametrize("N,K,eps", [(2, 3, 0.1), (2, 8, 0.1), (2, 25, 0.1), (2, 40, 0.1),
                                     (1, 5, 0.4), (3, 5, 0.4), (4, 5, 0.4)])
def test_pair_integral_equals_the_full_cube_form_bit_for_bit(N, K, eps):
    # K = 25 and 40 take the half pad of _spi_pad, K <= 8 the full one
    Q = DispersionQ.quartic(eps, nu=0.25)
    assert stationary_pair_integral(Q, N, K) == _pair_integral_on_the_cube(Q, N, K)


@pytest.mark.parametrize("K", [12, 25])
def test_standard_constants_equal_the_full_cube_form_bit_for_bit(K):
    Q0 = DispersionQ.laplacian(0.0)
    c1_std, c2_std = standard_constants(K)
    inv = 1.0 / cube_bsq(Q0, FrequencyLattice(K))[: K + 1, : K + 1, : K + 1]
    m = np.r_[1.0, np.full(K, 2.0)]
    assert c1_std == 0.5 * float(m @ (m @ (inv @ m)))
    assert c2_std == 0.5 * _pair_integral_on_the_cube(Q0, 2, K)


def test_chaos_oracles_equal_the_full_cube_form_bit_for_bit():
    Q, K, n, tau = DispersionQ.quartic(0.3, nu=1.0), 4, 3, 0.2
    bsq = cube_bsq(Q, FrequencyLattice(K))
    P = _even_pad((n + 1) * K + 1)
    octant = EvenOctant(K, P)
    want = _unfold(octant.block(_power(octant.samples(np.exp(-tau * bsq) * 0.5 / bsq), n)))
    assert np.array_equal(chaos_convolution_power(Q, n, K, tau), want)
    want = _unfold(_resonance_on_the_cube(Q, n, K, P)) / bsq
    assert np.array_equal(time_integrated_chaos_moment(Q, n, K), want)


def _resonance_block_unpruned(Q, N, K, P):
    """The kernel with every s-node on the whole block {0..K}^3 at pad P."""
    octant = EvenOctant(K, P)
    b = _octant_bsq(Q, K)
    nodes, weights = _s_quadrature(N)
    h, hb, acc = np.empty_like(b), np.empty_like(b), np.zeros_like(b)
    y, yN = (np.empty((P // 2 + 1,) * 3) for _ in range(2))
    for s, w in zip(nodes, weights):
        np.exp(np.multiply(-s, b, out=h), out=h)
        octant.samples(np.divide(h, b, out=hb), out=y)
        h *= w
        h *= octant.power_block(y, N, yN, out=hb)
        acc += h
    acc *= math.factorial(N) / 2.0**N
    return acc


@pytest.mark.parametrize("Q,N,K", [(DispersionQ.quartic(0.1, nu=0.25), 2, 8),
                                   (DispersionQ.quartic(0.1, nu=0.25), 2, 25),
                                   (DispersionQ.quartic(0.1, nu=0.25), 2, 40),
                                   (DispersionQ.quartic(0.4, nu=1.0), 3, 10),
                                   (DispersionQ.quartic(0.4, nu=1.0), 4, 10),
                                   (DispersionQ.laplacian(0.0), 2, 25),
                                   # the rest of the constants workload's calls
                                   (DispersionQ.quartic(0.2, nu=0.25), 2, 20),
                                   (DispersionQ.quartic(0.141, nu=0.25), 2, 29),
                                   (DispersionQ.quartic(0.4, nu=1.0), 2, 10),
                                   # and standard_constants at K = 12 and 40
                                   (DispersionQ.laplacian(0.0), 2, 12),
                                   (DispersionQ.laplacian(0.0), 2, 40)])
def test_pair_integral_agrees_with_the_unpruned_kernel(Q, N, K):
    # dropping the modes where e^{-sb} is below 2^-52/(2K+1)^3 of its largest
    # value and narrowing the pad moves only rounding (at most 3.3e-16 measured)
    P = _spi_pad(Q, N, K)
    want = _octant_sum(_resonance_block_unpruned(Q, N, K, P))
    assert abs(_octant_sum(_resonance_block(Q, N, K, P)) - want) <= 1e-14 * want


def test_chaos_moment_agrees_with_the_unpruned_kernel():
    Q, K, n = DispersionQ.quartic(0.3, nu=1.0), 4, 3
    want = _unfold(_resonance_block_unpruned(Q, n, K, _even_pad((n + 1) * K + 1))
                   / _octant_bsq(Q, K))
    got = time_integrated_chaos_moment(Q, n, K)
    assert np.max(np.abs(got - want) / want) <= 1e-14


def test_pruned_kernel_finds_the_support_slab_by_slab():
    # bracket^2 = 1 + 4 pi^2 |k|^2 inside |k|^2 < 80.5, 1 + 1e5 on the shell
    # 80.5 < |k|^2 < 288.5 and 1 beyond: at K = 10 the slab h[9] (81 <= |k|^2
    # <= 281) lies on the shell, while h[10] holds the corner (10, 10, 10)
    def shell(z):
        k2 = (z / (2.0 * np.pi)) ** 2
        return np.where(k2 < 80.5, z**2, np.where(k2 < 288.5, 1e5, 0.0))
    Q, N, K = DispersionQ(shell, 1.0), 2, 10
    b = _octant_bsq(Q, K)
    nodes = _s_quadrature(N)[0]
    # some node has e^{-sb} = 0 on all of h[9] and e^{-sb} = e^{-s} at the corner
    assert any(not np.exp(-s * b[9]).any() and np.exp(-s * b[10]).any() for s in nodes)
    P = _spi_pad(Q, N, K)
    want = _resonance_block_unpruned(Q, N, K, P)
    got = _resonance_block(Q, N, K, P)
    assert np.max(np.abs(got - want) / want) <= 1e-14
    assert abs(_octant_sum(got) - _octant_sum(want)) <= 1e-14 * _octant_sum(want)


class _NodeOctants(EvenOctant):
    """EvenOctant recording the (K_s, P_s) of each s-node's octant (the ones
    made on the kernel's work arrays); at the first it restarts the traced
    peak and notes the traced memory, which then holds every up-front array."""

    def __init__(self, K, P, work=None):
        super().__init__(K, P, work)
        if work is not None:
            if not self.nodes and tracemalloc.is_tracing():
                _NodeOctants.start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            self.nodes.append((K, P))


@pytest.fixture
def node_octants(monkeypatch):
    monkeypatch.setattr(renorm, "EvenOctant", _NodeOctants)
    _NodeOctants.nodes = []
    return _NodeOctants


def test_nodes_drop_the_modes_below_rounding(node_octants):
    # at K = 40 the nodes need about a quarter of the octant samples of the
    # nonzero support of e^{-sb}
    Q, N, K = DispersionQ.quartic(0.1, nu=0.25), 2, 40
    P = _spi_pad(Q, N, K)
    _resonance_block(Q, N, K, P)
    b = _octant_bsq(Q, K)
    nonzero = 0
    for s in _s_quadrature(N)[0]:
        Ks = max(i for i in range(K + 1) if np.exp(-s * b[i]).any())
        nonzero += (min(P, _even_pad((N + 1) * Ks + 1)) // 2 + 1) ** 3
    assert len(node_octants.nodes) == len(_s_quadrature(N)[0])
    assert sum((Ps // 2 + 1) ** 3 for _, Ps in node_octants.nodes) <= 0.3 * nonzero


def test_node_loop_makes_no_scratch_arrays(node_octants):
    # numpy allocates a 64 KiB iterator buffer for each non-contiguous operand
    # of an in-place product, so every node runs on contiguous arrays
    Q, N, K = DispersionQ.quartic(0.1, nu=0.25), 2, 40
    P = _spi_pad(Q, N, K)
    _resonance_block(Q, N, K, P)  # warm the cosine-matrix cache
    node_octants.nodes = []
    tracemalloc.start()
    try:
        _resonance_block(Q, N, K, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert any(Ks < K for Ks, _ in node_octants.nodes)
    assert peak - node_octants.start <= 64 * 2**10


def test_pair_integral_holds_octant_memory_only():
    # the full (2K+1)^3 bracket cube and lattice alone held 26.5 MiB at K = 40
    Q = DispersionQ.quartic(0.1, nu=0.25)
    tracemalloc.start()
    try:
        stationary_pair_integral(Q, 2, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_pair_integral_reduced_padding_agrees():
    # the half-padded grid used for large K drops only ~1e-12 of the mass
    Q = DispersionQ.quartic(0.25, nu=1.0)
    full, red = (_octant_sum(_resonance_block(Q, 2, 16, scipy.fft.next_fast_len(n, real=True)))
                 for n in (3 * 16 + 1, 2 * 16 + 2))
    assert abs(full - red) / full < 1e-9


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
    bsq = cube_bsq(Q, g)
    kv = np.stack([k.ravel() for k in cube_modes(g)], axis=-1)
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
    a = a_coeffs(V, 1.0, sigma2_eps(Q, eps, K))
    assert abs(c2(Q, a, K) - want) / want < 1e-10


def test_c3_vanishes_for_quartic_and_not_for_sextic():
    eps, K = 0.3, 1
    Qq = DispersionQ.quartic(eps, nu=1.0)
    s2e = sigma2_eps(Qq, eps, K)
    assert c3(Qq, a_coeffs(Potential.quartic(0.25), 1.0, s2e), K) == 0.0
    lam = coupling_lambda(Potential.sextic(1.0), sigma2_limit(Qq))
    assert c3(Qq, a_coeffs(Potential.sextic(1.0), lam, s2e), K) > 0.0


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


def test_build_renorm_at_small_cutoff_holds_octant_memory_only():
    # a tuple sum over the (2K+1)^3 cube held 29.0 MiB at K = 4
    Q, V = DispersionQ.quartic(0.4), Potential.quartic(0.25)
    build_renorm(Q, V, K=4)  # warm the cosine-matrix cache
    tracemalloc.start()
    try:
        build_renorm(Q, V, K=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_standard_constants_closed_forms():
    R = 3
    c1_std, c2_std = standard_constants(R)
    g = FrequencyLattice(R)
    Q0 = DispersionQ.laplacian(0.0)
    want1 = 0.5 * float(np.sum(1.0 / cube_bsq(Q0, g)))
    want2 = 0.5 * stationary_pair_integral(Q0, 2, R)
    assert abs(c1_std - want1) < 1e-13
    assert abs(c2_std - want2) < 1e-13


def test_standard_c2_keeps_the_alias_free_pad_above_k24():
    # the reduced pad holds only for eps > 0; at K = 25 it would move c2_std
    # by about 5e-4 relative
    K = 25
    Q0 = DispersionQ.laplacian(0.0)
    want = 0.5 * _octant_sum(_resonance_block(Q0, 2, K, _even_pad(3 * K + 1)))
    assert abs(standard_constants(K)[1] - want) <= 1e-12 * want
