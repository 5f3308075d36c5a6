import tracemalloc

import numpy as np
import pytest

from phi4sim import diagrams
from phi4sim.diagrams import (EnhancedNoise, _NoiseEvaluator, _burn_cubes, _burn_phases,
                              build_limit_upsilon, build_upsilon, mc_moment,
                              second_moment_oracle, stream_upsilon)
from phi4sim.errors import GridError
from phi4sim.fourier import (DispersionQ, FrequencyLattice, from_physical,
                             to_physical)
from phi4sim.gaussian import NoiseSeed, hermite, sample_stationary
from phi4sim.renorm import Potential, build_renorm
from conftest import cube_bsq, cube_modes, full_lattice_c30

EPS = 0.3
KCUT = 2


def _small_setup():
    Q = DispersionQ.quartic(EPS, nu=1.0)
    V = Potential.quartic(0.25)
    rs = build_renorm(Q, V, K=KCUT)
    g = FrequencyLattice(KCUT)
    t_grid = np.arange(5) * 0.005
    return Q, V, rs, g, t_grid


def _small_build(sample=0):
    Q, V, rs, g, t_grid = _small_setup()
    U = build_upsilon(NoiseSeed(11), g, Q, V, EPS, t_grid, rs, sample=sample,
                      burn_in=0.2, fine_window=0.05)
    return U, rs, V


# ---------------------------------------------------------------------------
# burn-in mesh


def test_burn_phases_cover_span_and_refine_toward_zero():
    phases = _burn_phases(dt=1e-3, burn_in=10.0, fine_window=1.0)
    total = sum(n * h for n, h in phases)
    assert abs(total - 10.0) < 1e-9
    assert phases[-1][1] == 1e-3  # run resolution adjacent to t = 0
    hs = [h for _, h in phases]
    assert all(h1 >= h2 for h1, h2 in zip(hs, hs[1:]))  # earliest is coarsest
    assert all(n >= 1 for n, _ in phases)
    # logarithmic cost: far fewer steps than a uniform fine mesh would need
    assert sum(n for n, _ in phases) < 2000


def test_burn_phases_short_span():
    phases = _burn_phases(dt=1e-3, burn_in=0.01, fine_window=1.0)
    assert abs(sum(n * h for n, h in phases) - 0.01) < 1e-12


@pytest.mark.parametrize("K, Q, cubes", [
    (8, DispersionQ.quartic(0.2, nu=1.0), [0, 0, 1, 2, 8]),
    (8, DispersionQ.laplacian(0.0), [0, 1, 2, 5, 8]),
    (24, DispersionQ.quartic(1 / 6, nu=1.0), [0, 0, 1, 2, 24])],
    ids=["K8-eps0.2", "K8-limit", "K24-eps1/6"])
def test_burn_in_cubes_on_the_reconstruction_mesh(K, Q, cubes):
    # a phase ending tau before t = 0 keeps the modes with
    # b^2(k) tau <= -ln(float64 eps): at eps = 0.2, |k| = 1 has b^2 = 102.8
    # and the third phase ends at tau = 0.128; the last phase keeps them all
    phases = _burn_phases(dt=1e-4, burn_in=10.0, fine_window=1.0)
    assert [n for n, _ in phases] == [391, 256, 256, 256, 256]
    assert _burn_cubes(FrequencyLattice(K), Q, phases) == cubes


@pytest.mark.parametrize("case", ["quartic", "sextic", "limit"])
def test_the_burn_in_on_nested_cubes_matches_the_whole_lattice_burn_in(case):
    # the modes a phase leaves out reach c30(0) damped below rounding, and
    # the modes it keeps are the whole lattice's at rounding; each first
    # phase keeps |k| = 1, damped by e^{-10} to e^{-18} before t = 0
    K, dt = 6, 1e-3
    kw = dict(burn_in=1.0, fine_window=0.4 if case == "limit" else 0.1)
    g, t_grid = FrequencyLattice(K), np.arange(2) * dt
    if case == "limit":
        seed, Q = NoiseSeed(3), DispersionQ.laplacian(0.0)
        U = build_limit_upsilon(seed, g, t_grid, **kw)
    else:
        V, eps = (Potential.quartic(0.25), 0.2) if case == "quartic" \
            else (Potential.sextic(1.0), 0.3)
        seed, Q = NoiseSeed(5), DispersionQ.quartic(eps, nu=1.0)
        U = build_upsilon(seed, g, Q, V, eps, t_grid, build_renorm(Q, V, K=K), **kw)
    cubes = _burn_cubes(g, Q, _burn_phases(dt, **kw))
    assert 0 < cubes[0] < K and cubes[-1] == K
    want = full_lattice_c30(seed, g, Q, U.polys, dt, **kw)
    got = U.traj("c30")[0]
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# construction


def test_build_is_deterministic_and_sample_indexed():
    U1, _, _ = _small_build()
    U2, _, _ = _small_build()
    for tag in U1.components:
        assert np.array_equal(U1.components[tag], U2.components[tag])
    assert U1.k32 == U2.k32
    U3, _, _ = _small_build(sample=1)
    assert not np.array_equal(U1.components["one"], U3.components["one"])


def test_component_shapes_and_provenance():
    U, rs, _ = _small_build()
    T = len(U.t_grid)
    assert sorted(U.components) == ["c30", "one"]
    for tag in ("one", "c0", "c1", "c2", "c30"):
        assert U.traj(tag).shape == (T, 5, 5, 3)
    assert U.k32 == 3.0 * rs.C2 + 2.0 * rs.C3
    assert U.provenance["master"] == 11
    assert U.provenance["lam"] == rs.lam
    assert U.provenance["step_offset"] > 0
    assert U.eps == EPS


def test_quartic_noise_identities():
    # with V = x^4/4 the coefficient noises collapse:
    # c0 = 1, c1 = free field, c2 = H_2(free field; C1)
    U, rs, _ = _small_build()
    g = U.grid
    for i in range(len(U.t_grid)):
        c0 = U.traj("c0")[i]
        want = np.zeros_like(c0)
        want[0, 0, 0] = 1.0
        assert np.max(np.abs(c0 - want)) < 1e-10
        assert np.max(np.abs(U.traj("c1")[i]
                             - U.traj("one")[i])) < 1e-10
        P = g.pad_size(2)
        x = to_physical(U.traj("one")[i], g, P).real
        h2 = from_physical(hermite(2, x, rs.C1), g, P)
        assert np.max(np.abs(U.traj("c2")[i] - h2)) < 1e-10


@pytest.mark.parametrize("build", ["quartic", "limit", "sextic"])
def test_noises_of_degree_at_most_one_are_formed_on_read(build):
    # only `one` and c30 are stored: c0, c1 and c2 (the quartic's and the
    # limit's c0 = 1 and c1 = X too) are formed on read, all_noises' output
    # bit for bit
    Q, V, rs, g, t_grid = _small_setup()
    kw = dict(burn_in=0.2, fine_window=0.05)
    if build == "limit":
        U = build_limit_upsilon(NoiseSeed(11), g, t_grid, **kw)
        ev = _NoiseEvaluator.standard(g, U.provenance["c1_std"])
    else:
        if build == "sextic":
            V = Potential.sextic(1.0)
            rs = build_renorm(Q, V, K=KCUT)
        U = build_upsilon(NoiseSeed(11), g, Q, V, EPS, t_grid, rs, **kw)
        ev = _NoiseEvaluator.potential(g, V, EPS, rs.lam, rs.C1)
    assert sorted(U.components) == ["c30", "one"]
    for i in range(len(t_grid)):
        want = ev.all_noises(U.traj("one")[i])
        for tag, c in zip(("c0", "c1", "c2"), want):
            assert np.array_equal(U.traj(tag)[i].view(np.int64), c.view(np.int64))
            assert np.array_equal(U.slice(i)[tag].view(np.int64),
                                  c.view(np.int64))


def test_a_collected_build_holds_the_trajectories_of_one_and_c30_only():
    # c0, c1 and c2 are formed on read, so a sextic build, whose noises all
    # have degree >= 2, holds two half-spectrum trajectories and little else
    Q = DispersionQ.quartic(EPS, nu=1.0)
    V = Potential.sextic(1.0)
    g = FrequencyLattice(4)
    rs = build_renorm(Q, V, K=4)
    t_grid = np.arange(21) * 0.005
    kw = dict(burn_in=0.1, fine_window=0.05)
    build_upsilon(NoiseSeed(11), g, Q, V, EPS, t_grid, rs, **kw)  # warm
    tracemalloc.start()
    try:
        U = build_upsilon(NoiseSeed(11), g, Q, V, EPS, t_grid, rs, **kw)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    traj = len(t_grid) * g.n**2 * (g.K + 1) * 16
    assert sorted(U.components) == ["c30", "one"]
    assert held <= 1.1 * 2 * traj


def test_a_streamed_build_is_read_once():
    # a streamed build hands its slices out once, as its main loop makes
    # them, and holds no trajectory; a collected build hands out the same
    # slices, bit for bit, as often as asked
    Q, V, rs, g, t_grid = _small_setup()
    kw = dict(burn_in=0.2, fine_window=0.05)
    U = stream_upsilon(NoiseSeed(11), g, Q, V, EPS, t_grid, rs, **kw)
    for read in (lambda: U.traj("one"), lambda: U.traj("c2"), lambda: U.slice(0)):
        with pytest.raises(GridError):
            read()
    got = list(U.slices())
    for read in (U.slices, U.collect):
        with pytest.raises(GridError):
            read()
    want = build_upsilon(NoiseSeed(11), g, Q, V, EPS, t_grid, rs, **kw)
    assert len(got) == len(t_grid)
    for _ in range(2):
        for s, w in zip(got, want.slices(), strict=True):
            assert sorted(s) == sorted(w) == ["c0", "c1", "c2", "c30", "one"]
            for tag in s:
                assert np.array_equal(s[tag].view(np.int64), w[tag].view(np.int64))


def test_build_rejects_mismatched_symbol():
    Q, V, rs, g, t_grid = _small_setup()
    with pytest.raises(GridError):
        build_upsilon(NoiseSeed(0), g, Q.with_eps(0.2), V, 0.2, t_grid, rs)


def test_build_rejects_nonuniform_grid():
    Q, V, rs, g, _ = _small_setup()
    with pytest.raises(GridError):
        build_upsilon(NoiseSeed(0), g, Q, V, EPS, np.array([0.0, 0.01, 0.03]),
                      rs)


def test_limit_build_wick_identities():
    # the standard objects use exact Wick powers of the free field
    g = FrequencyLattice(2)
    t_grid = np.arange(3) * 0.005
    U = build_limit_upsilon(NoiseSeed(3), g, t_grid, burn_in=0.1,
                            fine_window=0.05)
    assert U.eps == 0.0
    assert U.k32 == 6.0 * U.provenance["c2_std"]  # the eps = 0 counterterm
    nu = U.provenance["c1_std"]
    P = g.pad_size(2)
    for i in range(len(t_grid)):
        x = to_physical(U.traj("one")[i], g, P).real
        h2 = from_physical(hermite(2, x, nu), g, P)
        assert np.max(np.abs(U.traj("c2")[i] - h2)) < 1e-10
        c0 = U.traj("c0")[i]
        assert abs(c0[0, 0, 0] - 1.0) < 1e-14
        assert np.max(np.abs(c0.ravel()[1:])) == 0.0


def _potential_noises(V, eps, lam, C1, x):
    """The four noises as V.eval of the derivatives at psi = sqrt(eps) x."""
    psi = np.sqrt(eps) * x
    return (V.eval(psi, 4) / (6.0 * lam),
            V.eval(psi, 3) / (6.0 * lam * np.sqrt(eps)),
            V.eval(psi, 2) / (3.0 * lam * eps) - C1,
            V.eval(psi, 1) / (lam * eps**1.5) - 3.0 * C1 * x)


@pytest.mark.parametrize("V", [Potential.quartic(0.25), Potential.sextic(1.0),
                               Potential((0.3, 0.25, 1.0 / 6.0))],
                         ids=["quartic", "sextic", "mixed"])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_noise_evaluator_matches_the_potential_formula(V, order):
    Q = DispersionQ.quartic(EPS, nu=1.0)
    rs = build_renorm(Q, V, K=KCUT)
    g = FrequencyLattice(KCUT)
    ev = _NoiseEvaluator.potential(g, V, EPS, rs.lam, rs.C1)
    P = g.pad_size(2 * V.n - 1)
    assert ev.P == P
    coeffs = sample_stationary(NoiseSeed(3), g, Q).coeffs
    x = to_physical(coeffs, g, P)
    want = from_physical(_potential_noises(V, EPS, rs.lam, rs.C1, x)[order],
                         g, P)
    got, = ev.all_noises(coeffs, (order,))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the shared powers do not depend on which noises are asked for
    assert np.array_equal(got, ev.all_noises(coeffs)[order])


def test_standard_evaluator_is_one_x_and_the_wick_powers():
    g = FrequencyLattice(KCUT)
    Q = DispersionQ.laplacian(0.0)
    nu = 0.7
    ev = _NoiseEvaluator.standard(g, nu)
    P = g.pad_size(3)
    assert ev.P == P
    coeffs = sample_stationary(NoiseSeed(4), g, Q).coeffs
    x = to_physical(coeffs, g, P)
    c0, c1, c2, c3 = ev.all_noises(coeffs)
    delta = np.zeros_like(coeffs)
    delta[0, 0, 0] = 1.0
    assert np.array_equal(c0, delta)
    assert np.array_equal(c1, coeffs)
    for got, samples in ((c2, x**2 - nu), (c3, x**3 - 3.0 * nu * x)):
        want = from_physical(samples, g, P)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("V", [Potential.quartic(0.25), Potential.sextic(1.0)],
                         ids=["quartic", "sextic"])
def test_a_warm_noise_evaluation_allocates_no_padded_grid_array(V):
    # the powers and sums live in the evaluator's arrays from the first call
    # on: besides the spectra it returns, a later call allocates less than one
    # (P, P, P) float64 array (the pair's own temporaries are thinner)
    Q = DispersionQ.quartic(0.2, nu=1.0)
    g = FrequencyLattice(8)
    rs = build_renorm(Q, V, K=8)
    ev = _NoiseEvaluator.potential(g, V, 0.2, rs.lam, rs.C1)
    coeffs = sample_stationary(NoiseSeed(5), g, Q).coeffs
    first = ev.all_noises(coeffs)
    tracemalloc.start()
    try:
        again = ev.all_noises(coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(a.nbytes for a in again) < 8 * ev.P**3
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    # a burn-in evaluator on a smaller cube works in prefix views of the same
    # arrays on its smaller pad: from its first call on, it makes none
    cube = ev.onto(2)
    assert cube.P < ev.P
    for _ in range(2):
        tracemalloc.start()
        try:
            c3, = cube.all_noises(coeffs, (3,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - c3.nbytes < 8 * ev.P**3
    assert np.max(np.abs(c3 - first[3][FrequencyLattice(8).sub_cube(2)])) \
        <= 1e-14 * np.max(np.abs(first[3]))


def test_a_burn_in_step_evaluates_only_the_cubic_noise(monkeypatch):
    # the burn-in and the main loop integrate c3 alone, one forward transform
    # per step, and the last slice forms none: a collected build stores `one`
    # and c30, and c0, c1, c2 are formed on read
    orders, forward = [], []
    real_noises, real_forward = _NoiseEvaluator.all_noises, diagrams.from_physical

    def noises(self, coeffs, orders_=(0, 1, 2, 3)):
        orders.append(tuple(orders_))
        return real_noises(self, coeffs, orders_)

    def counted(*args, **kwargs):
        forward.append(None)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(_NoiseEvaluator, "all_noises", noises)
    monkeypatch.setattr(diagrams, "from_physical", counted)
    U = _small_build()[0]
    T = len(U.t_grid)
    nburn = sum(n for n, _ in _burn_phases(0.005, 0.2, 0.05))
    assert orders == [(3,)] * (nburn + T - 1)
    assert len(forward) == nburn + T - 1


# ---------------------------------------------------------------------------
# moment oracles and Monte Carlo audits


def test_oracle_free_field_equal_time():
    Q = DispersionQ.quartic(EPS, nu=1.0)
    g = FrequencyLattice(KCUT)
    bsq = Q.bracket_sq_grid(g)
    for k in ((0, 0, 0), (1, 0, 0), (2, 1, 0)):
        want = 0.5 / bsq[tuple(np.array(k) % g.n)]
        got = second_moment_oracle("one", 0.0, Q, EPS, KCUT)[tuple(np.array(k) % g.n)]
        assert abs(got - want) < 1e-14


def test_oracle_free_field_temporal_decay():
    Q = DispersionQ.quartic(EPS, nu=1.0)
    b2 = Q.bracket_sq(1.0)
    eq = second_moment_oracle("one", (0.0, 0.0), Q, EPS, KCUT)[1, 0, 0]
    lag = second_moment_oracle("one", (0.0, 0.3), Q, EPS, KCUT)[1, 0, 0]
    assert abs(lag - eq * np.exp(-0.3 * b2)) < 1e-14


def test_oracle_wick_square_is_pair_convolution():
    Q = DispersionQ.quartic(EPS, nu=1.0)
    g = FrequencyLattice(1)
    bsq = cube_bsq(Q, g)
    # direct pair sum at k = (1,0,0)
    want = 0.0
    kv = np.stack([k.ravel() for k in cube_modes(g)], axis=-1)
    b = bsq.ravel()
    for i in range(b.size):
        for j in range(b.size):
            if tuple(kv[i] + kv[j]) == (1, 0, 0):
                want += 2.0 * (0.5 / b[i]) * (0.5 / b[j])
    got = second_moment_oracle(("wick", 2), 0.0, Q, EPS, 1)[1, 0, 0]
    assert abs(got - want) / want < 1e-12


def test_mc_moment_free_field_z_score():
    Q = DispersionQ.quartic(EPS, nu=1.0)
    g = FrequencyLattice(KCUT)
    rep, = mc_moment("one", [(1, 0, 0)], 400, NoiseSeed(21), g, Q)
    assert rep.M == 400 and rep.se > 0
    assert abs(rep.z) < 4.0
    assert abs(rep.mean - rep.oracle) < 4.0 * rep.se


@pytest.mark.parametrize("symbol", ["c1", "c2"])
def test_mc_moment_polynomial_noise_z_score(symbol):
    Q, V, rs, g, _ = _small_setup()
    rep, = mc_moment(symbol, [(1, 0, 0)], 400, NoiseSeed(22), g, Q, V=V,
                     renorm_set=rs)
    assert abs(rep.z) < 4.0


def test_mc_moment_temporal_pair():
    Q = DispersionQ.quartic(EPS, nu=1.0)
    g = FrequencyLattice(KCUT)
    rep, = mc_moment("one", [(1, 0, 0)], 400, NoiseSeed(23), g, Q,
                     t_pair=(0.0, 0.1))
    assert abs(rep.z) < 4.0
    assert rep.oracle < second_moment_oracle("one", 0.0, Q, EPS, KCUT)[1, 0, 0]


def test_mc_moment_takes_the_lag_of_a_time_pair_in_either_order():
    # the oracle is a function of |t - s|: (0.1, 0.0) is the pair (0.0, 0.1),
    # and at zero lag each sample is read twice, the equal-time moment
    Q = DispersionQ.quartic(EPS, nu=1.0)
    g = FrequencyLattice(KCUT)
    modes = [(1, 0, 0), (2, 1, 0)]

    def run(t_pair):
        return mc_moment("one", modes, 30, NoiseSeed(23), g, Q, t_pair=t_pair)

    assert run((0.1, 0.0)) == run((0.0, 0.1))
    assert run((0.2, 0.2)) == run((0.0, 0.0))
    for lag0, equal in zip(run((0.0, 0.0)), run(None)):
        assert lag0.oracle == equal.oracle
        assert abs(lag0.mean - equal.mean) <= 1e-14 * equal.mean


@pytest.mark.parametrize("t_pair", [None, (0.0, 0.1)])
def test_mc_moment_reads_negative_k3_as_the_conjugate_mode(t_pair):
    # the stored half has no k3 < 0 column: mode k is the conjugate of -k
    Q = DispersionQ.quartic(EPS, nu=1.0)
    g = FrequencyLattice(KCUT)
    a, b = mc_moment("one", [(1, 2, -1), (-1, -2, 1)], 30, NoiseSeed(24), g,
                     Q, t_pair=t_pair)
    assert a.mean == b.mean and a.se == b.se and a.oracle == b.oracle


@pytest.mark.parametrize("symbol", ["one", ("wick", 2), "c1", "c2"])
def test_mc_moment_of_several_modes_is_that_of_each_mode(symbol):
    # the samples are drawn once for all the modes, with the same values
    Q, V, rs, g, _ = _small_setup()
    modes = [(0, 0, 0), (1, 0, 0), (2, -1, 1)]
    both = mc_moment(symbol, modes, 20, NoiseSeed(25), g, Q, V=V, renorm_set=rs)
    for k, rep in zip(modes, both):
        one, = mc_moment(symbol, [k], 20, NoiseSeed(25), g, Q, V=V, renorm_set=rs)
        assert rep == one and rep.k == k
        cube = second_moment_oracle(symbol, 0.0, Q, EPS, KCUT, V, rs)
        assert rep.oracle == cube[tuple(np.array(k) % g.n)]


@pytest.mark.parametrize("symbol", [("wick", 2), "c1", "c2"],
                         ids=["wick2", "c1", "c2"])
def test_mc_moment_rejects_a_time_pair_for_any_symbol_but_the_free_field(symbol):
    # only the free field's covariance at a lag is estimated
    Q, V, rs, g, _ = _small_setup()
    with pytest.raises(ValueError, match="time pair"):
        mc_moment(symbol, [(1, 0, 0)], 4, NoiseSeed(26), g, Q, V=V,
                  renorm_set=rs, t_pair=(0.0, 0.1))


@pytest.mark.parametrize("symbol, with_potential, eps, match", [
    ("c1", False, EPS, "need V and renorm_set"), ("c2", False, EPS, "need V and renorm_set"),
    ("c1", True, 0.0, "eps > 0"), ("c30", True, EPS, "unsupported symbol"),
    ("two", True, EPS, "unsupported symbol")])
def test_mc_moment_rejects_a_bad_request_before_the_first_draw(
        symbol, with_potential, eps, match, monkeypatch):
    # a polynomial noise without V and renorm_set or at eps = 0, or a symbol
    # it cannot sample (c30 has an oracle, but no sampler), fails before any
    # sample
    Q, V, rs, g, _ = _small_setup()
    Q = Q.with_eps(eps)

    def refuse(*args, **kwargs):
        raise AssertionError("mc_moment drew a sample")

    monkeypatch.setattr(diagrams, "sample_stationary", refuse)
    kw = dict(V=V, renorm_set=rs) if with_potential else {}
    with pytest.raises(ValueError, match=match):
        mc_moment(symbol, [(1, 0, 0)], 4, NoiseSeed(27), g, Q, **kw)


def test_mc_moment_rejects_constants_built_at_another_eps(monkeypatch):
    # a renorm_set at eps 0.3 would scale c2 with that eps's lam and C1
    # while Q samples at eps 0.1
    Q = DispersionQ.quartic(0.3, nu=1.0)
    V = Potential.sextic(1.0)
    rs = build_renorm(Q, V, K=KCUT)

    def refuse(*args, **kwargs):
        raise AssertionError("mc_moment drew a sample")

    monkeypatch.setattr(diagrams, "sample_stationary", refuse)
    with pytest.raises(GridError, match="eps mismatch"):
        mc_moment("c2", [(1, 0, 0)], 50, NoiseSeed(27), FrequencyLattice(KCUT),
                  Q.with_eps(0.1), V=V, renorm_set=rs)


def test_mc_moment_rejects_zero_samples():
    Q = DispersionQ.quartic(EPS, nu=1.0)
    g = FrequencyLattice(1)
    with pytest.raises(ValueError):
        mc_moment("one", [(0, 0, 0)], 0, NoiseSeed(0), g, Q)
