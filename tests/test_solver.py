import numpy as np
import pytest

from phi4sim import besov, solver
from phi4sim.besov import commutator_com, para_gt, para_lt, resonance
from phi4sim.diagrams import _resonance_pass, build_upsilon
from phi4sim.errors import BlowUpSignal, GridError
from phi4sim.fourier import (DispersionQ, ExponentialQuadrature, FourierField,
                             FrequencyLattice, get_threads, product,
                             set_threads)
from phi4sim.gaussian import NoiseSeed
from phi4sim.renorm import Potential, build_renorm
from phi4sim.solver import (RemainderPair, SolverConfig, brute_force_reference,
                            coeffs_F, coeffs_F_traj, reconstruct_phi, solve,
                            taylor_remainder, y_distance, y_norm)
from conftest import hermitian_defect, random_hermitian_field

EPS = 0.3
K = 2
DT = 1e-3
T = 0.01


def _setup(lam=None, seed=11, nsteps=None, mode="sequential"):
    Q = DispersionQ.quartic(EPS, nu=1.0)
    V = Potential.quartic(0.25)
    rs = build_renorm(Q, V, K=K)
    g = FrequencyLattice(K)
    n = nsteps if nsteps is not None else int(round(T / DT))
    t_grid = np.arange(n + 1) * DT
    U = build_upsilon(NoiseSeed(seed), g, Q, V, EPS, t_grid, rs,
                      burn_in=0.5, coarse_dt=0.02, fine_window=0.05)
    cfg = SolverConfig(eps=EPS, lam=rs.lam if lam is None else lam, dt=DT,
                       T=n * DT, K=K, mode=mode)
    return Q, V, rs, g, U, cfg


# ---------------------------------------------------------------------------
# configuration and small pieces


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=0.1, lam=1.0, dt=-1e-3, T=0.1, K=2)
    with pytest.raises(ValueError):
        SolverConfig(eps=0.1, lam=1.0, dt=1e-3, T=0.1, K=2, mode="magic")
    with pytest.raises(ValueError):
        SolverConfig(eps=0.1, lam=1.0, dt=1e-3, T=0.1, K=2, delta0=0.5)
    cfg = SolverConfig(eps=0.1, lam=1.0, dt=1e-3, T=0.1, K=2)
    assert 0 < cfg.delta0 < cfg.kappa / cfg.n_half


def test_taylor_remainder_vanishes_for_quartic(rng):
    V = Potential.quartic(0.25)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    assert np.max(np.abs(taylor_remainder(V, x, y))) < 1e-12


def test_taylor_remainder_sextic_closed_form(rng):
    # V' = a x^5: remainder beyond third order is a (5 x y^4 + y^5)
    a = 2.0
    V = Potential.sextic(a)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    want = a * (5 * x * y**4 + y**5)
    assert np.max(np.abs(taylor_remainder(V, x, y) - want)) < 1e-10


def test_batched_coefficient_fields_match_per_step():
    _, _, rs, g, U, cfg = _setup()
    F = coeffs_F_traj(cfg.lam, U, chunk=3)
    for i in (0, len(U.t_grid) - 1):
        single = coeffs_F(cfg.lam, U, i)
        for j in range(4):
            assert np.array_equal(F[j][i], single[j].coeffs)


def test_batched_noise_products_do_not_depend_on_chunk_size():
    _, _, rs, g, U, cfg = _setup()
    F1, F3, F32 = (coeffs_F_traj(cfg.lam, U, chunk=c) for c in (1, 3, 32))
    for j in range(4):
        assert np.array_equal(F1[j], F3[j])
        assert np.array_equal(F1[j], F32[j])
    r1, r16 = (_resonance_pass(U.traj("c30"), U.traj("c1"), U.traj("c22"),
                               U.traj("c2"), g, chunk=c) for c in (1, 16))
    assert np.array_equal(r1, r16)


def _coeffs_F_composed(lam, U, i):
    """The coefficient fields written with the besov paraproducts, each of
    which decomposes its own arguments."""
    c0, c1, c30, c31, c22, c32 = (U.field(t, i) for t in
                                  ("c0", "c1", "c30", "c31", "c22", "c32"))
    F3 = -lam * c0
    F2 = 3.0 * lam**2 * product(c0, c30, 2) - 3.0 * lam * c1
    sq30 = product(c30, c30, 2)
    F1 = (-3.0 * lam**3) * product(c0, sq30, 3) \
        + 6.0 * lam**2 * (para_lt(c30, c1) + para_gt(c30, c1) + c31) \
        + 9.0 * lam**2 * c22
    F0 = lam**4 * product(c0, product(sq30, c30, 3), 4) \
        - 3.0 * lam**3 * (para_lt(sq30, c1) + para_gt(sq30, c1)
                          + resonance(resonance(c30, c30), c1)
                          + 2.0 * product(c31, c30, 2)
                          + 2.0 * commutator_com(c30, c30, c1)) \
        + 3.0 * lam**2 * c32 \
        - 9.0 * lam**3 * product(c22, c30, 2)
    return F0, F1, F2, F3


def test_coefficient_fields_match_the_composed_formula_bit_for_bit():
    _, _, rs, g, U, cfg = _setup()
    for i in (0, len(U.t_grid) - 1, slice(2, 7)):
        for got, want in zip(coeffs_F(cfg.lam, U, i),
                             _coeffs_F_composed(cfg.lam, U, i)):
            assert np.array_equal(got.coeffs, want.coeffs)


def test_coefficient_fields_decompose_each_field_once(monkeypatch):
    _, _, rs, g, U, cfg = _setup()
    calls = []
    real = besov.physical_blocks

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(besov, "physical_blocks", counted)
    monkeypatch.setattr(solver, "physical_blocks", counted)
    coeffs_F(cfg.lam, U, 0)
    # c30, c1, c30^2, c30 o c30 and c30 < c30
    assert len(calls) == 5
    coeffs_F_traj(cfg.lam, U)
    assert len(calls) == 5 + 5 * len(U.t_grid)


# ---------------------------------------------------------------------------
# integration


def test_zero_coupling_is_exact_linear_decay(rng):
    Q, V, rs, g, U, _ = _setup(lam=0.0)
    cfg = SolverConfig(eps=EPS, lam=0.0, dt=DT, T=T, K=K)
    v0 = random_hermitian_field(g, rng).coeffs
    w0 = random_hermitian_field(g, rng).coeffs
    P = solve(cfg, U, v0, w0)
    decay = ExponentialQuadrature(g, Q, DT).decay
    for i in range(len(P.t_grid)):
        assert np.max(np.abs(P.v_traj[i] - decay**i * v0)) < 1e-12
        assert np.max(np.abs(P.w_traj[i] - decay**i * w0)) < 1e-12


@pytest.mark.parametrize("mode", ["sequential", "picard"])
def test_solution_stays_hermitian(mode):
    # the real transforms drop any anti-hermitian part, so none may build up
    _, V, rs, g, U, cfg = _setup(mode=mode)
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    P = solve(cfg, U, z, z, V=V)
    assert np.max(np.abs(P.w_traj[-1])) > 0
    for c in np.concatenate([P.v_traj, P.w_traj]):
        assert hermitian_defect(FourierField(g, c)) <= 1e-14 * np.max(np.abs(c))


def test_solve_rejects_initial_data_of_no_real_field(rng):
    # the real transforms would drop the anti-hermitian part silently
    _, V, rs, g, U, cfg = _setup()
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    c = rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)
    for v0, w0 in ((c, z), (z, c)):
        with pytest.raises(GridError, match="real field"):
            solve(cfg, U, v0, w0, V=V)


def test_solve_is_independent_of_thread_count():
    before = get_threads()
    runs = []
    try:
        for n in (1, 2):
            set_threads(n)
            _, V, rs, g, U, cfg = _setup()
            z = np.zeros((g.n,) * 3, dtype=np.complex128)
            runs.append(solve(cfg, U, z, z, V=V))
    finally:
        set_threads(before)
    assert np.array_equal(runs[0].v_traj, runs[1].v_traj)
    assert np.array_equal(runs[0].w_traj, runs[1].w_traj)


def test_picard_agrees_with_sequential():
    _, V, rs, g, U, cfg = _setup()
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    Pseq = solve(cfg, U, z, z, V=V)
    cfg_p = SolverConfig(eps=EPS, lam=cfg.lam, dt=DT, T=T, K=K, mode="picard")
    Ppic = solve(cfg_p, U, z, z, V=V)
    assert Ppic.info["converged"]
    assert np.max(np.abs(Ppic.v_traj - Pseq.v_traj)) < 1e-7
    assert np.max(np.abs(Ppic.w_traj - Pseq.w_traj)) < 1e-7


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_is_reported_with_time_and_partial_state():
    _, V, rs, g, U, _ = _setup()
    cfg = SolverConfig(eps=EPS, lam=1e8, dt=DT, T=T, K=K)
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    with pytest.raises(BlowUpSignal) as exc:
        solve(cfg, U, z, z, V=V)
    assert exc.value.t > 0
    assert exc.value.last_state[0].shape[1:] == (g.n,) * 3


def test_solve_rejects_bad_initial_shape():
    _, V, rs, g, U, cfg = _setup()
    with pytest.raises(GridError):
        solve(cfg, U, np.zeros((2, 2, 2)), np.zeros((g.n,) * 3))


def test_solve_rejects_mismatched_dt():
    _, V, rs, g, U, _ = _setup()
    cfg = SolverConfig(eps=EPS, lam=1.0, dt=2e-3, T=T, K=K)
    with pytest.raises(GridError):
        solve(cfg, U, np.zeros((g.n,) * 3), np.zeros((g.n,) * 3))


# ---------------------------------------------------------------------------
# norms


def _pair_from_constant(g, t_grid, amp, at=None):
    shape = (len(t_grid), g.n, g.n, g.n)
    v = np.zeros(shape, dtype=np.complex128)
    if at is None:
        v[:, 0, 0, 0] = amp
    else:
        v[at, 0, 0, 0] = amp
    w = np.zeros_like(v)
    return RemainderPair(t_grid=np.asarray(t_grid, float), v_traj=v, w_traj=w,
                         initial=(v[0], w[0]))


def test_y_norm_scales_linearly_and_distance_of_equal_pairs_is_zero():
    g = FrequencyLattice(2)
    t_grid = np.arange(6) * 0.01
    P1 = _pair_from_constant(g, t_grid, 1.0)
    P2 = _pair_from_constant(g, t_grid, 2.0)
    n1 = y_norm(P1, 0.0, 0.05, grid=g)
    n2 = y_norm(P2, 0.0, 0.05, grid=g)
    assert n1 > 0
    assert abs(n2 - 2.0 * n1) < 1e-12
    assert y_distance(P1, P1, 0.0, 0.05, grid=g) == 0.0


def test_y_norm_weight_vanishes_at_time_zero_for_positive_eps():
    # data supported only at t = 0 carries zero weighted norm when eps > 0
    g = FrequencyLattice(2)
    t_grid = np.arange(6) * 0.01
    P = _pair_from_constant(g, t_grid, 3.0, at=0)
    assert y_norm(P, 0.4, 0.05, grid=g) == 0.0
    assert y_norm(P, 0.0, 0.05, grid=g) > 0.0  # the limit norm does see it


def test_y_norm_monotone_in_horizon():
    g = FrequencyLattice(2)
    t_grid = np.arange(11) * 0.01
    rng = np.random.default_rng(5)
    v = np.stack([random_hermitian_field(g, rng).coeffs for _ in range(11)])
    P = RemainderPair(t_grid=t_grid, v_traj=v, w_traj=np.zeros_like(v),
                      initial=(v[0], v[0] * 0))
    assert y_norm(P, 0.0, 0.1, grid=g) >= y_norm(P, 0.0, 0.03, grid=g) - 1e-12


# ---------------------------------------------------------------------------
# reconstruction against the brute-force reference


def test_reconstruction_matches_brute_force():
    Q, V, rs, g, U, cfg = _setup()
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    P = solve(cfg, U, z, z, V=V)
    phi = reconstruct_phi(U, P, cfg.lam)
    ref = brute_force_reference(NoiseSeed(11), cfg, V, Q, rs, U)
    scale = np.sqrt(np.mean(np.abs(ref) ** 2))
    err = np.sqrt(np.mean(np.abs(phi - ref) ** 2)) / scale
    # the two schemes are algebraically identical; only rounding separates them
    assert err < 1e-7


def test_counterterm_matters_in_the_reference():
    Q, V, rs, g, U, cfg = _setup()
    ref = brute_force_reference(NoiseSeed(11), cfg, V, Q, rs, U)
    raw = brute_force_reference(NoiseSeed(11), cfg, V, Q, rs, U,
                                include_counterterm=False)
    assert np.max(np.abs(ref[-1] - raw[-1])) > 1e-6


def test_second_order_reference_runs_and_stays_close():
    Q, V, rs, g, U, cfg = _setup()
    euler = brute_force_reference(NoiseSeed(11), cfg, V, Q, rs, U)
    rk2 = brute_force_reference(NoiseSeed(11), cfg, V, Q, rs, U,
                                scheme="etdrk2")
    assert np.all(np.isfinite(rk2.view(np.float64)))
    scale = np.sqrt(np.mean(np.abs(euler) ** 2))
    assert np.sqrt(np.mean(np.abs(rk2 - euler) ** 2)) / scale < 1e-2


def test_reference_rejects_foreign_seed():
    Q, V, rs, g, U, cfg = _setup()
    with pytest.raises(GridError):
        brute_force_reference(NoiseSeed(999), cfg, V, Q, rs, U)
