import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from phi4sim import besov, diagrams, fourier, solver
from phi4sim.config import load_config
from phi4sim.diagrams import build_limit_upsilon, build_upsilon
from phi4sim.errors import BlowUpSignal, GridError
from phi4sim.fourier import (DispersionQ, ExponentialQuadrature, FrequencyLattice,
                             _mirror, from_physical, product, to_physical)
from phi4sim.gaussian import NoiseSeed
from phi4sim.renorm import Potential, build_renorm
from phi4sim.solver import (RemainderPair, SolverConfig, brute_force_reference,
                            coeffs_F, reconstruct_phi, solve, solve_final,
                            taylor_remainder, y_distance, y_norm)
from conftest import (combine, commutator_com, hermitian_defect, lt,
                      physical_blocks, random_hermitian_field, resonance,
                      trajectories)

EPS = 0.3
K = 2
DT = 1e-3
T = 0.01


def _setup(lam=None, seed=11, nsteps=None):
    Q = DispersionQ.quartic(EPS, nu=1.0)
    V = Potential.quartic(0.25)
    rs = build_renorm(Q, V, K=K)
    g = FrequencyLattice(K)
    n = nsteps if nsteps is not None else int(round(T / DT))
    t_grid = np.arange(n + 1) * DT
    U = build_upsilon(NoiseSeed(seed), g, Q, V, EPS, t_grid, rs, burn_in=0.5)
    cfg = SolverConfig(eps=EPS, lam=rs.lam if lam is None else lam, dt=DT,
                       T=n * DT, K=K)
    return Q, V, rs, g, U, cfg


# ---------------------------------------------------------------------------
# configuration and small pieces


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=0.1, lam=1.0, dt=-1e-3, T=0.1, K=2)
    with pytest.raises(ValueError):
        SolverConfig(eps=0.1, lam=1.0, dt=1e-3, T=0, K=2)


@pytest.mark.parametrize("bad", [
    {"dt": float("nan")}, {"dt": float("inf")}, {"T": float("nan")},
    {"T": float("inf")}, {"eps": -0.5}, {"eps": 2.0}, {"eps": float("nan")},
], ids=["dt-nan", "dt-inf", "T-nan", "T-inf", "eps-negative", "eps-above-1",
        "eps-nan"])
def test_config_rejects_non_finite_steps_and_eps_outside_the_unit_interval(bad):
    ok = dict(eps=0.1, lam=1.0, dt=1e-3, T=0.1, K=2)
    SolverConfig(**{**ok, "eps": 0.0})
    SolverConfig(**{**ok, "eps": 1.0})
    with pytest.raises(ValueError):
        SolverConfig(**{**ok, **bad})


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


def _plus_constant(F, c):
    """F + c for a spatial constant c: a shift of the zero mode."""
    out = F.copy()
    out[..., 0, 0, 0] += c
    return out


def _c32(U, s):
    """The paper's renormalised resonance c32 = c30 o c2 - k32 X of U's slice s."""
    return resonance(s["c30"], s["c2"], U.grid) - U.k32 * s["one"]


def _coeffs_F_paper(lam, U, s, k31):
    """The coefficient fields in the paper's paraproduct form, with the
    renormalised resonances c31 = c30 o c1 - k31 and c32 formed here.  The
    c22 terms of that form are left out: they cancel exactly against the
    step's -9 lam^2 f (c2 o c20), which the reconstruction tests check end to
    end."""
    g = U.grid
    c0, c1, c30 = s["c0"], s["c1"], s["c30"]
    c31 = _plus_constant(resonance(c30, c1, g), -k31)
    F3 = -lam * c0
    F2 = 3.0 * lam**2 * product(c0, c30, g, 2) - 3.0 * lam * c1
    sq30 = product(c30, c30, g, 2)
    F1 = (-3.0 * lam**3) * product(c0, sq30, g, 3) \
        + 6.0 * lam**2 * (lt(c30, c1, g) + lt(c1, c30, g) + c31)
    F0 = lam**4 * product(c0, product(sq30, c30, g, 3), g, 4) \
        - 3.0 * lam**3 * (lt(sq30, c1, g) + lt(c1, sq30, g)
                          + resonance(resonance(c30, c30, g), c1, g)
                          + 2.0 * product(c31, c30, g, 2)
                          + 2.0 * commutator_com(c30, c30, c1, g)) \
        + 3.0 * lam**2 * _c32(U, s)
    return F0, F1, F2, F3


def test_coefficient_fields_match_the_paraproduct_form():
    # Bony's decomposition and c30^2 = 2 (c30 < c30) + c30 o c30 collapse the
    # paraproducts, resonances and the commutator into projected products;
    # what is left of k31 is the k31 part -6 lam^2 k31 f of the step's mass
    # term, f = u - lam c30: -6 lam^2 k31 in F1, 6 lam^3 k31 c30 in F0.
    # k31 = C3 is zero for the quartic potential, not for the sextic one.
    # The paper's +3 lam^2 c32 in F0 cancels out of the step (see
    # test_solve_matches_the_paper_step), so it is added to the collapsed F0.
    Q = DispersionQ.quartic(EPS, nu=1.0)
    g = FrequencyLattice(K)
    for V in (Potential.quartic(0.25), Potential.sextic(1.0)):
        rs = build_renorm(Q, V, K=K)
        U = build_upsilon(NoiseSeed(11), g, Q, V, EPS, np.arange(6) * DT, rs,
                          burn_in=0.5)
        lam, k31 = rs.lam, rs.C3
        for s in U.slices():
            F0, F1, F2, F3 = coeffs_F(lam, U, s)
            with_mass = (F0 + 6.0 * lam**3 * k31 * s["c30"] + 3.0 * lam**2 * _c32(U, s),
                         _plus_constant(F1, -6.0 * lam**2 * k31), F2, F3)
            for got, want in zip(with_mass, _coeffs_F_paper(lam, U, s, k31)):
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_coefficient_fields_decompose_no_field(monkeypatch):
    # no paraproduct and no block transform
    _, _, rs, g, U, cfg = _setup()
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)

    monkeypatch.setattr(besov, "para_lt", counted)
    monkeypatch.setattr(solver, "para_lt", counted)
    monkeypatch.setattr(besov, "to_physical", counted)
    coeffs_F(cfg.lam, U, next(U.slices()))
    assert calls == []


# ---------------------------------------------------------------------------
# integration


def test_zero_coupling_is_exact_linear_decay(rng):
    Q, V, rs, g, U, _ = _setup(lam=0.0)
    cfg = SolverConfig(eps=EPS, lam=0.0, dt=DT, T=T, K=K)
    v0 = random_hermitian_field(g, rng)
    w0 = random_hermitian_field(g, rng)
    P = solve(cfg, U, _mirror(v0, g), _mirror(w0, g))
    decay = ExponentialQuadrature(g, Q, DT).decay
    for i in range(len(P.t_grid)):
        assert np.max(np.abs(P.v_traj[i] - _mirror(decay**i * v0, g))) < 1e-12
        assert np.max(np.abs(P.w_traj[i] - _mirror(decay**i * w0, g))) < 1e-12


def test_solution_stays_hermitian():
    # the real transforms drop any anti-hermitian part, so none may build up;
    # the returned full cubes mirror k3 > 0, so the k3 = 0 plane is what counts
    _, V, rs, g, U, cfg = _setup()
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    P = solve(cfg, U, z, z, V=V)
    assert P.v_traj.shape[1:] == P.w_traj.shape[1:] == (g.n,) * 3
    assert np.max(np.abs(P.w_traj[-1])) > 0
    for c in np.concatenate([P.v_traj, P.w_traj]):
        assert hermitian_defect(c) <= 1e-14 * np.max(np.abs(c))


def test_each_coefficient_field_is_formed_once_per_solve(monkeypatch):
    # one coeffs_F per step: the march forms F as it reads the slice
    _, V, rs, g, U, cfg = _setup()
    calls = []
    real = solver.coeffs_F

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "coeffs_F", counted)
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    solve(cfg, U, z, z, V=V)
    assert len(calls) == len(U.t_grid) - 1


@pytest.mark.parametrize("cutoff, per_step", [(K, 16), (8, 20)])
def test_march_step_makes_one_paraproduct_and_a_fixed_transform_count(
        cutoff, per_step, monkeypatch):
    # to_physical per step at the quartic, where c0 is a number: coeffs_F's
    # 4 projected products 8, the polynomial pass 6 (u, F0..F2, c2, f), and
    # f < c2 two per added term: 1 term at K = 2 (3 blocks), 3 at K = 8
    # (5 blocks)
    if cutoff == K:
        _, V, rs, g, U, cfg = _setup()
    else:
        Q, V = DispersionQ.quartic(0.2, nu=1.0), Potential.quartic(0.25)
        rs, g, n = build_renorm(Q, V, K=cutoff), FrequencyLattice(cutoff), 3
        U = build_upsilon(NoiseSeed(17), g, Q, V, 0.2, np.arange(n + 1) * 1e-4, rs,
                          burn_in=0.002)
        cfg = SolverConfig(eps=0.2, lam=rs.lam, dt=1e-4, T=n * 1e-4, K=cutoff)
    calls = {"para_lt": 0, "to_physical": 0}
    for mod, name in ((besov, "para_lt"), (solver, "para_lt"),
                      (fourier, "to_physical"), (besov, "to_physical"),
                      (solver, "to_physical")):
        real = getattr(mod, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    solve(cfg, U, z, z, V=V)
    nsteps = len(U.t_grid) - 1
    assert calls == {"para_lt": nsteps, "to_physical": per_step * nsteps}


def _march_paper(cfg, U, v0, w0, V):
    """The paper's step on half spectra, sequential: the accumulator
    A = I(f < c2) and e^{t(L-1)} v(0) advanced beside v, the resonances
    c2 o (e^{t(L-1)} v(0) + w) and c2 o A, and F0 with its +3 lam^2 c32."""
    g, lam, eps = U.grid, cfg.lam, cfg.eps
    quad = ExponentialQuadrature(g, U.Q, cfg.dt)
    P4 = g.pad_size(4)
    v, w = v0.copy(), w0.copy()
    A, ev0 = np.zeros_like(v), v.copy()
    vs, ws = [v], [w]
    for _, s in zip(range(int(round(cfg.T / cfg.dt))), U.slices()):
        c2 = s["c2"]
        u = v + w
        f = u - lam * s["c30"]
        F0, F1, F2, F3 = coeffs_F(lam, U, s)
        F = (F0 + 3.0 * lam**2 * _c32(U, s), F1, F2, F3)
        ux = to_physical(u, g, P4)
        G = from_physical(sum(to_physical(F[j], g, P4) * ux**j
                              for j in range(4)), g, P4)
        Bf, Bc2 = physical_blocks(f, g), physical_blocks(c2, g)
        para = combine(Bf, Bc2, g, "lt")
        res = combine(Bc2, physical_blocks(ev0 + w, g), g, "res")
        G = G - 3.0 * lam * combine(Bc2, Bf, g, "lt") \
            + 9.0 * lam**2 * combine(Bc2, physical_blocks(A, g), g, "res") \
            - 3.0 * lam**2 * U.k32 * f
        if eps > 0 and V.n > 2:
            Pr = g.pad_size(2 * V.n - 1)
            psi = to_physical(s["one"], g, Pr) * np.sqrt(eps)
            y = to_physical(f, g, Pr) * np.sqrt(eps)
            G = G - from_physical(taylor_remainder(V, psi, y), g, Pr) * eps**-1.5
        v = quad.advance(v, -3.0 * lam * para)
        w = quad.advance(w, -3.0 * lam * res + G)
        A = quad.advance(A, para)
        ev0 = quad.decay * ev0
        vs.append(v)
        ws.append(w)
    return np.array(vs), np.array(ws)


@pytest.mark.parametrize("case", ["quartic", "sextic-v0", "off-lambda", "limit"])
def test_solve_matches_the_paper_step(case, rng):
    # A and e^{t(L-1)} v(0) follow v's recursion, so
    # v = e^{t(L-1)} v(0) - 3 lam A and the resonances combine to
    # -3 lam c2 o u; Bony and c2 o c30 = c32 + k32 X then cancel F0's c32
    # (see the solver docstring)
    sextic = case == "sextic-v0"
    eps, K, dt, n = 0.3, 6 if sextic else 4, 1e-3, 8
    Q = DispersionQ.quartic(eps, nu=1.0)
    V = Potential.sextic(1.0) if sextic else Potential.quartic(0.25)
    g = FrequencyLattice(K)
    t_grid = np.arange(n + 1) * dt
    kw = dict(burn_in=0.05)
    if case == "limit":
        eps, lam = 0.0, 1.0
        U = build_limit_upsilon(NoiseSeed(3), g, t_grid, **kw)
    else:
        rs = build_renorm(Q, V, K=K)
        lam = 1.3 * rs.lam if case == "off-lambda" else rs.lam
        U = build_upsilon(NoiseSeed(5), g, Q, V, eps, t_grid, rs, **kw)
    cfg = SolverConfig(eps=eps, lam=lam, dt=dt, T=n * dt, K=K)
    v0 = w0 = np.zeros(g.shape, dtype=np.complex128)
    if sextic:
        v0 = random_hermitian_field(g, rng, 0.5)
        w0 = random_hermitian_field(g, rng, 0.1)
    P = solve(cfg, U, _mirror(v0, g), _mirror(w0, g), V=V)
    v, w = _march_paper(cfg, U, v0, w0, V)
    for got, want in ((P.v_traj, v), (P.w_traj, w)):
        assert np.max(np.abs(got[..., : K + 1] - want)) \
            <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(v)) > 0 and np.max(np.abs(w)) > 0


def test_solve_rejects_initial_data_of_no_real_field(rng):
    # the real transforms would drop the anti-hermitian part silently
    _, V, rs, g, U, cfg = _setup()
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    c = rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)
    for v0, w0 in ((c, z), (z, c)):
        with pytest.raises(GridError, match="real field"):
            solve(cfg, U, v0, w0, V=V)


_THREADS_RUN = """
import hashlib
import numpy as np
from phi4sim.diagrams import build_upsilon
from phi4sim.fourier import DispersionQ, FrequencyLattice, product
from phi4sim.gaussian import NoiseSeed
from phi4sim.renorm import Potential, build_renorm
from phi4sim.solver import SolverConfig, solve
Q, V, g = DispersionQ.quartic(0.3), Potential.quartic(0.25), FrequencyLattice(24)
rs = build_renorm(Q, V, K=24)
U = build_upsilon(NoiseSeed(3), g, Q, V, 0.3, np.arange(3) * 1e-3, rs, burn_in=0.004)
z = np.zeros((g.n,) * 3, dtype=np.complex128)
run = solve(SolverConfig(eps=0.3, lam=rs.lam, dt=1e-3, T=2e-3, K=24), U, z, z, V=V)
F = next(U.fields())["one"]  # the free field at t = 0
h = hashlib.sha256()
for a in (run.v_traj, run.w_traj, product(F, F, g, 5)):
    h.update(np.ascontiguousarray(a).tobytes())
print(h.hexdigest())
"""


def test_solve_is_independent_of_thread_count():
    # K = 24: the pair cuts its passes into blocks shared by the workers, and
    # OpenBLAS would split these products across its threads
    import phi4sim

    src = os.path.dirname(os.path.dirname(phi4sim.__file__))
    digests = []
    for n in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=n,
                   OMP_NUM_THREADS=n, PHI4_THREADS=n)
        out = subprocess.run([sys.executable, "-c", _THREADS_RUN], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_is_reported_with_time_and_partial_state():
    # last_state is (v, w) at the last finite step, as full cubes, the same
    # from solve and solve_final; the overflow on the way warns nothing
    _, V, rs, g, U, _ = _setup()
    cfg = SolverConfig(eps=EPS, lam=1e8, dt=DT, T=T, K=K)
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    with pytest.raises(BlowUpSignal) as exc:
        solve(cfg, U, z, z, V=V)
    sig = exc.value
    assert sig.step >= 1 and sig.t == U.t_grid[sig.step] > 0
    v, w = sig.last_state
    assert v.shape == w.shape == (g.n,) * 3
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(w))
    if sig.step > 1:  # the state a solve stopping one step earlier ends at
        done = solve(dataclasses.replace(cfg, T=(sig.step - 1) * DT), U, z, z, V=V)
        assert np.array_equal(done.v_traj[-1], v)
        assert np.array_equal(done.w_traj[-1], w)
    with pytest.raises(BlowUpSignal) as final:
        solve_final(cfg, U, z, z, V=V)
    assert (final.value.step, final.value.t) == (sig.step, sig.t)
    for a, b in zip(final.value.last_state, sig.last_state):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("case", ["quartic", "sextic", "limit"])
def test_every_read_of_a_build_gives_the_same_bits(case):
    # each read replays the main loop from the build's state at t = 0: a
    # second read, two interleaved reads and a second solve give the first
    # one's bits, and solve_final ends where solve does
    g, t_grid = FrequencyLattice(K), np.arange(6) * DT
    if case == "limit":
        V, lam = None, 1.0
        U = build_limit_upsilon(NoiseSeed(3), g, t_grid, burn_in=0.05)
    else:
        Q = DispersionQ.quartic(EPS, nu=1.0)
        V = Potential.quartic(0.25) if case == "quartic" else Potential.sextic(1.0)
        rs = build_renorm(Q, V, K=K)
        U, lam = build_upsilon(NoiseSeed(3), g, Q, V, EPS, t_grid, rs, burn_in=0.05), rs.lam
    first = list(U.slices())
    pairs = list(zip(U.slices(), U.slices(), strict=True))
    for read in (list(U.slices()), [a for a, _ in pairs], [b for _, b in pairs]):
        for s, want in zip(read, first, strict=True):
            assert sorted(s) == sorted(want) == ["c0", "c1", "c2", "c30", "one"]
            assert all(_same_bits(s[tag], want[tag]) for tag in s)
    cfg = SolverConfig(eps=U.eps, lam=lam, dt=DT, T=5 * DT, K=K)
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    P1, P2 = (solve(cfg, U, z, z, V=V) for _ in range(2))
    v, w = solve_final(cfg, U, z, z, V=V)
    assert np.max(np.abs(P1.w_traj[-1])) > 0
    for a, b in ((P1.v_traj, P2.v_traj), (P1.w_traj, P2.w_traj),
                 (P1.v_traj[-1], v), (P1.w_traj[-1], w)):
        assert _same_bits(a, b)


def test_a_step_drops_c0_and_c1_once_f_is_formed(monkeypatch):
    # at degree >= 6 c0 and c1 are fields that only coeffs_F reads, so no
    # step may hold them through its paraproduct and polynomial pass
    refs, alive = [], []
    real_with, real_para = diagrams._NoiseEvaluator.with_noises, solver.para_lt

    def with_noises(self, s):
        out = real_with(self, s)
        refs.append([weakref.ref(out[tag]) for tag in ("c0", "c1")])
        return out

    def para(*args, **kwargs):
        alive.append([r() is not None for r in refs[-1]])
        return real_para(*args, **kwargs)

    monkeypatch.setattr(diagrams._NoiseEvaluator, "with_noises", with_noises)
    monkeypatch.setattr(solver, "para_lt", para)
    Q, V = DispersionQ.quartic(EPS, nu=1.0), Potential.sextic(1.0)
    rs, g = build_renorm(Q, V, K=K), FrequencyLattice(K)
    U = build_upsilon(NoiseSeed(3), g, Q, V, EPS, np.arange(4) * DT, rs, burn_in=0.05)
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    solve_final(SolverConfig(eps=EPS, lam=rs.lam, dt=DT, T=3 * DT, K=K), U, z, z, V=V)
    assert alive == [[False, False]] * 3


def test_solve_rejects_bad_initial_shape():
    _, V, rs, g, U, cfg = _setup()
    with pytest.raises(GridError):
        solve(cfg, U, np.zeros((2, 2, 2)), np.zeros((g.n,) * 3))


def test_solve_rejects_mismatched_dt():
    _, V, rs, g, U, _ = _setup()
    cfg = SolverConfig(eps=EPS, lam=1.0, dt=2e-3, T=T, K=K)
    with pytest.raises(GridError):
        solve(cfg, U, np.zeros((g.n,) * 3), np.zeros((g.n,) * 3))


@pytest.mark.parametrize("change", [{"K": K + 1}, {"eps": EPS / 2}],
                         ids=["K", "eps"])
def test_config_must_match_the_noise(change):
    Q, V, rs, g, U, cfg = _setup()
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    bad = dataclasses.replace(cfg, **change)
    with pytest.raises(GridError, match="does not match the enhanced noise"):
        solve(bad, U, z, z, V=V)
    with pytest.raises(GridError, match="does not match the enhanced noise"):
        brute_force_reference(NoiseSeed(11), bad, V, Q, rs, U)


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
    return RemainderPair(t_grid=np.asarray(t_grid, float), v_traj=v, w_traj=w)


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
    v = _mirror(np.stack([random_hermitian_field(g, rng)
                          for _ in range(11)]), g)
    P = RemainderPair(t_grid=t_grid, v_traj=v, w_traj=np.zeros_like(v))
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
    # not rounding: the march multiplies noises already projected onto the
    # cutoff (c2 = P_K(X^2) - C1, P(c30^2)) where the reference projects only
    # the whole nonlinearity, which here leaves 1.5e-8 at step 1 and 4.7e-9
    # over the trajectory
    assert err < 1e-7


def test_sextic_reconstruction_matches_brute_force():
    # V.n > 2: the step's Taylor remainder of V' is not zero
    eps, K, dt, T = 0.3, 4, 1e-4, 0.003
    Q = DispersionQ.quartic(eps, nu=1.0)
    V = Potential.sextic(1.0)
    rs = build_renorm(Q, V, K=K)
    g = FrequencyLattice(K)
    t_grid = np.arange(int(round(T / dt)) + 1) * dt
    U = build_upsilon(NoiseSeed(5), g, Q, V, eps, t_grid, rs, burn_in=0.05)
    cfg = SolverConfig(eps=eps, lam=rs.lam, dt=dt, T=T, K=K)
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    P = solve(cfg, U, z, z, V=V)
    phi = reconstruct_phi(U, P, cfg.lam)
    ref = brute_force_reference(NoiseSeed(5), cfg, V, Q, rs, U)
    err = np.sqrt(np.mean(np.abs(phi - ref) ** 2) / np.mean(np.abs(ref) ** 2))
    assert err < 1e-8


def test_reconstruct_phi_writes_its_result_slice_by_slice():
    # no whole-trajectory temporary: the peak is the result and one slice's
    # temporaries, and the values are the whole-trajectory formula's bits
    _, V, rs, g, U, cfg = _setup(nsteps=40)
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    P = solve(cfg, U, z, z, V=V)
    reconstruct_phi(U, P, cfg.lam)  # warm
    tracemalloc.start()
    try:
        phi = reconstruct_phi(U, P, cfg.lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * phi.nbytes
    traj = trajectories(U)
    want = _mirror(traj["one"] - cfg.lam * traj["c30"], g) + P.v_traj
    want += P.w_traj
    assert np.array_equal(phi, want)


@pytest.mark.parametrize("potential", [Potential.quartic(0.25), Potential.sextic(1.0)],
                         ids=["quartic", "sextic"])
def test_a_collected_solve_forms_each_slice_s_noises_once(potential, monkeypatch):
    # the build's main loop yields `one` and c30 only: each step forms its
    # noises of degree >= 2 from `one` with one inverse transform and one
    # forward transform per noise (c2, and c0, c1 at the sextic), and each
    # main-loop step forms c3 with one of each
    Q = DispersionQ.quartic(EPS, nu=1.0)
    rs = build_renorm(Q, potential, K=K)
    g = FrequencyLattice(K)
    t_grid = np.arange(6) * DT
    U = build_upsilon(NoiseSeed(3), g, Q, potential, EPS, t_grid, rs, burn_in=0.05)
    cfg = SolverConfig(eps=EPS, lam=rs.lam, dt=DT, T=5 * DT, K=K)
    calls = {"to_physical": 0, "from_physical": 0}
    for name in calls:
        real = getattr(diagrams, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(diagrams, name, counted)
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    solve(cfg, U, z, z, V=potential)
    formed = 1 if potential.n == 2 else 3
    # 5 slices read, the main loop stepping to each but the first
    assert calls == {"to_physical": 5 + 4, "from_physical": 5 * formed + 4}


def _check_workload_against_its_pins(tmp_path, name):
    # the benchmark's seed-0 outputs are pinned to 1e-12 relative; run in
    # process, through the workload's own configs, body, summary and checks
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(bench, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    wl, seed = workloads.WORKLOADS[name], workloads.DEFAULT_SEED
    paths = {}
    for key, doc in wl.configs(seed).items():
        paths[key] = str(tmp_path / f"{key}.yaml")
        with open(paths[key], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    cfgs = {key: load_config(path) for key, path in paths.items()}
    out_dir = str(tmp_path / "out")
    threads = fourier.get_threads()  # a CLI body runs with --threads 1
    try:
        out = wl.summarize(wl.body(cfgs, paths, out_dir), paths, out_dir)
    finally:
        fourier.set_threads(threads)
    with open(os.path.join(bench, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)[name]
    assert workloads.pinned_mismatches(out, pinned) == []
    assert wl.check(out, seed, False) == []


def test_reconstruct_workload_matches_its_pinned_outputs(tmp_path):
    _check_workload_against_its_pins(tmp_path, "reconstruct")


def test_constants_workload_matches_its_pinned_outputs(tmp_path):
    _check_workload_against_its_pins(tmp_path, "constants")


def test_counterterm_matters_in_the_reference():
    Q, V, rs, g, U, cfg = _setup()
    ref = brute_force_reference(NoiseSeed(11), cfg, V, Q, rs, U)
    raw = brute_force_reference(NoiseSeed(11), cfg, V, Q,
                                dataclasses.replace(rs, C_total=0.0), U)
    assert np.max(np.abs(ref[-1] - raw[-1])) > 1e-6


def test_reference_takes_full_cube_initial_data_of_a_real_field(rng):
    Q, V, rs, g, U, cfg = _setup()
    ref = brute_force_reference(NoiseSeed(11), cfg, V, Q, rs, U)
    s = next(U.fields())
    phi0 = _mirror(s["one"] - cfg.lam * s["c30"], g)
    got = brute_force_reference(NoiseSeed(11), cfg, V, Q, rs, U, phi0=phi0)
    assert np.array_equal(got, ref)
    c = rng.standard_normal(phi0.shape) + 1j * rng.standard_normal(phi0.shape)
    for bad in (c, phi0[..., : g.K + 1]):
        with pytest.raises(GridError):
            brute_force_reference(NoiseSeed(11), cfg, V, Q, rs, U, phi0=bad)


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


@pytest.mark.parametrize("which", ["Q", "renorm_set"])
def test_reference_rejects_a_symbol_or_constants_of_another_eps(which):
    # the OU increments and the drift would follow another symbol than U's
    Q, V, rs, g, U, cfg = _setup()
    other = DispersionQ.quartic(EPS / 3, nu=1.0)
    args = {"Q": Q, "renorm_set": rs}
    args[which] = other if which == "Q" else build_renorm(other, V, K=K)
    with pytest.raises(GridError, match="do not match the enhanced noise"):
        brute_force_reference(NoiseSeed(11), cfg, V, args["Q"],
                              args["renorm_set"], U)


def test_reference_checks_the_scheme_before_it_allocates():
    Q, V, rs, g, U, cfg = _setup()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="unknown scheme"):
            brute_force_reference(NoiseSeed(11), cfg, V, Q, rs, U, scheme="rk4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the returned trajectory alone would be 11 * 5**3 * 16 = 22000 bytes
    assert peak < 4096


def test_warm_solve_holds_no_trajectory_beside_its_result():
    # K = 8, 100 steps: the returned pair is 15.9 MB; half trajectories
    # beside it would add 8.4 MB, and one step's transients are about 4 MB
    Q = DispersionQ.quartic(0.2, nu=1.0)
    V = Potential.quartic(0.25)
    rs = build_renorm(Q, V, K=8)
    g = FrequencyLattice(8)
    n, dt = 100, 1e-4
    U = build_upsilon(NoiseSeed(17), g, Q, V, 0.2, np.arange(n + 1) * dt, rs,
                      burn_in=0.002)
    cfg = SolverConfig(eps=0.2, lam=rs.lam, dt=dt, T=n * dt, K=8)
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    solve(dataclasses.replace(cfg, T=2 * dt), U, z, z, V=V)  # warm the caches
    tracemalloc.start()
    try:
        P = solve(cfg, U, z, z, V=V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    excess = peak - (P.v_traj.nbytes + P.w_traj.nbytes)
    assert excess < 6 * 2**20
