"""End-to-end quantitative checks of the full toolkit, one per guarantee:
closed-form constants, Monte Carlo laws, algebraic identities, solver
consistency against a brute-force reference, and the coupled small-eps trend.
Each check also enforces its wall-clock budget."""

import math
import time

import numpy as np
from scipy import integrate

from phi4sim.besov import besov_norm
from phi4sim.diagrams import (build_limit_upsilon, build_upsilon, mc_moment,
                              second_moment_oracle)
from phi4sim.fourier import (DispersionQ, ExponentialQuadrature,
                             FrequencyLattice, _mirror, from_physical,
                             to_physical)
from phi4sim.gaussian import NoiseSeed, hermite
from phi4sim.renorm import (Potential, build_renorm, c3, coupling_lambda,
                            sigma2_eps, sigma2_limit)
from phi4sim.solver import (SolverConfig, brute_force_reference,
                            reconstruct_phi, solve, y_distance)
from conftest import (chaos_coefficients, combine, physical_blocks,
                      random_hermitian_field)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, \
                f"runtime {self.elapsed:.1f}s exceeds budget {self.limit}s"
        return False


def test_limit_variance_closed_form():
    with Budget(1.0):
        for nu in (0.25, 1.0, 4.0):
            Q = DispersionQ.quartic(0.1, nu=nu)
            want = 1.0 / (8.0 * np.pi * np.sqrt(nu))
            got = sigma2_limit(Q)
            assert abs(got - want) / want < 1e-6


def test_sextic_coupling_against_quadrature():
    with Budget(1.0):
        for a, nu in ((1.0, 1.0), (2.0, 0.5)):
            # independent oracle: (5a/4pi^2) int_{R^3} dtheta /
            # (|theta|^2 (1 + 4 pi^2 nu |theta|^2)), evaluated radially
            integral, _ = integrate.quad(
                lambda r: 4.0 * np.pi / (1.0 + 4.0 * np.pi**2 * nu * r**2),
                0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
            want = 5.0 * a / (4.0 * np.pi**2) * integral
            Q = DispersionQ.quartic(0.1, nu=nu)
            got = coupling_lambda(Potential.sextic(a), sigma2_limit(Q))
            assert abs(got - want) / want < 1e-4


def test_free_field_spectrum_and_temporal_decay_monte_carlo():
    with Budget(30.0):
        g = FrequencyLattice(3)
        M = 10**4
        for eps in (0.2, 0.1):
            Q = DispersionQ.quartic(eps, nu=1.0)
            for rep in mc_moment("one", ((0, 0, 0), (1, 0, 0), (2, 1, 0)), M,
                                 NoiseSeed(2024), g, Q):
                assert abs(rep.z) <= 3.0, (eps, rep.k, rep.z)
            lag, = mc_moment("one", [(1, 0, 0)], M, NoiseSeed(2025), g, Q,
                             t_pair=(0.0, 0.1))
            assert abs(lag.z) <= 3.0, (eps, lag.z)
            # the lag oracle itself is the exponential decay of the equal-time
            # variance
            eq = second_moment_oracle("one", 0.0, Q, eps, 3)[1, 0, 0]
            assert abs(lag.oracle
                       - eq * np.exp(-0.1 * Q.bracket_sq(1.0))) < 1e-12


def test_paraproduct_decomposition_identity_at_scale():
    with Budget(10.0):
        g = FrequencyLattice(16)
        P = g.pad_size(2)
        rng = np.random.default_rng(314)
        worst = 0.0
        n = g.n
        for _ in range(5):  # 5 chunks x 20 pairs
            f = from_physical(rng.standard_normal((20, n, n, n)), g, n)
            h = from_physical(rng.standard_normal((20, n, n, n)), g, n)
            Bf = physical_blocks(f, g)
            Bh = physical_blocks(h, g)
            bony = combine(Bf, Bh, g, "lt") + combine(Bh, Bf, g, "lt") \
                + combine(Bf, Bh, g, "res")
            prod = from_physical(to_physical(f, g, P)
                                 * to_physical(h, g, P), g, P)
            worst = max(worst, float(np.max(np.abs(prod - bony))))
        assert worst < 1e-11


def test_quadratic_counterterm_log_divergence_and_variance_convergence():
    with Budget(300.0):
        V = Potential.quartic(0.25)
        nu = 0.25
        eps_list = [0.2, 0.141, 0.1, 0.071, 0.05]
        s2 = sigma2_limit(DispersionQ.quartic(0.1, nu=nu))
        c2_vals, s2_errs = [], []
        for eps in eps_list:
            K = math.ceil(4.0 / eps)
            Q = DispersionQ.quartic(eps, nu=nu)
            rs = build_renorm(Q, V, K=K)
            c2_vals.append(rs.C2)
            s2_errs.append(abs(rs.sigma2_eps - s2))
            assert rs.C3 == 0.0  # no odd-chaos counterterm for quartic V
            assert c3(Q, rs.a_m, 1) == 0.0
        # C2 grows like log(1/eps): affine fit quality
        x = np.log(1.0 / np.array(eps_list))
        y = np.array(c2_vals)
        A = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - A @ coef
        r2 = 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
        assert coef[0] > 0
        assert r2 > 0.99, (r2, y)
        assert all(a > b for a, b in zip(s2_errs, s2_errs[1:])), s2_errs


def test_hermite_orthogonality_and_chaos_reconstruction():
    with Budget(10.0):
        nu = 1.3
        rng = np.random.default_rng(99)
        x = rng.normal(0.0, np.sqrt(nu), 10**5)
        H = [hermite(n, x, nu) for n in range(5)]
        for n in range(5):
            for m in range(5):
                if n == 0 and m == 0:
                    continue
                prod = H[n] * H[m]
                want = math.factorial(n) * nu**n if n == m else 0.0
                se = np.std(prod, ddof=1) / np.sqrt(len(prod))
                z = (np.mean(prod) - want) / se
                assert abs(z) <= 3.0, (n, m, z)
        for trial in range(25):
            deg = int(rng.integers(0, 7))
            c = rng.standard_normal(deg + 1)
            ck = chaos_coefficients(c, nu)
            xs = np.linspace(-3, 3, 41)
            want = np.polynomial.polynomial.polyval(xs, c)
            got = sum(ck[k] * hermite(k, xs, nu) for k in range(len(ck)))
            scale = 1.0 + np.max(np.abs(want))
            assert np.max(np.abs(got - want)) / scale < 1e-12


def test_quartic_potential_collapses_the_noise_hierarchy():
    with Budget(5.0):
        eps, K = 0.2, 3
        Q = DispersionQ.quartic(eps, nu=1.0)
        V = Potential.quartic(0.25)
        rs = build_renorm(Q, V, K=K)
        g = FrequencyLattice(K)
        t_grid = np.arange(4) * 1e-3
        U = build_upsilon(NoiseSeed(5), g, Q, V, eps, t_grid, rs,
                          burn_in=0.2, fine_window=0.05)
        nu = sigma2_eps(Q, eps, K) / eps
        P = g.pad_size(2)
        for i in range(len(t_grid)):
            # quartic coefficient noises: constant 1, the free field itself,
            # and the exact Wick square of the free field
            c0 = U.traj("c0")[i]
            one_hat = np.zeros_like(c0)
            one_hat[0, 0, 0] = 1.0
            assert np.max(np.abs(c0 - one_hat)) < 1e-10
            assert np.max(np.abs(U.traj("c1")[i]
                                 - U.traj("one")[i])) < 1e-10
            x = to_physical(U.traj("one")[i], g, P).real
            wick2 = from_physical(hermite(2, x, nu), g, P)
            assert np.max(np.abs(U.traj("c2")[i] - wick2)) < 1e-10
        assert len(rs.a_m) == 1 and abs(rs.a_m[0] - 1.0) < 1e-12


def _rel_l2(a, b):
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2))
                 / np.sqrt(np.sum(np.abs(b) ** 2)))


def _reconstruction_discrepancy(dt, T=0.05, eps=0.2, K=8, seed=17):
    Q = DispersionQ.quartic(eps, nu=1.0)
    V = Potential.quartic(0.25)
    rs = build_renorm(Q, V, K=K)
    g = FrequencyLattice(K)
    n = int(round(T / dt))
    t_grid = np.arange(n + 1) * dt
    U = build_upsilon(NoiseSeed(seed), g, Q, V, eps, t_grid, rs)
    cfg = SolverConfig(eps=eps, lam=rs.lam, dt=dt, T=T, K=K)
    z = np.zeros((g.n,) * 3, dtype=np.complex128)
    pair = solve(cfg, U, z, z, V=V)
    phi = reconstruct_phi(U, pair, cfg.lam)
    ref = brute_force_reference(NoiseSeed(seed), cfg, V, Q, rs, U)
    return _rel_l2(phi, ref)


def test_remainder_solver_reconstructs_the_direct_integration():
    with Budget(300.0):
        d = _reconstruction_discrepancy(1e-4)
        assert d < 1e-2, d
        d_half = _reconstruction_discrepancy(5e-5)
        # Both schemes take the same exponential-Euler step, but the march
        # multiplies noises already projected onto the cutoff (c2 =
        # P_K(X^2) - C1, P(c30^2)) where the reference projects only the
        # whole nonlinearity P_K(Phi^3).  That projection, not rounding,
        # leaves the gap: 3.6e-11 relative at step 1, 1.6e-10 over the
        # trajectory at dt 1e-4 and 1.1e-10 at dt 5e-5.  It has no O(dt)
        # component to halve, so the refinement check is satisfied either by
        # actual halving or by both values lying far below any truncation
        # scale.
        assert (d_half <= 0.5 * d) or (max(d, d_half) < 1e-8), (d, d_half)


def test_zero_coupling_reduces_to_exact_mode_decay():
    with Budget(1.0):
        eps, K, dt, T = 0.2, 4, 1e-3, 0.01
        Q = DispersionQ.quartic(eps, nu=1.0)
        V = Potential.quartic(0.25)
        rs = build_renorm(Q, V, K=K)
        g = FrequencyLattice(K)
        n = int(round(T / dt))
        t_grid = np.arange(n + 1) * dt
        U = build_upsilon(NoiseSeed(1), g, Q, V, eps, t_grid, rs,
                          burn_in=0.1, fine_window=0.05)
        cfg = SolverConfig(eps=eps, lam=0.0, dt=dt, T=T, K=K)
        rng = np.random.default_rng(4)
        v0 = random_hermitian_field(g, rng)
        w0 = random_hermitian_field(g, rng)
        pair = solve(cfg, U, _mirror(v0, g), _mirror(w0, g))
        decay = ExponentialQuadrature(g, Q, dt).decay
        for i in range(n + 1):
            assert np.max(np.abs(pair.v_traj[i] - _mirror(decay**i * v0, g))) < 1e-12
            assert np.max(np.abs(pair.w_traj[i] - _mirror(decay**i * w0, g))) < 1e-12


def test_semigroup_smoothing_constant_is_small():
    with Budget(30.0):
        g = FrequencyLattice(16)
        rng = np.random.default_rng(7)
        alpha, gamma = 0.0, 1.0
        ts = [2.0**-j for j in range(14)]  # dyadic within [1e-4, 1]
        worst = 0.0
        for eps in (0.0, 0.1):
            Q = DispersionQ.quartic(eps, nu=1.0)
            for _ in range(20):
                f = random_hermitian_field(g, rng)
                base = besov_norm(f, g, alpha)
                for t in ts:
                    sm = besov_norm(f * np.exp(-t * Q.bracket_sq_grid(g)), g, gamma)
                    worst = max(worst, t ** ((gamma - alpha) / 2.0) * sm / base)
        assert worst <= 10.0, worst


def test_coupled_runs_approach_the_limit_dynamics():
    with Budget(600.0):
        K, dt, T = 6, 2e-4, 0.02
        V = Potential.quartic(0.25)
        lam = 1.0  # exact for the quartic potential, any symbol
        g = FrequencyLattice(K)
        n = int(round(T / dt))
        t_grid = np.arange(n + 1) * dt
        seed = NoiseSeed(77)
        z = np.zeros((g.n,) * 3, dtype=np.complex128)

        U0 = build_limit_upsilon(seed, g, t_grid)
        cfg0 = SolverConfig(eps=0.0, lam=lam, dt=dt, T=T, K=K)
        limit = solve(cfg0, U0, z, z, V=V)

        dists = []
        for eps in (0.2, 0.1):
            Q = DispersionQ.quartic(eps, nu=1.0)
            rs = build_renorm(Q, V, K=K)
            U = build_upsilon(seed, g, Q, V, eps, t_grid, rs)
            cfg = SolverConfig(eps=eps, lam=lam, dt=dt, T=T, K=K)
            pair = solve(cfg, U, z, z, V=V)
            dists.append(y_distance(pair, limit, 0.0, T, g))
        assert dists[0] > dists[1] > 0.0, dists
