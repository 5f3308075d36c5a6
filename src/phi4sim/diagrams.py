"""Construction of the enhanced noise (the seven stochastic objects), the
sharp-cutoff standard objects, analytic second-moment oracles via Wick
contractions, Monte Carlo moment audits, and the regularity diagnostic.

Component tags (in chaos order):
    one : the free field trajectory (kept for reconstruction/coupling)
    c0  : V''''(sqrt(eps) X) / (6 lambda)
    c1  : V'''(sqrt(eps) X) / (6 lambda sqrt(eps))
    c2  : V''(sqrt(eps) X) / (3 lambda eps) - C1
    c30 : stationary Duhamel integral of the centered cubic noise
    c31 : resonance(c30, c1) - C3
    c22 : resonance(c20, c2) - C2
    c32 : resonance(c30, c2) - (3 C2 + 2 C3) X
plus the single field c20_0 (the integrated Wick square at t = 0) used by the
solver.  The stationary integrals start at t = -burn_in on a graded mesh
whose step coarsens geometrically away from t = 0 (run resolution adjacent to
the main window), so the discrete Duhamel recursion on t >= 0 is at the run
resolution at logarithmic burn-in cost.

Each noise field is worked once per step: c0..c3 are polynomials in the free
field that share its transform and powers, and one pass decomposes c30, c1,
c20 and c2 into Littlewood-Paley blocks once per slice for the resonances.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import besov, renorm
from .errors import GridError
from .fourier import (DispersionQ, ExponentialQuadrature, FourierField,
                      from_physical, to_physical)
from .gaussian import advance, sample_stationary, wick_power

X_EXPONENTS = {  # Besov regularity slot per component at smoothness budget kappa
    "c0": lambda k: -k,
    "c1": lambda k: -0.5 - k,
    "c2": lambda k: -1.0 - k,
    "c30": lambda k: 0.5 - k,
    "c31": lambda k: -k,
    "c22": lambda k: -k,
    "c32": lambda k: -0.5 - k,
}


@dataclass
class EnhancedNoise:
    """Time-indexed component fields of one enhanced-noise realization."""

    grid: object
    Q: object
    eps: float
    t_grid: np.ndarray
    components: dict
    c20_0: np.ndarray
    provenance: dict = field(default_factory=dict)

    def field(self, tag, i):
        return FourierField(self.grid, self.components[tag][i])

    def traj(self, tag):
        return self.components[tag]


@dataclass
class MomentReport:
    symbol: object
    k: tuple
    mean: float
    se: float
    oracle: float
    z: float
    M: int


def _uniform_dt(t_grid):
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if len(t_grid) < 2 or abs(t_grid[0]) > 1e-14:
        raise GridError("time grid must start at 0 with at least two points")
    dt = float(t_grid[1] - t_grid[0])
    if not np.allclose(np.diff(t_grid), dt, rtol=0, atol=1e-12 + 1e-9 * dt):
        raise GridError("time grid must be uniform")
    return dt


class _NoiseEvaluator:
    """The noises c0, c1, c2 and the centered cubic c3, each an ascending
    polynomial in the free-field samples x, on one shared padded grid."""

    def __init__(self, grid, polys):
        self.grid = grid
        self.P = grid.pad_size(max(map(len, polys)) - 1)
        self.polys = [np.trim_zeros(np.asarray(p, float), "b") for p in polys]

    @classmethod
    def potential(cls, grid, V, eps, lam, C1):
        """c_m = V^(4-m)(sqrt(eps) x) / (6 lam, 6 lam eps^1/2, 3 lam eps,
        lam eps^3/2)_m, with -C1 folded into c2 and -3 C1 x into c3."""
        r = np.sqrt(eps)
        scale = (6.0 * lam, 6.0 * lam * r, 3.0 * lam * eps, lam * eps**1.5)
        polys = [V.derivative(4 - m) / s for m, s in enumerate(scale)]
        polys = [p * r ** np.arange(len(p)) for p in polys]
        polys[2][0] -= C1
        polys[3][1] -= 3.0 * C1
        return cls(grid, polys)

    @classmethod
    def standard(cls, grid, nu):
        """1, x and the Wick powers H2(x; nu), H3(x; nu)."""
        return cls(grid, ([1.0], [0.0, 1.0], [-nu, 0.0, 1.0],
                          [0.0, -3.0 * nu, 0.0, 1.0]))

    def all_noises(self, coeffs, orders=(0, 1, 2, 3)):
        """Cube spectra of the noises of the chaos orders listed.  A noise of
        degree <= 1 is formed in spectral space; the others share one inverse
        transform and the powers of x, and take one forward transform each."""
        polys = [self.polys[m] for m in orders]
        top = max(map(len, polys))
        powers = [1.0]
        if top > 2:
            powers.append(to_physical(coeffs, self.grid, self.P))
            while len(powers) < top:
                powers.append(powers[-1] * powers[1])
        out = []
        for p in polys:
            if len(p) > 2:
                terms = [a * powers[j] for j, a in enumerate(p) if a]
                out.append(from_physical(sum(terms[1:], terms[0]), self.grid,
                                         self.P))
                continue
            c = p[1] * coeffs if len(p) == 2 else np.zeros_like(coeffs)
            if len(p) and p[0]:
                c[..., 0, 0, 0] += p[0]
            out.append(c)
        return tuple(out)


def _burn_phases(dt, burn_in, coarse_dt, fine_window):
    """Graded burn-in mesh, finest steps next to t = 0.

    Returns phases [(n, h), ...] ordered from the earliest: the step h starts
    at the run resolution dt adjacent to t = 0 and coarsens by factors of 4 up
    to coarse_dt going backwards, each level covering at most `fine_window`
    time units (in units of 256 steps), so the cost is logarithmic in
    coarse_dt / dt instead of linear in fine_window / dt.
    """
    phases = []
    remaining = burn_in
    h = dt
    first_cap = math.ceil(min(fine_window, burn_in) / dt)
    cap = min(first_cap, 256)
    while remaining > 1e-12 and h < coarse_dt:
        n = min(math.ceil(remaining / h), cap)
        phases.append((n, h))
        remaining -= n * h
        h *= 4.0
        cap = 256
    if remaining > 1e-12:
        n = max(1, round(remaining / coarse_dt))
        phases.append((n, remaining / n))
    return phases[::-1]


def _build_common(seed, grid, Q, evaluator, t_grid, sample, band,
                  burn_in, coarse_dt, fine_window, counterterms):
    """Shared burn-in, main loop and resonance pass; returns the components,
    c20 at t = 0 and the OU path offset.  `counterterms` (k31, k22, k32) are
    subtracted as c31 - k31, c22 - k22 (0-mode shifts) and c32 - k32 X."""
    dt = _uniform_dt(t_grid)
    nsteps = len(t_grid) - 1
    phases = _burn_phases(dt, burn_in, coarse_dt, fine_window)
    total_burn = sum(n * h for n, h in phases)
    ens = sample_stationary(seed, grid, Q, sample=sample, t0=-total_burn,
                            band=band)
    shape = (grid.n,) * 3
    I2 = np.zeros(shape, dtype=np.complex128)
    I3 = np.zeros(shape, dtype=np.complex128)
    for n, h in phases:
        quad = ExponentialQuadrature(grid, Q, h)
        for _ in range(n):
            q, c = evaluator.all_noises(ens.coeffs, (2, 3))
            I2 = quad.advance(I2, q)
            I3 = quad.advance(I3, c)
            ens = advance(ens, h)
    step_offset = ens.step

    T = nsteps + 1
    one = np.empty((T,) + shape, dtype=np.complex128)
    n0 = np.empty_like(one)
    n1 = np.empty_like(one)
    n2 = np.empty_like(one)
    c30 = np.empty_like(one)
    c20 = np.empty_like(one)
    quad = ExponentialQuadrature(grid, Q, dt)
    for i in range(T):
        one[i] = ens.coeffs
        n0[i], n1[i], n2[i], a3 = evaluator.all_noises(ens.coeffs)
        c30[i] = I3
        c20[i] = I2
        if i < nsteps:
            I2 = quad.advance(I2, n2[i])
            I3 = quad.advance(I3, a3)
            ens = advance(ens, dt)
    r31, r22, r32 = _resonance_pass(c30, n1, c20, n2, grid)
    k31, k22, k32 = counterterms
    return dict(one=one, c0=n0, c1=n1, c2=n2, c30=c30,
                c31=traj_const_shift(r31, -k31), c22=traj_const_shift(r22, -k22),
                c32=r32 - k32 * one), c20[0].copy(), step_offset


def _resonance_pass(c30, c1, c20, c2, grid, chunk=1):
    """The resonances c30 o c1, c20 o c2 and c30 o c2 of the trajectories,
    `chunk` slices at a time, each field decomposed into blocks once.
    Per-slice by default, as batches of pruned transforms fall out of the
    cache (K=8, 51 slices: 0.08 s against 0.11 s in chunks of 16)."""
    P = grid.pad_size(2)
    out = tuple(np.empty_like(c30) for _ in range(3))
    for s in range(0, len(c30), chunk):
        B30, B1, B20, B2 = (besov.physical_blocks(f[s:s + chunk], grid, None, P)
                            for f in (c30, c1, c20, c2))
        for dst, Ba, Bb in zip(out, (B30, B20, B30), (B1, B2, B2)):
            dst[s:s + chunk] = besov.combine(Ba, Bb, grid, P, "res")
    return out


def build_upsilon(seed, grid, Q, V, eps, t_grid, renorm_set, sample=0, band=None,
                  burn_in=10.0, coarse_dt=0.02, fine_window=1.0):
    """Assemble the seven-component enhanced noise at eps > 0."""
    if abs(renorm_set.eps - eps) > 1e-12 or Q.eps != eps:
        raise GridError("renorm constants / symbol eps mismatch")
    ev = _NoiseEvaluator.potential(grid, V, eps, renorm_set.lam, renorm_set.C1)
    C2, C3 = renorm_set.C2, renorm_set.C3
    comps, c20_0, step_offset = _build_common(
        seed, grid, Q, ev, t_grid, sample, band, burn_in, coarse_dt, fine_window,
        (C3, C2, 3.0 * C2 + 2.0 * C3))
    prov = dict(master=seed.master, sample=sample, step_offset=step_offset,
                band=band, burn_in=burn_in, coarse_dt=coarse_dt,
                fine_window=fine_window, lam=renorm_set.lam, renorm=renorm_set)
    return EnhancedNoise(grid, Q, eps, np.asarray(t_grid, dtype=np.float64),
                         comps, c20_0, prov)


def traj_const_shift(traj, delta):
    """Add a spatial constant to every time slice (0-mode shift)."""
    traj[:, 0, 0, 0] += delta
    return traj


def build_limit_upsilon(seed, grid, eps_cutoff, t_grid, lam=1.0, sample=0,
                        burn_in=10.0, coarse_dt=0.02, fine_window=1.0):
    """The standard sharp-cutoff objects (Q = z^2, eps = 0), coupled by seed.

    eps_cutoff > 0 restricts the driving noise to |k|_inf <= floor(1/eps_cutoff);
    eps_cutoff = 0 uses the full lattice.  The same noise counters as
    build_upsilon are used, so matched seeds give coupled realizations.
    """
    Q0 = DispersionQ.laplacian(0.0)
    if eps_cutoff and eps_cutoff > 0:
        band = min(grid.K, int(math.floor(1.0 / eps_cutoff)))
    else:
        band = grid.K
    c1_std, c2_std = renorm.standard_constants(None, K=band)
    ev = _NoiseEvaluator.standard(grid, c1_std)
    comps, c20_0, step_offset = _build_common(
        seed, grid, Q0, ev, t_grid, sample, band if band < grid.K else None,
        burn_in, coarse_dt, fine_window, (0.0, 2.0 * c2_std, 6.0 * c2_std))
    prov = dict(master=seed.master, sample=sample, step_offset=step_offset,
                band=band, burn_in=burn_in, coarse_dt=coarse_dt,
                fine_window=fine_window, lam=lam, c1_std=c1_std, c2_std=c2_std)
    return EnhancedNoise(grid, Q0, 0.0, np.asarray(t_grid, dtype=np.float64),
                         comps, c20_0, prov)


# ---------------------------------------------------------------------------
# analytic second moments (Wick contraction sums)


def _mode_index(grid, k):
    return tuple(int(ki) % grid.n for ki in k)


def second_moment_oracle(symbol, k, t_pair, Q, eps, K, V=None, renorm_set=None):
    """Analytic E[tau-hat(s,k) tau-hat(t,-k)] for the supported symbols.

    symbol is 'one', ('wick', n), 'c1', 'c2', or 'c30' (equal-time only for
    'c30').
    """
    if Q.eps != eps:
        Q = Q.with_eps(eps)
    s, t = (t_pair if isinstance(t_pair, (tuple, list)) else (t_pair, t_pair))
    tau = abs(t - s)
    grid = renorm.FrequencyLattice(K)
    bsq = Q.bracket_sq_grid(grid)
    idx = _mode_index(grid, k)
    if symbol == "one":
        return float(np.exp(-tau * bsq[idx]) * 0.5 / bsq[idx])
    if isinstance(symbol, tuple) and symbol[0] == "wick":
        n = int(symbol[1])
        return float(math.factorial(n) * renorm.chaos_convolution_power(Q, n, K, tau)[idx])
    if symbol in ("c1", "c2"):
        if V is None or renorm_set is None:
            raise ValueError("polynomial-noise oracles need V and renorm_set")
        a = renorm_set.a_m
        total = 0.0
        for m in range(1, V.n):
            if symbol == "c1":
                coeff, legs = a[m - 1], 2 * m - 1
            else:
                coeff, legs = a[m - 1] / m, 2 * m
            conv = renorm.chaos_convolution_power(Q, legs, K, tau)[idx]
            total += coeff**2 * eps ** (2 * (m - 1)) * float(math.factorial(legs) * conv)
        return total
    if symbol == "c30":
        if tau > 1e-12:
            raise ValueError("the integrated-cubic oracle is equal-time only")
        if V is None or renorm_set is None:
            raise ValueError("needs V and renorm_set")
        a = renorm_set.a_m
        total = 0.0
        for m in range(1, V.n):
            coeff = 3.0 * a[m - 1] / (m * (2 * m + 1))
            ti = renorm.time_integrated_chaos_moment(Q, 2 * m + 1, K)
            total += coeff**2 * eps ** (2 * (m - 1)) * float(ti[idx])
        return total
    raise ValueError(f"unsupported symbol {symbol!r}")


def _jackknife_se(values):
    M = len(values)
    if M < 2:
        return float("nan")
    mean = np.mean(values)
    loo = (mean * M - values) / (M - 1)
    return float(np.sqrt((M - 1) / M * np.sum((loo - np.mean(loo)) ** 2)))


def mc_moment(symbol, k, t, M, seed, grid, Q, V=None, renorm_set=None,
              t_pair=None, band=None):
    """Monte Carlo estimate of the second moment at mode k vs the oracle."""
    if M < 1:
        raise ValueError("need at least one sample")
    eps = Q.eps
    idx = _mode_index(grid, k)
    if V is not None and renorm_set is not None and eps > 0:
        ev = _NoiseEvaluator.potential(grid, V, eps, renorm_set.lam,
                                       renorm_set.C1)
        nu = renorm_set.sigma2_eps / eps
    else:
        ev = None
        nu = None
    vals = np.empty(M)
    for m in range(M):
        ens = sample_stationary(seed, grid, Q, sample=m, band=band)
        if t_pair is not None:
            dt = t_pair[1] - t_pair[0]
            ens2 = advance(ens, dt)
            vals[m] = (ens.coeffs[idx] * np.conj(ens2.coeffs[idx])).real
            continue
        if symbol == "one":
            vals[m] = np.abs(ens.coeffs[idx]) ** 2
        elif isinstance(symbol, tuple) and symbol[0] == "wick":
            n = int(symbol[1])
            P = grid.pad_size(n)
            x = to_physical(ens.coeffs, grid, P)
            w = from_physical(wick_power(x, n, nu if nu is not None
                                         else _pointwise_var(grid, Q)), grid, P)
            vals[m] = np.abs(w[idx]) ** 2
        elif symbol in ("c1", "c2"):
            a, = ev.all_noises(ens.coeffs, (1 if symbol == "c1" else 2,))
            vals[m] = np.abs(a[idx]) ** 2
        else:
            raise ValueError(f"unsupported symbol {symbol!r}")
    mean = float(np.mean(vals))
    se = _jackknife_se(vals)
    if t_pair is not None:
        oracle = second_moment_oracle("one", k, t_pair, Q, eps, grid.K)
    else:
        oracle = second_moment_oracle(symbol, k, t, Q, eps, grid.K, V, renorm_set)
    z = (mean - oracle) / se if np.isfinite(se) and se > 0 else float("nan")
    return MomentReport(symbol=symbol, k=tuple(k), mean=mean, se=se,
                        oracle=oracle, z=z, M=M)


def _pointwise_var(grid, Q):
    return float(np.sum(0.5 / Q.bracket_sq_grid(grid)))


# ---------------------------------------------------------------------------
# regularity diagnostic and the enhanced-noise norm


def regularity_diagnostic(moments, brackets, alpha, d=3):
    """Weighted sup sup_k <k>^(d+2 alpha) E|tau-hat(k)|^2 and its shell trend."""
    moments = np.asarray(moments, dtype=np.float64)
    weighted = brackets ** (d + 2.0 * alpha) * moments
    sup = float(np.max(weighted))
    arg = np.unravel_index(int(np.argmax(weighted)), weighted.shape)
    # dyadic shells in |bracket| (brackets >= 1 always)
    levels = np.floor(np.log2(brackets)).astype(int)
    shells = {}
    for j in range(0, int(levels.max()) + 1):
        sel = levels == j
        if np.any(sel):
            shells[j] = float(np.max(weighted[sel]))
    vals = [v for v in shells.values() if v > 0]
    trend = max(vals) / min(vals) if vals else float("inf")
    return dict(sup=sup, argmax=arg, shells=shells, trend_ratio=trend)


def x_norm(U, T, kappa=0.05, holder_stride=None):
    """Sum of component sup-in-time Besov norms at the slot exponents plus the
    1/8-Hoelder seminorm of the integrated cubic component at level 1/4 - kappa."""
    sel = U.t_grid <= T + 1e-12
    if not np.any(sel):
        raise GridError("time grid does not reach into [0, T]")
    times = np.where(sel)[0]
    total = 0.0
    for tag, expo in X_EXPONENTS.items():
        alpha = expo(kappa)
        best = 0.0
        for i in times:
            best = max(best, besov.besov_norm(U.field(tag, i), alpha))
        total += best
    idxs = times if holder_stride is None else times[::holder_stride]
    c30 = U.traj("c30")
    hold = 0.0
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            i, j = idxs[a], idxs[b]
            diff = FourierField(U.grid, c30[j] - c30[i])
            dtv = abs(U.t_grid[j] - U.t_grid[i])
            hold = max(hold, besov.besov_norm(diff, 0.25 - kappa) / dtv**0.125)
    return total + hold
