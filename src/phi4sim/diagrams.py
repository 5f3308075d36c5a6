"""Construction of the enhanced noise (the component fields and one
counterterm), the standard objects of the eps = 0 limit, analytic
second-moment oracles via Wick contractions, and Monte Carlo moment audits.

Both builds are driven by the one noise of `gaussian`, white noise on the
full mode lattice, through the same counters, so a build at eps > 0 and the
limit build from the same seed are coupled realizations.

Component tags (in chaos order):
    one : the free field (for reconstruction/coupling)
    c0  : V''''(sqrt(eps) X) / (6 lambda)
    c1  : V'''(sqrt(eps) X) / (6 lambda sqrt(eps))
    c2  : V''(sqrt(eps) X) / (3 lambda eps) - C1
    c30 : stationary Duhamel integral of the centered cubic noise
plus the scalar k32 = 3 C2 + 2 C3 (6 c2_std in the limit) of the remainder
step's mass term.  The paper's resonances c31 = c30 o c1 - C3,
c22 = c20 o c2 - C2 and c32 = c30 o c2 - k32 X enter the remainder step only
in combinations that collapse exactly at a fixed cutoff (see `solver`), so
neither they nor the integrated Wick square c20 are built, and the build
makes no block decomposition.  The stationary integral starts at
t = -burn_in on a graded mesh whose step coarsens geometrically away from
t = 0 (run resolution adjacent to the main window), so the discrete Duhamel
recursion on t >= 0 is at the run resolution at logarithmic burn-in cost.

A build runs the burn-in and keeps its end, the state at t = 0.  Each read
of it replays the main loop from there, which yields `one` and c30 at each
time of the grid and forms c3 only to advance c30, so every read gives the
same bits and no build holds a trajectory.  Only `one` and c30 carry
history: c0, c1 and c2 are polynomials in X at the same time, which
`EnhancedNoise.slices` forms from `one` as it hands out a slice.

c0..c3 are polynomials in the free field X.  Their terms of degree <= 1 (-C1
in c2, -3 C1 X in c3, and all of a noise of degree <= 1) are formed in
spectral space.  The monomials of degree >= 2 share one inverse transform of
X and its powers, and each noise sums them in place on the padded grid
before its one forward transform, in arrays the evaluator makes at their
first use, so a burn-in step allocates no padded-grid array.  The burn-in evaluates c3 alone, one
forward transform per step, and only on the modes that can still reach t = 0:
a phase ending tau before t = 0 forms it on the cube |k|_inf <= m that holds
every mode with b^2(k) tau <= -ln(float64 eps), as the semigroup damps the
others by e^{-b^2(k) tau}, below rounding; the last phase's cube is the whole
lattice, and m >= 1, as a one-mode transform takes other BLAS kernels.  X's
samples go on the pad fast_len(d K + m + 1), alias-free for that projection of
its degree-d powers, and c30 advances on the cube, X on the whole lattice.
"""

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import renorm
from .errors import GridError
from .fourier import (DispersionQ, ExponentialQuadrature, FrequencyLattice, fast_len,
                      from_physical, to_physical)
from .gaussian import advance, hermite, ou_transition, sample_stationary

@dataclass
class EnhancedNoise:
    """One enhanced-noise realization: the build's noise `evaluator`, its
    state `start` at t = 0 after the burn-in (the OU ensemble and c30), the
    main loop's `step` (its quadrature and OU transition) and the
    counterterm k32 of the remainder step's mass term.

    Every read replays the main loop from `start`, so every read gives the
    same bits: `fields` yields `one` and c30 at each time of t_grid, and
    `slices` adds c0, c1 and c2, formed from `one` in one `all_noises` call."""

    grid: object
    Q: object
    eps: float
    t_grid: np.ndarray
    k32: float
    evaluator: object = field(repr=False)
    start: tuple = field(repr=False)
    step: tuple = field(repr=False)
    provenance: dict = field(default_factory=dict)

    def fields(self):
        """`one` and c30 at each time of t_grid; c3 is formed only to advance c30."""
        (ens, I3), (quad, ou_step) = self.start, self.step
        yield dict(one=ens.coeffs, c30=I3)
        for _ in self.t_grid[1:]:
            c, = self.evaluator.all_noises(ens.coeffs, (3,))
            I3 = quad.advance(I3, c)
            ens = advance(ens, quad.dt, ou_step)
            yield dict(one=ens.coeffs, c30=I3)

    def slices(self):
        """The slices `one`, c0, c1, c2 and c30, one per time of t_grid."""
        return map(self.evaluator.with_noises, self.fields())


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
        self.polys = [np.trim_zeros(np.asarray(p, float), "b") for p in polys]
        self.P = grid.pad_size(max(map(len, self.polys)) - 1)
        self.cube, self.sub = grid, Ellipsis  # the modes formed, their index
        self._size = self.P**3
        self._buffers = {}

    def _work(self, name):
        """The padded-grid work array `name`: a prefix view of the array made
        at the full pad at its first use, reused by later calls."""
        if name not in self._buffers:
            self._buffers[name] = np.empty(self._size)
        return self._buffers[name][: self.P**3].reshape((self.P,) * 3)

    def onto(self, m):
        """This evaluator forming only the modes |k|_inf <= m, on the pad
        fast_len(d K + m + 1), d the top degree, in prefix views of its arrays."""
        ev = copy.copy(self)
        ev.cube, ev.sub = FrequencyLattice(m), self.grid.sub_cube(m)
        ev.P = fast_len((max(map(len, self.polys)) - 1) * self.grid.K + m + 1)
        return ev

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
        """Cube spectra of the noises of the chaos orders listed.  The terms of
        degree <= 1 are formed in spectral space; the monomials of degree >= 2
        share one inverse transform and the powers of x, and each noise that
        has them takes one forward transform.  The padded-grid work runs in
        place in the evaluator's arrays; every spectrum returned is a new
        array."""
        polys = [self.polys[m] for m in orders]
        top = max(map(len, polys))
        powers = [None]
        if top > 2:
            powers += [self._work(j) for j in range(1, top)]
            to_physical(coeffs, self.grid, self.P, out=powers[1])
            for j in range(2, top):
                np.multiply(powers[j - 1], powers[1], out=powers[j])
        out = []
        for p in polys:
            c = p[1] * coeffs[self.sub] if len(p) > 1 else np.zeros_like(coeffs[self.sub])
            if len(p) > 2:
                js = [j for j in range(2, len(p)) if p[j]]
                work = np.multiply(powers[js[0]], p[js[0]], out=self._work("sum"))
                for j in js[1:]:
                    work += np.multiply(powers[j], p[j], out=self._work("term"))
                c += from_physical(work, self.cube, self.P)
            if len(p) and p[0]:
                c[..., 0, 0, 0] += p[0]
            out.append(c)
        return tuple(out)

    def with_noises(self, s):
        """The slice s with c0, c1 and c2 formed from its `one` in one call."""
        c0, c1, c2 = self.all_noises(s["one"], (0, 1, 2))
        return dict(s, c0=c0, c1=c1, c2=c2)


COARSE_DT = 0.02  # the burn-in's coarsest step
FINE_WINDOW = 1.0  # the most time the burn-in's finest level covers


def _burn_phases(dt, burn_in):
    """Graded burn-in mesh, finest steps next to t = 0.

    Returns phases [(n, h), ...] ordered from the earliest: the step h starts
    at the run resolution dt adjacent to t = 0 and coarsens by factors of 4 up
    to COARSE_DT going backwards, each level covering at most 256 steps (the
    finest at most FINE_WINDOW time units), so the cost is logarithmic in
    COARSE_DT / dt instead of linear in FINE_WINDOW / dt.
    """
    phases = []
    remaining = burn_in
    h = dt
    cap = min(math.ceil(min(FINE_WINDOW, burn_in) / dt), 256)
    while remaining > 1e-12 and h < COARSE_DT:
        n = min(math.ceil(remaining / h), cap)
        phases.append((n, h))
        remaining -= n * h
        h *= 4.0
        cap = 256
    if remaining > 1e-12:
        n = max(1, round(remaining / COARSE_DT))
        phases.append((n, remaining / n))
    return phases[::-1]


def _burn_cubes(grid, Q, phases):
    """The cube |k|_inf <= m of each burn-in phase (module docstring): m is
    the integer part of the largest |k| with b^2(k) tau <= -ln(float64 eps),
    at most K, tau the time from the phase's end to t = 0."""
    bsq, cut = Q.bracket_sq_grid(grid), -math.log(np.finfo(float).eps)
    taus = sum(n * h for n, h in phases) - np.cumsum([n * h for n, h in phases])
    return [min(grid.K, int(np.max(grid.kabs[bsq * t <= cut], initial=0))) for t in taus]


def _build(seed, grid, Q, eps, evaluator, t_grid, k32, constants, sample, burn_in):
    """The shared build: the burn-in, then an EnhancedNoise that starts the
    main loop from its end, with `constants` in its provenance."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    dt = _uniform_dt(t_grid)
    phases = _burn_phases(dt, burn_in)
    ens = sample_stationary(seed, grid, Q, sample=sample)
    I3 = np.zeros(grid.shape, dtype=np.complex128)
    for (n, h), m in zip(phases, _burn_cubes(grid, Q, phases)):
        ev = evaluator.onto(max(m, 1)) if m < grid.K else evaluator
        quad, ou_step = ExponentialQuadrature(ev.cube, Q, h), ou_transition(grid, Q, h)
        for _ in range(n):
            c, = ev.all_noises(ens.coeffs, (3,))
            I3[ev.sub] = quad.advance(I3[ev.sub], c)
            ens = advance(ens, h, ou_step)
    prov = dict(master=seed.master, sample=sample, step_offset=ens.step,
                burn_in=burn_in, **constants)
    step = ExponentialQuadrature(grid, Q, dt), ou_transition(grid, Q, dt)
    return EnhancedNoise(grid, Q, eps, t_grid, k32, evaluator, (ens, I3), step, prov)


def build_upsilon(seed, grid, Q, V, eps, t_grid, renorm_set, sample=0, burn_in=10.0):
    """The enhanced noise at eps > 0 on t_grid, burnt in."""
    if abs(renorm_set.eps - eps) > 1e-12 or Q.eps != eps:
        raise GridError("renorm constants / symbol eps mismatch")
    ev = _NoiseEvaluator.potential(grid, V, eps, renorm_set.lam, renorm_set.C1)
    return _build(seed, grid, Q, eps, ev, t_grid, 3.0 * renorm_set.C2 + 2.0 * renorm_set.C3,
                  dict(lam=renorm_set.lam, renorm=renorm_set), sample, burn_in)


def build_limit_upsilon(seed, grid, t_grid, sample=0, burn_in=10.0):
    """The standard objects of the eps = 0 limit (Q = z^2) on the lattice,
    with the same noise counters as build_upsilon, so matched seeds give
    coupled realizations."""
    c1_std, c2_std = renorm.standard_constants(grid.K)
    return _build(seed, grid, DispersionQ.laplacian(0.0), 0.0,
                  _NoiseEvaluator.standard(grid, c1_std), t_grid,
                  6.0 * c2_std, dict(c1_std=c1_std, c2_std=c2_std), sample, burn_in)


# ---------------------------------------------------------------------------
# analytic second moments (Wick contraction sums)


def _mode_index(n, k):
    return tuple(int(ki) % n for ki in k)


def second_moment_oracle(symbol, t_pair, Q, eps, K, V=None, renorm_set=None):
    """Analytic E[tau-hat(s,k) tau-hat(t,-k)] on the whole mode cube (FFT
    order), one convolution power per chaos order.

    symbol is 'one', ('wick', n), 'c1', 'c2', or 'c30' (equal-time only for
    'c30').
    """
    if Q.eps != eps:
        Q = Q.with_eps(eps)
    s, t = (t_pair if isinstance(t_pair, (tuple, list)) else (t_pair, t_pair))
    tau = abs(t - s)
    if symbol == "one":
        b = renorm._octant_bsq(Q, K)
        return renorm._unfold(np.exp(-tau * b) * 0.5 / b)
    if isinstance(symbol, tuple) and symbol[0] == "wick":
        n = int(symbol[1])
        return math.factorial(n) * renorm.chaos_convolution_power(Q, n, K, tau)
    if symbol in ("c1", "c2", "c30") and (V is None or renorm_set is None):
        raise ValueError("polynomial-noise oracles need V and renorm_set")
    if symbol in ("c1", "c2"):
        a = renorm_set.a_m
        total = 0.0
        for m in range(1, V.n):
            if symbol == "c1":
                coeff, legs = a[m - 1], 2 * m - 1
            else:
                coeff, legs = a[m - 1] / m, 2 * m
            conv = renorm.chaos_convolution_power(Q, legs, K, tau)
            total += coeff**2 * eps ** (2 * (m - 1)) * (math.factorial(legs) * conv)
        return total
    if symbol == "c30":
        if tau > 1e-12:
            raise ValueError("the integrated-cubic oracle is equal-time only")
        a = renorm_set.a_m
        total = 0.0
        for m in range(1, V.n):
            coeff = 3.0 * a[m - 1] / (m * (2 * m + 1))
            ti = renorm.time_integrated_chaos_moment(Q, 2 * m + 1, K)
            total += coeff**2 * eps ** (2 * (m - 1)) * ti
        return total
    raise ValueError(f"unsupported symbol {symbol!r}")


def _jackknife_se(values):
    M = len(values)
    if M < 2:
        return float("nan")
    mean = np.mean(values)
    loo = (mean * M - values) / (M - 1)
    return float(np.sqrt((M - 1) / M * np.sum((loo - np.mean(loo)) ** 2)))


def mc_moment(symbol, modes, M, seed, grid, Q, V=None, renorm_set=None,
              t_pair=None):
    """Monte Carlo estimates of the equal-time second moment at each mode k of
    `modes` vs the oracle, one MomentReport per mode; with t_pair = (s, t), of
    the free field's covariance at lag |t - s|.  symbol is 'one', ('wick', n),
    'c1' or 'c2'.  The oracle cube is built, and so the request checked,
    before the first draw (a renorm_set at another eps than Q raises
    GridError); each sample is drawn and evaluated once for all the modes."""
    if M < 1:
        raise ValueError("need at least one sample")
    if t_pair is not None and symbol != "one":
        raise ValueError(f"a time pair is supported for 'one' only, not {symbol!r}")
    wick = isinstance(symbol, tuple) and symbol[0] == "wick"
    if not (wick or symbol in ("one", "c1", "c2")):
        raise ValueError(f"unsupported symbol {symbol!r}")
    eps = Q.eps
    cube = second_moment_oracle(symbol, 0.0 if t_pair is None else t_pair, Q,
                                eps, grid.K, V, renorm_set)
    # k3 < 0 is read at -k: c(k) = conj c(-k), and |c|^2, Re c conj c' are even
    idx = tuple(np.transpose([_mode_index(grid.n, k if k[2] >= 0 else [-ki for ki in k])
                              for k in modes]))
    if V is not None and renorm_set is not None and eps > 0:
        if abs(renorm_set.eps - eps) > 1e-12:
            raise GridError("renorm constants / symbol eps mismatch")
        ev = _NoiseEvaluator.potential(grid, V, eps, renorm_set.lam,
                                       renorm_set.C1)
        nu = renorm_set.sigma2_eps / eps
    else:
        ev = None
        nu = renorm.point_variance(Q, grid.K)
    if ev is None and symbol in ("c1", "c2"):
        raise ValueError(f"{symbol!r} is sampled at eps > 0 only")
    vals = np.empty((len(modes), M))
    for m in range(M):
        ens = sample_stationary(seed, grid, Q, sample=m)
        if t_pair is not None:
            lag = abs(t_pair[1] - t_pair[0])
            ens2 = advance(ens, lag) if lag > 0 else ens
            vals[:, m] = (ens.coeffs[idx] * np.conj(ens2.coeffs[idx])).real
            continue
        if symbol == "one":
            a = ens.coeffs
        elif wick:
            n = int(symbol[1])
            P = grid.pad_size(n)
            x = to_physical(ens.coeffs, grid, P)
            a = from_physical(hermite(n, x, nu), grid, P)
        else:
            a, = ev.all_noises(ens.coeffs, (1 if symbol == "c1" else 2,))
        vals[:, m] = np.abs(a[idx]) ** 2
    reports = []
    for k, v in zip(modes, vals):
        mean = float(np.mean(v))
        se = _jackknife_se(v)
        oracle = float(cube[_mode_index(grid.n, k)])
        z = (mean - oracle) / se if np.isfinite(se) and se > 0 else float("nan")
        reports.append(MomentReport(symbol=symbol, k=tuple(k), mean=mean, se=se,
                                    oracle=oracle, z=z, M=M))
    return reports
