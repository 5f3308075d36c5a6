"""Stationary free fields via exact per-mode Ornstein-Uhlenbeck updates,
Hermite polynomials, and Gaussian expectations of polynomials.

The one driving noise is space-time white noise on the full mode lattice
|k|_inf <= K, the lattice cutoff being its only truncation.  Randomness comes
from counter-based Philox streams keyed by (master seed, sample index,
purpose tag, step index), so ensembles are bit-identical regardless of
thread count and the same complex normals can be reused across different
dispersion symbols (the coupling construction) and by the brute-force
reference integrator.
"""

from dataclasses import dataclass, replace

import numpy as np

TAG_INIT = 1
TAG_OU = 2


@dataclass(frozen=True)
class NoiseSeed:
    """Master seed for a family of counter-based noise streams."""

    master: int = 0


def _stream(seed, sample, tag, step):
    ss = np.random.SeedSequence([int(seed.master), int(sample), int(tag), int(step)])
    return np.random.Generator(np.random.Philox(seed=ss))


_minus_k_index = {}


def _minus_k(n):
    """Flat index into an (n, n, n) cube (FFT order) of -k, for each k of its
    k3 >= 0 half; built once per n."""
    if n not in _minus_k_index:
        neg = -np.arange(n) % n  # the index of -k along an axis
        _minus_k_index[n] = (neg[:, None, None] * n + neg[:, None]) * n + neg[: n // 2 + 1]
    return _minus_k_index[n]


def unit_hermitian_normals(seed, grid, sample, tag, step):
    """Complex normals Z on the lattice with Z(-k) = conj(Z(k)), E|Z(k)|^2 = 1.

    The k3 >= 0 half of the hermitian symmetrization (z(k) + conj z(-k)) / sqrt 2
    of an i.i.d. complex Gaussian cube z = (a + i b) / sqrt 2, drawn over the
    whole cube; the draws at -k are read directly, so only the half is formed.
    k = 0 is the only self-conjugate mode (real, variance 1).  Each division
    by sqrt 2 is a product with 1/sqrt 2, as numpy divides complex by real.
    """
    rng = _stream(seed, sample, tag, step)
    ab = rng.standard_normal((2,) + (grid.n,) * 3)
    a_minus, b_minus = ab.reshape(2, -1).take(_minus_k(grid.n), axis=1)
    a, b = ab[..., : grid.K + 1]
    s = 1.0 / np.sqrt(2.0)
    out = np.empty(grid.shape, dtype=np.complex128)
    re, im = out.real, out.imag  # float views of the output
    np.multiply(a, s, out=re)
    re += np.multiply(a_minus, s, out=a_minus)
    re *= s
    np.multiply(b, s, out=im)
    im -= np.multiply(b_minus, s, out=b_minus)
    im *= s
    return out


@dataclass
class ModeOUEnsemble:
    """Per-mode complex OU state with conjugate symmetry (a free-field sample)."""

    grid: object
    Q: object
    coeffs: np.ndarray
    seed: NoiseSeed
    sample: int = 0
    step: int = 0


def sample_stationary(seed, grid, Q, sample=0):
    """Draw the stationary Gaussian state: E|fhat(k)|^2 = 1/(2 bracket(k)^2),
    at step 0 of the sample's noise counters."""
    z = unit_hermitian_normals(seed, grid, sample, TAG_INIT, 0)
    bsq = Q.bracket_sq_grid(grid)
    return ModeOUEnsemble(grid, Q, z * np.sqrt(0.5 / bsq), seed, sample)


def ou_transition(grid, Q, dt):
    """The per-mode constants of an OU step of size dt: the decay e^{-b^2 dt}
    and the increment scale sqrt((1 - decay^2) / (2 b^2))."""
    bsq = Q.bracket_sq_grid(grid)
    decay = np.exp(-dt * bsq)
    return decay, np.sqrt((1.0 - decay**2) * 0.5 / bsq)


def ou_increment(seed, grid, sample, step, transition):
    """The Gaussian increment used by `advance` at the given counter position,
    for `transition` = ou_transition(grid, Q, dt).

    Exposed so a reference integrator can drive an equation with the identical
    noise path: variance (1 - e^{-2 b^2 dt}) / (2 b^2) per mode.
    """
    return unit_hermitian_normals(seed, grid, sample, TAG_OU, step) * transition[1]


def advance(ens, dt, transition=None):
    """Exact OU transition: new = e^{-b^2 dt} old + increment; stationarity
    preserved.  A caller repeating one step passes `transition` =
    ou_transition(ens.grid, ens.Q, dt), computed once."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    decay, scale = transition or ou_transition(ens.grid, ens.Q, dt)
    inc = unit_hermitian_normals(ens.seed, ens.grid, ens.sample, TAG_OU, ens.step) * scale
    return replace(ens, coeffs=decay * ens.coeffs + inc, step=ens.step + 1)


# ---------------------------------------------------------------------------
# Hermite / Wick machinery


def hermite(n, x, nu=1.0):
    """Hermite polynomial H_n(x; nu) via H_{n+1} = x H_n - n nu H_{n-1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.shape else float(h_prev)
    h = x.copy()
    for m in range(1, n):
        h, h_prev = x * h - m * nu * h_prev, h
    return h if h.shape else float(h)


def _double_factorial_odd(m):
    # (2m-1)!! for m >= 0
    out = 1.0
    for i in range(1, 2 * m, 2):
        out *= i
    return out


def gaussian_expectation(f, sigma2):
    """E f(X) for X ~ N(0, sigma2) of the polynomial f (an ascending
    coefficient array), by the exact moments E X^{2m} = (2m-1)!! sigma2^m."""
    if sigma2 < 0:
        raise ValueError("variance must be >= 0")
    total = 0.0
    for p, cp in enumerate(np.asarray(f, dtype=np.float64)):
        if p % 2 == 0 and cp != 0.0:
            total += cp * _double_factorial_odd(p // 2) * sigma2 ** (p // 2)
    return float(total)


def polyder(c, order=1):
    return np.polynomial.polynomial.polyder(np.asarray(c, dtype=np.float64), order)

