"""Stationary free fields via exact per-mode Ornstein-Uhlenbeck updates,
Hermite polynomials, Wick powers, and Gaussian chaos coefficients.

Randomness comes from counter-based Philox streams keyed by
(master seed, sample index, purpose tag, step index), so ensembles are
bit-identical regardless of thread count and the same complex normals can be
reused across different dispersion symbols (the coupling construction) and by
the brute-force reference integrator.
"""

from dataclasses import dataclass, replace

import numpy as np

from .fourier import FourierField

TAG_INIT = 1
TAG_OU = 2


@dataclass(frozen=True)
class NoiseSeed:
    """Master seed for a family of counter-based noise streams."""

    master: int = 0


def _stream(seed, sample, tag, step):
    ss = np.random.SeedSequence([int(seed.master), int(sample), int(tag), int(step)])
    return np.random.Generator(np.random.Philox(seed=ss))


def unit_hermitian_normals(seed, grid, sample, tag, step):
    """Complex normals Z on the lattice with Z(-k) = conj(Z(k)), E|Z(k)|^2 = 1.

    Built by hermitian-symmetrizing an i.i.d. complex Gaussian array; the only
    self-conjugate mode on the odd symmetric lattice is k = 0 (real, variance 1).
    """
    rng = _stream(seed, sample, tag, step)
    ab = rng.standard_normal((2,) + (grid.n,) * 3)
    z = (ab[0] + 1j * ab[1]) / np.sqrt(2.0)
    return (z + np.conj(grid.reflect(z))) / np.sqrt(2.0)


@dataclass
class ModeOUEnsemble:
    """Per-mode complex OU state with conjugate symmetry (a free-field sample).

    `band` optionally restricts the driving noise and state to the sub-cube
    |k|_inf <= band (sharp Fourier mollification); None means the full lattice.
    """

    grid: object
    Q: object
    t: float
    coeffs: np.ndarray
    seed: NoiseSeed
    sample: int = 0
    step: int = 0
    band: int = None

    def field(self):
        return FourierField(self.grid, self.coeffs)


def band_mask(grid, band):
    if band is None:
        return None
    m = (np.abs(grid.k1) <= band) & (np.abs(grid.k2) <= band) & (np.abs(grid.k3) <= band)
    return m.astype(np.float64)


def sample_stationary(seed, grid, Q, sample=0, t0=0.0, step0=0, band=None):
    """Draw the stationary Gaussian state: E|fhat(k)|^2 = 1/(2 bracket(k)^2)."""
    z = unit_hermitian_normals(seed, grid, sample, TAG_INIT, step0)
    bsq = Q.bracket_sq_grid(grid)
    coeffs = z * np.sqrt(0.5 / bsq)
    mask = band_mask(grid, band)
    if mask is not None:
        coeffs = coeffs * mask
    return ModeOUEnsemble(grid, Q, float(t0), coeffs, seed, sample, step0, band)


def _ou_noise(seed, grid, sample, step, bsq, decay, band):
    """Increment of variance (1 - decay^2) / (2 bsq) per mode at the given
    counter position, for a symbol already evaluated as bsq, decay."""
    z = unit_hermitian_normals(seed, grid, sample, TAG_OU, step)
    inc = z * np.sqrt((1.0 - decay**2) * 0.5 / bsq)
    mask = band_mask(grid, band)
    if mask is not None:
        inc = inc * mask
    return inc


def ou_increment(seed, grid, Q, sample, step, dt, band=None):
    """The Gaussian increment used by `advance` at the given counter position.

    Exposed so a reference integrator can drive an equation with the identical
    noise path: variance (1 - e^{-2 b^2 dt}) / (2 b^2) per mode.
    """
    bsq = Q.bracket_sq_grid(grid)
    return _ou_noise(seed, grid, sample, step, bsq, np.exp(-dt * bsq), band)


def advance(ens, dt):
    """Exact OU transition: new = e^{-b^2 dt} old + increment; stationarity preserved."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    bsq = ens.Q.bracket_sq_grid(ens.grid)
    decay = np.exp(-dt * bsq)
    inc = _ou_noise(ens.seed, ens.grid, ens.sample, ens.step, bsq, decay, ens.band)
    return replace(ens, t=ens.t + dt, coeffs=decay * ens.coeffs + inc, step=ens.step + 1)


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


def wick_power(f_phys, n, nu):
    """Pointwise Wick power H_n(f(x); nu) of physical samples."""
    return hermite(n, np.asarray(f_phys, dtype=np.float64), nu)


def _poly_coeffs(f):
    c = np.asarray(f, dtype=np.float64)
    if c.ndim != 1:
        raise ValueError("polynomial must be a 1-d ascending coefficient array")
    return c


def _double_factorial_odd(m):
    # (2m-1)!! for m >= 0
    out = 1.0
    for i in range(1, 2 * m, 2):
        out *= i
    return out


def gaussian_expectation(f, sigma2):
    """E f(X) for X ~ N(0, sigma2).

    Polynomials (ascending coefficient arrays) use the exact moment formula
    E X^{2m} = (2m-1)!! sigma2^m; callables fall back to 64-node
    Gauss-Hermite quadrature (exact for polynomial degree <= 127).
    """
    if sigma2 < 0:
        raise ValueError("variance must be >= 0")
    if callable(f):
        nodes, weights = np.polynomial.hermite.hermgauss(64)
        x = nodes * np.sqrt(2.0 * sigma2)
        return float(np.sum(weights * f(x)) / np.sqrt(np.pi))
    c = _poly_coeffs(f)
    total = 0.0
    for p, cp in enumerate(c):
        if p % 2 == 0 and cp != 0.0:
            total += cp * _double_factorial_odd(p // 2) * sigma2 ** (p // 2)
    return float(total)


def polyder(c, order=1):
    return np.polynomial.polynomial.polyder(np.asarray(c, dtype=np.float64), order)


def chaos_coefficients(f, nu):
    """Hermite-chaos coefficients c_k = E[f^(k)(X)]/k! for X ~ N(0, nu).

    Returns the list (c_0, .., c_deg) with f(x) = sum_k c_k H_k(x; nu)
    exactly as polynomials.
    """
    c = _poly_coeffs(f)
    deg = len(c) - 1
    out = []
    fact = 1.0
    for k in range(deg + 1):
        if k > 0:
            fact *= k
        out.append(gaussian_expectation(polyder(c, k) if k else c, nu) / fact)
    return out
