"""Scalar constants of the theory: limiting and lattice variances, the
coupling constant, chaos coefficients a_m, the counterterms C1, C2, C3, the
time-integrated resonance kernels, and the sharp-cutoff standard-model
constants.

The quadratic/cubic counterterms reduce to lattice sums of the form

    (N!/2^N) * sum over N-tuples l_1..l_N in the mode cube of
        prod_j bracket(l_j)^-2 / (bracket(l)^2 + sum_j bracket(l_j)^2),

with l = l_1 + .. + l_N (restricted to the cube when matching the truncated
field products).  The coupled denominator is opened with
(A+B)^-1 = int_0^inf exp(-s(A+B)) ds, which turns each s-node into a
convolution power; the s-integral is done with panel-wise Gauss-Legendre on
log-spaced panels.  The spectra involved are radial, hence even in every
axis, so the convolution powers are evaluated on the non-negative octant of
a padded grid with type-I DCTs (symmetric convolution; Martucci, IEEE Trans.
Signal Process. 42(5), 1994) at about 1/8 of the full-grid transform volume.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
from scipy import integrate
from scipy.special import roots_legendre

from .besov import DyadicPartition
from .errors import FeasibilityError, GrowthViolationError
from .fourier import DispersionQ, FrequencyLattice, get_threads, validate_symbol
from .gaussian import gaussian_expectation, polyder


# ---------------------------------------------------------------------------
# potential


@dataclass
class Potential:
    """Even polynomial V(x) = sum_j v_{2j} x^{2j}, coeffs = (v2, v4, .., v_{2n})."""

    coeffs: tuple

    def __post_init__(self):
        self.coeffs = tuple(float(c) for c in self.coeffs)
        if len(self.coeffs) < 2:
            raise ValueError("potential degree must be at least 4")

    @classmethod
    def quartic(cls, c4=0.25):
        return cls((0.0, c4))

    @classmethod
    def sextic(cls, a=1.0):
        return cls((0.0, 0.0, a / 6.0))

    @property
    def n(self):
        """Half-degree: V has degree 2n."""
        return len(self.coeffs)

    @property
    def degree(self):
        return 2 * len(self.coeffs)

    def poly(self):
        """Ascending full coefficient array of length degree+1."""
        c = np.zeros(self.degree + 1)
        c[2::2] = self.coeffs
        return c

    def derivative(self, order=1):
        return polyder(self.poly(), order) if order else self.poly()

    def eval(self, x, order=0):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=np.float64),
                                                self.derivative(order))


# ---------------------------------------------------------------------------
# variances and coupling


def sigma2_limit(Q, rmax=80.0, tol=1e-10):
    """(1/2) int_{R^3} dtheta / Q(2 pi |theta|) = 2 pi int_0^inf r^2/Q(2 pi r) dr."""
    report = validate_symbol(Q, zmax=1e3, nsamples=400)
    if not report.items["growth"]:
        raise GrowthViolationError(
            f"symbol growth exponent 3+eta with eta={report.eta_hat:.3g} <= 0: "
            "radial integral diverges")
    def f(r):
        return r**2 / Q.eval(2.0 * np.pi * r)
    head, _ = integrate.quad(f, 0.0, rmax, epsabs=tol, epsrel=tol, limit=200)
    tail, _ = integrate.quad(f, rmax, np.inf, epsabs=tol, epsrel=tol, limit=200)
    return 2.0 * np.pi * (head + tail)


def _cube_bsq(Q, K):
    grid = FrequencyLattice(K)
    return grid, Q.bracket_sq_grid(grid)


def sigma2_eps(Q, eps, K):
    """(eps/2) sum_{|k|_inf <= K} bracket(k)^-2 over the mode cube."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if Q.eps != eps:
        Q = Q.with_eps(eps)
    _, bsq = _cube_bsq(Q, K)
    return 0.5 * eps * float(np.sum(1.0 / bsq))


def coupling_lambda(V, sigma2):
    """lambda = (1/6) E V''''(X), X ~ N(0, sigma2)."""
    return gaussian_expectation(V.derivative(4), sigma2) / 6.0


def a_coeffs(V, eps, lam, sigma2_eps_val):
    """Chaos coefficients a_m = E V^(2m+2)(N(0, sigma_eps^2)) / (6 lambda (2m-1)!)."""
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    out = []
    for m in range(1, V.n):
        fact = math.factorial(2 * m - 1)
        out.append(gaussian_expectation(V.derivative(2 * m + 2), sigma2_eps_val)
                   / (6.0 * lam * fact))
    return out


def c1(V, eps, lam, sigma2_eps_val):
    """C1 = E V''(N(0, sigma_eps^2)) / (3 lambda eps)."""
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return gaussian_expectation(V.derivative(2), sigma2_eps_val) / (3.0 * lam * eps)


# ---------------------------------------------------------------------------
# stationary pair integrals (time-integrated resonance expectations)


def _s_quadrature(N, npanels=20, order=8):
    """Gauss-Legendre nodes/weights on [0, 1e-4] + log-spaced panels up to smax."""
    smax = 40.0 / (N + 1.0)
    edges = np.concatenate([[0.0], np.geomspace(1e-4, smax, npanels)])
    x, w = roots_legendre(order)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


class EvenOctant:
    """Real fields whose cube spectrum is real and even in every axis, held by
    their samples on the octant {0..P/2}^3 of a size-P grid (P even).

    Such a field is even in every physical axis too, so the octant fixes it;
    a type-I DCT of length P/2+1 is the size-P DFT restricted to even data.
    """

    def __init__(self, grid, P):
        if P % 2 or P < grid.n:
            raise ValueError(f"octant transforms need an even pad >= {grid.n}, got {P}")
        self.grid = grid
        self.P = P
        # multiplicity of each octant index in the full grid: j and P - j
        self.w = np.full(P // 2 + 1, 2.0 / P)
        self.w[[0, -1]] = 1.0 / P

    def samples(self, spec):
        """Octant samples of the field whose even, real cube spectrum has the
        non-negative-frequency block spec[:K+1, :K+1, :K+1] (a cube or just
        that block)."""
        K = self.grid.K
        x = spec[: K + 1, : K + 1, : K + 1]
        # axis by axis, zero-padding to P/2+1 as it goes: each transform
        # skips the lines that are still all zero
        for axis in (-1, -2, -3):
            x = scipy.fft.dct(x, type=1, n=self.P // 2 + 1, axis=axis,
                              workers=get_threads())
        return x

    def mean(self, phys):
        """Full-grid mean of an even field from its octant samples."""
        return float(self.w @ (self.w @ (phys @ self.w)))

    def spectrum(self, phys):
        """Cube spectrum (real, FFT order) of an even field from its octant samples."""
        half = scipy.fft.dctn(phys, type=1, workers=get_threads()) / self.P**3
        a = np.abs(self.grid.freqs)
        return half[np.ix_(a, a, a)]


def _even_pad(need):
    """Smallest even 5-smooth length >= need (even for the octant, fast for the DCT)."""
    return 2 * scipy.fft.next_fast_len(-(-need // 2), real=True)


def _spi_pad(N, K):
    # Above K = 24, for strongly smoothing symbols the aliased tuples carry
    # weights below 1e-12 of the total; a half-padded grid keeps the large-K
    # sweeps cheap.
    return _even_pad((N + 1) * K + 1 if K <= 24 else 2 * K + 2)


def stationary_pair_integral(Q, N, K, method="auto", restrict=True, pad=None):
    """E of the resonance of the time-integrated Wick power with itself:

        (N!/2^N) sum_{l_1..l_N in cube} prod_j b_j^-1 / (b(l) + sum_j b_j),

    with b(k) = bracket(k)^2 and l = sum_j l_j; `restrict` keeps only tuples
    whose total l stays in the cube (matching cube-projected field products).
    """
    grid, bsq = _cube_bsq(Q, K)
    if method == "auto":
        method = "direct" if (grid.n**3) ** N <= 2e7 else "fft"
    if method == "direct":
        return _spi_direct(Q, grid, bsq, N, restrict)
    if not restrict:
        raise FeasibilityError("FFT path computes the cube-restricted sum only")
    octant = EvenOctant(grid, pad or _spi_pad(N, K))
    b = bsq[: K + 1, : K + 1, : K + 1]  # radial: this block fixes the cube
    nodes, weights = _s_quadrature(N)
    total = 0.0
    pref = math.factorial(N) / 2.0**N
    for s, w in zip(nodes, weights):
        h = np.exp(-s * b)
        total += w * octant.mean(octant.samples(h) * octant.samples(h / b) ** N)
    return pref * total


def _cube_kvecs(grid):
    return np.stack([grid.k1.ravel(), grid.k2.ravel(), grid.k3.ravel()], axis=-1)


def _leading_legs(kv, b, N):
    """Chunks over the first N-1 legs of the N-tuples of cube modes (the last
    leg stays a vectorized axis): their summed k and b and product of 1/b."""
    npts = b.size
    shape = (npts,) * (N - 1)
    chunk = max(1, int(2e6 // npts))
    flat_count = npts ** (N - 1)
    for start in range(0, flat_count, chunk):
        stop = min(start + chunk, flat_count)
        ksum = np.zeros((stop - start, 3))
        bsum = np.zeros(stop - start)
        wprod = np.ones(stop - start)
        for lead in np.unravel_index(np.arange(start, stop), shape):
            ksum += kv[lead]
            bsum += b[lead]
            wprod *= 1.0 / b[lead]
        yield ksum, bsum, wprod


def _spi_direct(Q, grid, bsq, N, restrict):
    """Direct vectorized tuple sum; feasible for small (2K+1)^(3N) only."""
    kv = _cube_kvecs(grid)
    b = bsq.ravel()
    if b.size**N > 5e8:
        raise FeasibilityError(f"direct sum infeasible for N={N}, K={grid.K}")
    pref = math.factorial(N) / 2.0**N
    total = 0.0
    for ksum, bsum, wprod in _leading_legs(kv, b, N):
        ktot = ksum[:, None, :] + kv[None, :, :]
        if restrict:
            ok = np.all(np.abs(ktot) <= grid.K, axis=-1)
        else:
            ok = np.ones(ktot.shape[:2], dtype=bool)
        btot = Q.bracket_sq(np.sqrt(np.sum(ktot**2, axis=-1)))
        denom = btot + bsum[:, None] + b[None, :]
        term = (wprod[:, None] / b[None, :]) / denom
        total += float(np.sum(term * ok))
    return pref * total


def g_kernel_time_integral(Q, eps, m, K, k=(0, 0, 0), restrict=False):
    """Time integral of the resonance kernel at output mode k:

        ((2m+1)!/2^(2m)) sum over 2m-tuples of
            w(|l+k|, |l|) prod_j b_j^-1 / (b(l+k) + sum_j b_j),

    where w is the dyadic resonance weight sum_{|i-j|<=1} chi_i chi_j.  At
    k = 0 the weight is identically one and the sum is unrestricted unless
    `restrict` asks for the cube-projected variant.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if Q.eps != eps:
        Q = Q.with_eps(eps)
    grid, bsq = _cube_bsq(Q, K)
    N = 2 * m
    kvec = np.asarray(k, dtype=np.int64)
    kv = _cube_kvecs(grid)
    b = bsq.ravel()
    if b.size**N > 5e8:
        raise FeasibilityError(f"kernel sum infeasible for m={m}, K={K}")
    part = DyadicPartition(2 * m * K + int(np.ceil(np.linalg.norm(kvec))) + 1)
    pref = math.factorial(2 * m + 1) / 2.0 ** (2 * m)
    total = 0.0
    for ksum, bsum, wprod in _leading_legs(kv, b, N):
        ltot = ksum[:, None, :] + kv[None, :, :]
        lshift = ltot + kvec
        if restrict:
            ok = np.all(np.abs(ltot) <= grid.K, axis=-1).astype(np.float64)
        else:
            ok = 1.0
        bshift = Q.bracket_sq(np.sqrt(np.sum(lshift**2, axis=-1)))
        wres = part.resonance_weight(np.sqrt(np.sum(lshift**2, axis=-1)),
                                     np.sqrt(np.sum(ltot**2, axis=-1)))
        denom = bshift + bsum[:, None] + b[None, :]
        total += float(np.sum(ok * wres * (wprod[:, None] / b[None, :]) / denom))
    return pref * total


def c2(Q, V, eps, lam, K, method="auto"):
    """C2 = sum_m (a_m/m)^2 eps^(2m-2) E[I(X^{<>2m}) o X^{<>2m}]."""
    if Q.eps != eps:
        Q = Q.with_eps(eps)
    a = a_coeffs(V, eps, lam, sigma2_eps(Q, eps, K))
    total = 0.0
    for m in range(1, V.n):
        am = a[m - 1]
        if am == 0.0:
            continue
        spi = stationary_pair_integral(Q, 2 * m, K, method=method)
        total += (am / m) ** 2 * eps ** (2 * m - 2) * spi
    return total


def c3(Q, V, eps, lam, K, method="auto"):
    """C3 = sum_m 3 a_m a_{m+1}/(m(2m+1)) eps^(2m-1) E[I(X^{<>2m+1}) o X^{<>2m+1}].

    Empty (exactly zero) for quartic V (n = 2).
    """
    if Q.eps != eps:
        Q = Q.with_eps(eps)
    a = a_coeffs(V, eps, lam, sigma2_eps(Q, eps, K))
    total = 0.0
    for m in range(1, V.n - 1):
        coeff = 3.0 * a[m - 1] * a[m] / (m * (2 * m + 1))
        if coeff == 0.0:
            continue
        spi = stationary_pair_integral(Q, 2 * m + 1, K, method=method)
        total += coeff * eps ** (2 * m - 1) * spi
    return total


def c_total(lam, C1, C2, C3):
    """C = 3 lambda C1 - 9 lambda^2 C2 - 6 lambda^2 C3."""
    return 3.0 * lam * C1 - 9.0 * lam**2 * C2 - 6.0 * lam**2 * C3


# ---------------------------------------------------------------------------
# oracle helpers shared with the diagram moment checks


def chaos_convolution_power(Q, n, K, tau=0.0):
    """Cube array of sum_{l_1+..+l_n = k, l_j in cube} prod_j e^{-tau b_j}/(2 b_j)."""
    grid, bsq = _cube_bsq(Q, K)
    octant = EvenOctant(grid, _even_pad((n + 1) * K + 1))
    return octant.spectrum(octant.samples(np.exp(-tau * bsq) * 0.5 / bsq) ** n)


def time_integrated_chaos_moment(Q, n, K):
    """Cube array of E|I~(X^{<>n})-hat(t,k)|^2:

        n! b(k)^-1 sum_{P(n,k)} prod_j (2 b_j)^-1 (b(k) + sum_j b_j)^-1.
    """
    grid, bsq = _cube_bsq(Q, K)
    octant = EvenOctant(grid, _even_pad((n + 1) * K + 1))
    nodes, weights = _s_quadrature(n)
    acc = np.zeros((grid.n,) * 3)
    for s, w in zip(nodes, weights):
        h = np.exp(-s * bsq)
        acc += w * h * octant.spectrum(octant.samples(h / bsq) ** n)
    return math.factorial(n) / 2.0**n * acc / bsq


# ---------------------------------------------------------------------------
# bundled constants


@dataclass
class RenormSet:
    """All scalar constants at one (eps, K)."""

    eps: float
    K: int
    sigma2: float
    sigma2_eps: float
    lam: float
    a_m: list
    C1: float
    C2: float
    C3: float
    C_total: float = field(default=None)

    def __post_init__(self):
        if self.C_total is None:
            self.C_total = c_total(self.lam, self.C1, self.C2, self.C3)


def build_renorm(Q, V, K=None, method="auto"):
    """Compute the full constant set for the symbol's eps at cutoff K (default 4/eps)."""
    eps = Q.eps
    if eps <= 0:
        raise ValueError("build_renorm needs eps > 0")
    if K is None:
        K = math.ceil(4.0 / eps)
    s2 = sigma2_limit(Q)
    lam = coupling_lambda(V, s2)
    s2e = sigma2_eps(Q, eps, K)
    a = a_coeffs(V, eps, lam, s2e)
    C1 = c1(V, eps, lam, s2e)
    C2 = c2(Q, V, eps, lam, K, method=method)
    C3 = c3(Q, V, eps, lam, K, method=method)
    return RenormSet(eps=eps, K=K, sigma2=s2, sigma2_eps=s2e, lam=lam, a_m=a,
                     C1=C1, C2=C2, C3=C3)


def standard_constants(eps_cutoff, K=None):
    """Sharp-cutoff constants of the standard model (Q = z^2, eps = 0).

    c1_std = E (mollified field)^2 = sum_{|k|_inf <= R} 1/(2<k>^2) with
    R = floor(1/eps_cutoff) (or the given K); c2_std = half the stationary
    resonance expectation of the integrated Wick square, which makes the
    centered objects exactly mean-zero.
    """
    R = int(K) if K is not None else int(math.floor(1.0 / eps_cutoff))
    Q0 = DispersionQ.laplacian(0.0)
    _, bsq = _cube_bsq(Q0, R)
    c1_std = 0.5 * float(np.sum(1.0 / bsq))
    c2_std = 0.5 * stationary_pair_integral(Q0, 2, R)
    return c1_std, c2_std
