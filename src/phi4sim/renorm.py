"""Scalar constants of the theory: limiting and lattice variances, the
coupling constant, chaos coefficients a_m, the counterterms C1, C2, C3, and
the sharp-cutoff standard-model constants.

The quadratic/cubic counterterms reduce to lattice sums of the form

    (N!/2^N) * sum over N-tuples l_1..l_N in the mode cube of
        prod_j bracket(l_j)^-2 / (bracket(l)^2 + sum_j bracket(l_j)^2),

with l = l_1 + .. + l_N (restricted to the cube when matching the truncated
field products).  The coupled denominator is opened with
(A+B)^-1 = int_0^inf exp(-s(A+B)) ds, which turns each s-node into a
convolution power; the s-integral is done with panel-wise Gauss-Legendre on
log-spaced panels.  One kernel, _resonance_block, forms every such sum: the
spectra involved are radial, hence even in every axis, so the convolution
powers are evaluated on the non-negative octant of a padded grid (symmetric
convolution; Martucci, IEEE Trans. Signal Process. 42(5), 1994) from the
bracket on {0..K}^3, never on the (2K+1)^3 cube.  There the size-P DFT is a
type-I DCT, run as pruned products with cosine matrices cached per P:
each pass contracts an axis of K+1 non-negative frequencies.

At a node s, the modes whose e^{-s b} lies below eps/(2K+1)^3 of its largest
value, eps = 2^-52, cannot change the node's float64 sum: b is nowhere below
its minimum, so together they carry at most eps of the mass of each of the
node's N legs e^{-s b}/b and of its output factor e^{-s b}.  So each node
runs on its support {0..K_s}^3, K_s the last slab of the block holding a mode
above that cut (the bracket need not be monotone, so every slab is checked),
at the smallest even 5-smooth pad >= (N+1) K_s + 1, which is alias-free on
the support, or at the call's pad P where that is smaller.  The kept set,
s (b - min b) <= ln((2K+1)^3/eps), only shrinks as s grows, so each node's
support is found on the previous node's, and a node gives the full block's
number up to rounding.  The pair integrals take P alias-free, (N+1) K + 1,
up to K = 24 and for the eps = 0 Laplacian; above K = 24 with eps > 0 they
take the half pad 2K + 2, where the aliased tuples weigh below 1e-12 of the
total.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FeasibilityError, GrowthViolationError
from .fourier import DispersionQ, fast_len, validate_symbol
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


# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK's qk15; Piessens et al., QUADPACK,
# Springer 1983): the 15 Kronrod nodes, and as rows the Kronrod weights and the
# 7-point Gauss weights (nonzero on the odd nodes only)
_XGK = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245, 0.0])
_WGK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG7 = np.array([0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                 0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_GK_NODES = np.r_[-_XGK, _XGK[-2::-1]]
_GK_WEIGHTS = np.stack([np.r_[_WGK, _WGK[-2::-1]],
                        np.insert(np.r_[_WG7, _WG7[-2::-1]], range(8), 0.0)])


def _gauss_kronrod(f, a, b, tol):
    """int_a^b f by adaptive Gauss-Kronrod 7/15, each sweep vectorised over its
    open intervals.  Done when the summed |Kronrod - Gauss| is below tol times
    the integral; an interval above its length's share of that is bisected.
    At most 2000 intervals are evaluated (FeasibilityError beyond)."""
    edges = np.linspace(a, b, 9)
    lo, hi = edges[:-1], edges[1:]
    total = total_err = 0.0
    used = 0
    while lo.size:
        used += lo.size
        if used > 2000:
            raise FeasibilityError(f"quadrature did not reach tol={tol:g} in 2000 intervals")
        half = 0.5 * (hi - lo)
        k, g = half * (f((lo + half)[:, None] + half[:, None] * _GK_NODES) @ _GK_WEIGHTS.T).T
        err = np.abs(k - g)
        whole = total + k.sum()
        if total_err + err.sum() <= tol * abs(whole):
            return float(whole)
        split = err > tol * abs(whole) * (hi - lo) / (b - a)
        total += k[~split].sum()
        total_err += err[~split].sum()
        lo, hi = lo[split], hi[split]
        mid = lo + 0.5 * (hi - lo)
        lo, hi = np.r_[lo, mid], np.r_[mid, hi]
    return float(total)


def sigma2_limit(Q, tol=1e-10):
    """(1/2) int_{R^3} dtheta / Q(2 pi |theta|) = 2 pi int_0^inf r^2/Q(2 pi r) dr.

    The radial integral runs on r = tan(t)^2, t in [0, pi/2), with the
    adaptive Gauss-Kronrod rule above: for a symbol growing like z^(3+eta)
    the integrand in t stays bounded at pi/2 when eta >= 1/2, and the rule
    reaches tol for eta down to about 0.4 (FeasibilityError below that).
    """
    report = validate_symbol(Q)
    if not report.items["growth"]:
        raise GrowthViolationError(
            f"symbol growth exponent 3+eta with eta={report.eta_hat:.3g} <= 0: "
            "radial integral diverges")
    def f(t):
        u = np.tan(t)
        r = u * u  # dr = 2u(1 + r) dt
        return 4.0 * np.pi * r * r * u * (1.0 + r) / Q.eval(2.0 * np.pi * r)
    return _gauss_kronrod(f, 0.0, 0.5 * np.pi, tol)


def _octant_bsq(Q, K):
    """bracket(k)^2 on {0..K}^3: it is radial, so this block holds the cube's values."""
    k = np.arange(K + 1)
    return Q.bracket_sq(np.sqrt((k[:, None, None]**2 + k[:, None]**2 + k**2).astype(np.float64)))


def _unfold(block):
    """Cube array (FFT order) of a radial spectrum given on its block {0..K}^3."""
    a = np.r_[0:len(block), len(block) - 1:0:-1]
    return block[np.ix_(a, a, a)]


def _octant_sum(block):
    """Sum over the cube of a radial spectrum given on its block {0..K}^3:
    the octant with multiplicities 1, 2, 2, .. per axis."""
    m = np.r_[1.0, np.full(len(block) - 1, 2.0)]
    return float(m @ (m @ (block @ m)))


def point_variance(Q, K):
    """E X(x)^2 = sum_{|k|_inf <= K} 1/(2 bracket(k)^2), the variance of the
    free field at a point."""
    return 0.5 * _octant_sum(1.0 / _octant_bsq(Q, K))


def sigma2_eps(Q, eps, K):
    """(eps/2) sum_{|k|_inf <= K} bracket(k)^-2 over the mode cube."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps * point_variance(Q.with_eps(eps), K)


def coupling_lambda(V, sigma2):
    """lambda = (1/6) E V''''(X), X ~ N(0, sigma2), nonzero: every constant and
    noise is scaled by 1/lambda.  At degree >= 6 it depends on sigma2."""
    lam = gaussian_expectation(V.derivative(4), sigma2) / 6.0
    if lam == 0:
        raise ConfigError(f"the potential's coupling lambda is 0 at variance {sigma2:.6g}")
    return lam


def a_coeffs(V, lam, sigma2_eps_val):
    """Chaos coefficients a_m = E V^(2m+2)(N(0, sigma_eps^2)) / (6 lambda (2m-1)!)."""
    out = []
    for m in range(1, V.n):
        fact = math.factorial(2 * m - 1)
        out.append(gaussian_expectation(V.derivative(2 * m + 2), sigma2_eps_val)
                   / (6.0 * lam * fact))
    return out


def c1(V, eps, lam, sigma2_eps_val):
    """C1 = E V''(N(0, sigma_eps^2)) / (3 lambda eps)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return gaussian_expectation(V.derivative(2), sigma2_eps_val) / (3.0 * lam * eps)


# ---------------------------------------------------------------------------
# stationary pair integrals (time-integrated resonance expectations)


def _s_quadrature(N, npanels=20, order=8):
    """Gauss-Legendre nodes/weights on [0, 1e-4] + log-spaced panels up to smax."""
    smax = 40.0 / (N + 1.0)
    edges = np.concatenate([[0.0], np.geomspace(1e-4, smax, npanels)])
    x, w = np.polynomial.legendre.leggauss(order)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * x + mid).ravel(), (half * w).ravel()


_octant_matrices = {}


def _cosines(P):
    """The cosine matrices of a size-P grid, built once per P, with M = P/2+1
    and each phase reduced mod P = 2(M-1): D[j, k] = c_k cos(pi jk/(M-1)) with
    c_0 = 1, c_k = 2 (samples from the non-negative frequencies), and
    S[k, j] = w_j cos(pi jk/(M-1)) / P with endpoint weights 1, 2, .., 2, 1
    (the frequencies from the octant samples).  They hold every frequency up
    to P/2; an octant at K takes the first K+1 columns of D and rows of S."""
    if P not in _octant_matrices:
        M = P // 2 + 1
        cos = np.cos(2 * np.pi * (np.outer(np.arange(M), np.arange(M)) % P) / P)
        w = np.full(M, 2.0 / P)
        w[[0, -1]] = 1.0 / P
        D = cos * np.r_[1.0, np.full(M - 1, 2.0)]
        _octant_matrices[P] = (D, np.ascontiguousarray(cos.T * w))
    return _octant_matrices[P]


def _view(buf, shape):
    """C-contiguous view of shape on the leading entries of a flat array."""
    return buf[: math.prod(shape)].reshape(shape)


class EvenOctant:
    """Real fields whose cube spectrum is real and even in every axis, held by
    their samples on the octant {0..P/2}^3 of a size-P grid (P even).

    Such a field is even in every physical axis too, so the octant fixes it,
    and the size-P DFT restricted to even data is a type-I DCT of length P/2+1.
    Both directions run as three products with the cosine matrices of
    _cosines, one per axis, through two pass arrays: `work`, two flat arrays
    (a caller's storage, reused across octants), or arrays of their own.
    """

    def __init__(self, K, P, work=None):
        if P % 2 or P < 2 * K + 1:
            raise ValueError(f"octant transforms need an even pad >= {2 * K + 1}, got {P}")
        self.K, self.P = K, P
        D, S = _cosines(P)
        self.D, self.S = D[:, : K + 1], S[: K + 1]
        M = P // 2 + 1
        shapes = ((K + 1) ** 2, M), (K + 1, M, M)
        # samples and block (which runs the passes in reverse) share them
        self.passes = tuple(map(np.empty, shapes)) if work is None else \
            tuple(map(_view, work, shapes))

    def samples(self, spec, out=None):
        """Octant samples of the field whose even, real cube spectrum has the
        non-negative-frequency block spec[:K+1, :K+1, :K+1] (a cube or just
        that block), written into `out` (C-contiguous) when given."""
        K, M, D = self.K, self.P // 2 + 1, self.D
        x1, x2 = self.passes
        # axis -1, then -2, then -3: each pass contracts K+1 nonzeros
        np.matmul(spec[: K + 1, : K + 1, : K + 1].reshape((K + 1) ** 2, K + 1), D.T, out=x1)
        np.matmul(D, x1.reshape(K + 1, K + 1, M), out=x2)
        out = np.empty((M, M, M)) if out is None else out
        np.matmul(D, x2.reshape(K + 1, M * M), out=out.reshape(M, M * M))
        return out

    def block(self, phys, out=None):
        """Block {0..K}^3 of the cube spectrum of an even field from its octant
        samples, written into `out` (C-contiguous) when given."""
        K, M, S = self.K, self.P // 2 + 1, self.S
        x2, x1 = self.passes
        np.matmul(S, phys.reshape(M, M * M), out=x1.reshape(K + 1, M * M))
        np.matmul(S, x1, out=x2.reshape(K + 1, K + 1, M))
        out = np.empty((K + 1,) * 3) if out is None else out
        np.matmul(x2, S.T, out=out.reshape((K + 1) ** 2, K + 1))
        return out

    def power_block(self, y, N, yN, out=None):
        """Block {0..K}^3 of the spectrum of y^N, the power formed in yN."""
        np.copyto(yN, y)
        for _ in range(N - 1):
            yN *= y
        return self.block(yN, out)


def _even_pad(need):
    """Smallest even 5-smooth length >= need (even for the octant)."""
    return 2 * fast_len(-(-need // 2), (2, 3, 5))


def _spi_pad(Q, N, K):
    # The call's widest pad (module docstring): alias-free up to K = 24 and for
    # the eps = 0 Laplacian, else the half pad.  _resonance_block narrows it
    # per s-node to the alias-free pad of the node's support where smaller.
    return _even_pad((N + 1) * K + 1 if K <= 24 or Q.eps == 0 else 2 * K + 2)


def _resonance_block(Q, N, K, P):
    """Block {0..K}^3 of the time-integrated resonance on the octant of a
    size-P grid,

        (N!/2^N) sum_s w_s e^{-s b} block((e^{-s b}/b)^{*N}),

    the one s-node loop behind every resonance sum.  Each node runs on the
    support of e^{-s b} (module docstring), found on the previous node's: the
    nodes run in increasing s, so the support only shrinks.  The node's
    arithmetic runs on contiguous arrays, made once per call and viewed at
    the node's shape: b on the support, the support's running sums, and
    e^{-s b}, which lives in the samples array while that is free.  When the
    support shrinks, the sums of the modes it drops are final and go to the
    block, and b and the sums of the modes it keeps are packed anew."""
    b = _octant_bsq(Q, K)
    nodes, weights = _s_quadrature(N)
    cut = np.finfo(np.float64).eps / (2 * K + 1) ** 3
    acc, sums = np.empty_like(b), np.zeros(b.size)
    y, yN = (np.empty((P // 2 + 1) ** 3) for _ in range(2))
    work = [a.ravel() for a in EvenOctant(K, P).passes]  # checks P, too
    b, n = b.ravel(), K + 1
    bn, sn = (_view(a, (n,) * 3) for a in (b, sums))
    for s, w in zip(nodes, weights):
        hs = _view(y, (n,) * 3)
        np.exp(np.multiply(-s, bn, out=hs), out=hs)
        top = hs.reshape(n, -1).max(axis=1)  # the largest e^{-sb} of each slab
        Ks = int(np.flatnonzero(top >= cut * top.max())[-1])
        if Ks < n - 1:
            # the dropped modes' sums are final; b on the kept support is
            # packed through the free samples array, the kept sums from acc
            acc[:n, :n, :n] = sn
            n = Ks + 1
            packed = _view(y, (n,) * 3)
            np.copyto(packed, bn[:n, :n, :n])
            bn, sn, hs = (_view(a, (n,) * 3) for a in (b, sums, y))
            np.copyto(bn, packed)
            np.copyto(sn, acc[:n, :n, :n])
            np.exp(np.multiply(-s, bn, out=hs), out=hs)
        Ps = min(P, _even_pad((N + 1) * Ks + 1))
        octant, m = EvenOctant(Ks, Ps, work), (Ps // 2 + 1,) * 3
        # h/b and the node's block live in the second pass array: samples
        # reads h/b in its first pass only, and block writes its result in
        # its last pass, which reads the first pass array only
        blk = _view(work[1], (n,) * 3)
        ys = octant.samples(np.divide(hs, bn, out=blk), out=_view(y, m))
        octant.power_block(ys, N, _view(yN, m), out=blk)
        np.exp(np.multiply(-s, bn, out=hs), out=hs)  # y is free again
        hs *= w
        hs *= blk
        sn += hs
    acc[:n, :n, :n] = sn
    acc *= math.factorial(N) / 2.0**N
    return acc


def stationary_pair_integral(Q, N, K):
    """E of the resonance of the time-integrated Wick power with itself:

        (N!/2^N) sum_{l_1..l_N in cube} prod_j b_j^-1 / (b(l) + sum_j b_j),

    with b(k) = bracket(k)^2 and l = sum_j l_j, over the tuples whose total l
    stays in the cube (matching cube-projected field products): the cube sum
    of the resonance block on the octant of the _spi_pad grid.
    """
    return _octant_sum(_resonance_block(Q, N, K, _spi_pad(Q, N, K)))


def c2(Q, a, K):
    """C2 = sum_m (a_m/m)^2 eps^(2m-2) E[I(X^{<>2m}) o X^{<>2m}], from the
    chaos coefficients a = (a_1, a_2, ..) at the symbol's eps."""
    total = 0.0
    for m, am in enumerate(a, start=1):
        if am == 0.0:
            continue
        spi = stationary_pair_integral(Q, 2 * m, K)
        total += (am / m) ** 2 * Q.eps ** (2 * m - 2) * spi
    return total


def c3(Q, a, K):
    """C3 = sum_m 3 a_m a_{m+1}/(m(2m+1)) eps^(2m-1) E[I(X^{<>2m+1}) o X^{<>2m+1}].

    Empty (exactly zero) for quartic V (a single coefficient).
    """
    total = 0.0
    for m in range(1, len(a)):
        coeff = 3.0 * a[m - 1] * a[m] / (m * (2 * m + 1))
        if coeff == 0.0:
            continue
        spi = stationary_pair_integral(Q, 2 * m + 1, K)
        total += coeff * Q.eps ** (2 * m - 1) * spi
    return total


def c_total(lam, C1, C2, C3):
    """C = 3 lambda C1 - 9 lambda^2 C2 - 6 lambda^2 C3."""
    return 3.0 * lam * C1 - 9.0 * lam**2 * C2 - 6.0 * lam**2 * C3


# ---------------------------------------------------------------------------
# oracle helpers shared with the diagram moment checks


def chaos_convolution_power(Q, n, K, tau=0.0):
    """Cube array of sum_{l_1+..+l_n = k, l_j in cube} prod_j e^{-tau b_j}/(2 b_j)."""
    b = _octant_bsq(Q, K)
    octant = EvenOctant(K, _even_pad((n + 1) * K + 1))
    y = octant.samples(np.exp(-tau * b) * 0.5 / b)
    return _unfold(octant.power_block(y, n, np.empty_like(y)))


def time_integrated_chaos_moment(Q, n, K):
    """Cube array of E|I~(X^{<>n})-hat(t,k)|^2:

        n! b(k)^-1 sum_{P(n,k)} prod_j (2 b_j)^-1 (b(k) + sum_j b_j)^-1.
    """
    block = _resonance_block(Q, n, K, _even_pad((n + 1) * K + 1))
    return _unfold(block / _octant_bsq(Q, K))


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


def build_renorm(Q, V, K=None):
    """Compute the full constant set for the symbol's eps at cutoff K (default 4/eps)."""
    eps = Q.eps
    if eps <= 0:
        raise ValueError("build_renorm needs eps > 0")
    if K is None:
        K = math.ceil(4.0 / eps)
    s2 = sigma2_limit(Q)
    lam = coupling_lambda(V, s2)
    s2e = sigma2_eps(Q, eps, K)
    a = a_coeffs(V, lam, s2e)
    C1 = c1(V, eps, lam, s2e)
    C2 = c2(Q, a, K)
    C3 = c3(Q, a, K)
    return RenormSet(eps=eps, K=K, sigma2=s2, sigma2_eps=s2e, lam=lam, a_m=a,
                     C1=C1, C2=C2, C3=C3)


def standard_constants(K):
    """Sharp-cutoff constants of the standard model (Q = z^2, eps = 0).

    c1_std = E X(x)^2 = sum_{|k|_inf <= K} 1/(2<k>^2), the point variance;
    c2_std = half the stationary resonance expectation of the integrated Wick
    square, which makes the centered objects exactly mean-zero.
    """
    Q0 = DispersionQ.laplacian(0.0)
    return point_variance(Q0, K), 0.5 * stationary_pair_integral(Q0, 2, K)
