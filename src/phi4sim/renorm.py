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
powers are evaluated on the non-negative octant of a padded grid (the octant
module) from the bracket on {0..K}^3, never on the (2K+1)^3 cube.

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
number up to rounding.  Nodes that share a support go through as one stack.
That leaves the bits of one node at a time: each node's products are the
same BLAS calls on the same operands, and the node sums are added node by
node, in node order.  The pair integrals take P alias-free, (N+1) K + 1,
up to K = 24 and for the eps = 0 Laplacian; above K = 24 with eps > 0 they
take the half pad 2K + 2, where the aliased tuples weigh below 1e-12 of the
total.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FeasibilityError, GrowthViolationError
from .fourier import DispersionQ, validate_symbol
from .gaussian import gaussian_expectation, polyder
from .octant import EvenOctant, _even_pad


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


def _view(buf, shape):
    """C-contiguous view of shape on the leading entries of a flat array."""
    return buf[: math.prod(shape)].reshape(shape)


def _spi_pad(Q, N, K):
    # The call's widest pad (module docstring): alias-free up to K = 24 and for
    # the eps = 0 Laplacian, else the half pad.  _resonance_block narrows it
    # per s-node to the alias-free pad of the node's support where smaller.
    return _even_pad((N + 1) * K + 1 if K <= 24 or Q.eps == 0 else 2 * K + 2)


def _node_supports(b, nodes):
    """K_s of each s-node (module docstring): the last slab of the previous
    node's support holding a mode with e^{-s b} at least 2^-52/(2K+1)^3 of
    the largest.  e^{-s b} is largest where b is least, so each slab is read
    at its least b over the whole block.  On the support that reads the same:
    the modes of a slab outside the support lie on slabs an earlier node
    dropped, so they are below the cut (the kept set only shrinks), and the
    support holds the modes of least b."""
    K = len(b) - 1
    least = b.reshape(K + 1, -1).min(axis=1)
    cut = np.finfo(np.float64).eps / (2 * K + 1) ** 3 * np.exp(-nodes * least.min())
    # kept[i][t]: slab i holds a mode above the cut at node t
    kept = [np.exp(-nodes * m) >= cut for m in least]
    supports = [K]
    for t in range(len(nodes)):
        i = supports[-1]
        while not kept[i][t]:
            i -= 1
        supports.append(i)
    return supports[1:]


def _stack_decay(s, b, out, tile):
    """e^{-s b} of the nodes s stacked in out, b laid out along the stack in
    tile: copies make no scratch arrays, in-place products with a broadcast
    operand do."""
    np.copyto(tile, b)
    np.copyto(out, -s[:, None, None, None])
    out *= tile
    np.exp(out, out=out)


def _resonance_block(Q, N, K, P):
    """Block {0..K}^3 of the time-integrated resonance on the octant of a
    size-P grid,

        (N!/2^N) sum_s w_s e^{-s b} block((e^{-s b}/b)^{*N}),

    the one s-node loop behind every resonance sum.  Each node runs on the
    support of e^{-s b} (module docstring), found for every node first.
    Consecutive nodes on one support go through as one stack, as many as the
    call's arrays hold: e^{-s b}/b, the octant samples, the power, the block
    and the weights take one pass each for the whole stack, and the nodes'
    terms go to the running sums one by one, in node order, so the bits are
    those of one node at a time.  The arithmetic runs on contiguous arrays,
    made once per call and viewed at the stack's shape: b on the support, the
    support's running sums, and e^{-s b}, which lives in the samples array
    while that is free.  When the support shrinks, the sums of the modes it
    drops are final and go to the block, and b and the sums of the modes it
    keeps are packed anew."""
    b = _octant_bsq(Q, K)
    nodes, weights = _s_quadrature(N)
    supports = _node_supports(b, nodes)
    acc, sums = np.empty_like(b), np.zeros(b.size)
    y, yN = (np.empty((P // 2 + 1) ** 3) for _ in range(2))
    work = EvenOctant(K, P).passes()  # checks P, too
    b, n, first = b.ravel(), K + 1, 0
    for Ks, run in itertools.groupby(supports):
        stop = first + len(list(run))
        if Ks < n - 1:
            # the dropped modes' sums are final; b on the kept support is
            # packed through the free samples array, the kept sums from acc
            acc[:n, :n, :n] = _view(sums, (n,) * 3)
            kept, n = _view(b, (n,) * 3)[: Ks + 1, : Ks + 1, : Ks + 1], Ks + 1
            packed = _view(y, (n,) * 3)
            np.copyto(packed, kept)
            np.copyto(_view(b, (n,) * 3), packed)
            np.copyto(_view(sums, (n,) * 3), acc[:n, :n, :n])
        Ps = min(P, _even_pad((N + 1) * Ks + 1))
        octant, m = EvenOctant(Ks, Ps, work), Ps // 2 + 1
        bn, sn = (_view(a, (n,) * 3) for a in (b, sums))
        fit = min(y.size // m**3, work[0].size // (n * n * m), work[1].size // (n * m * m))
        for lo in range(first, stop, fit):
            hi = min(stop, lo + fit)
            s, w = nodes[lo:hi], weights[lo:hi]
            stack = (len(s), n, n, n)
            # b, and then the weights, laid out along the stack in the power
            # array.  h/b and the stack's blocks live in the second pass
            # array: samples reads h/b in its first pass only, and block
            # writes its result in its last pass, which reads the first only
            hs, tile, blk = (_view(a, stack) for a in (y, yN, work[1]))
            _stack_decay(s, bn, hs, tile)
            np.divide(hs, tile, out=blk)
            ys = octant.samples(blk, out=_view(y, (len(s), m, m, m)))
            octant.power_block(ys, N, _view(yN, (len(s), m, m, m)), out=blk)
            _stack_decay(s, bn, hs, tile)  # y and yN are free again
            np.copyto(tile, w[:, None, None, None])
            hs *= tile
            hs *= blk
            for h in hs:
                sn += h
        first = stop
    acc[:n, :n, :n] = _view(sums, (n,) * 3)
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
