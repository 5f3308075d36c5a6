"""Truncated Fourier representation of real scalar fields on the 3-torus.

Every field of the equation is real, so its coefficients are Hermitian,
fhat(-k) = conj(fhat(k)).  Fields are stored as complex coefficient arrays
over the symmetric mode cube {-K..K}^3 in FFT frequency order (non-negative
frequencies first).  The Fourier convention is

    f(x) = sum_k fhat(k) exp(2 pi i k.x),    fhat(k) = int f(x) exp(-2 pi i k.x) dx,

so from_physical divides the DFT by the number of grid points.  Nonlinear
terms are evaluated pointwise on a zero-padded physical grid large enough for
the declared polynomial degree and then projected back onto the cube
(Galerkin truncation), which makes all finite-K product identities exact.

One real transform pair, to_physical / from_physical, passes the k3 >= 0
half-spectrum through a c2r / r2c pass on the last axis.  The pair is
pruned: it transforms one axis at a time and touches only the 1-D lines the
mode cube reaches, since on a padded grid of side P ~ (d+1)K most lines are
zero on input to the inverse and discarded on output of the forward
transform (the usual dealiasing saving; Bowman & Roberts, SIAM J. Sci.
Comput. 33, 2011).  A complex value never enters it: from_physical rejects
complex samples and a field cannot be scaled by a complex number.
"""

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import GridError, SymbolError


def set_threads(n):
    """Set the number of FFT worker threads (results are bit-identical for any n)."""
    global _workers
    _workers = max(1, int(n))


set_threads(int(os.environ.get("PHI4_THREADS", "0")) or min(4, os.cpu_count() or 1))


def get_threads():
    return _workers


class FrequencyLattice:
    """Symmetric mode cube {-K..K}^3.

    Coefficient arrays have shape (2K+1,)*3 in FFT order along each axis:
    frequencies [0, 1, .., K, -K, .., -1].
    """

    def __init__(self, K):
        K = int(K)
        if K < 0:
            raise GridError("cutoff K must be >= 0")
        self.K = K
        self.n = 2 * K + 1
        freqs = np.concatenate([np.arange(0, K + 1), np.arange(-K, 0)])
        self.freqs = freqs
        self.k1, self.k2, self.k3 = np.meshgrid(freqs, freqs, freqs, indexing="ij")
        self.ksq = (self.k1**2 + self.k2**2 + self.k3**2).astype(np.float64)
        self.kabs = np.sqrt(self.ksq)

    def __eq__(self, other):
        return isinstance(other, FrequencyLattice) and self.K == other.K

    def __hash__(self):
        return hash(self.K)

    def __repr__(self):
        return f"FrequencyLattice(K={self.K})"

    def pad_size(self, degree):
        """Smallest fast FFT length alias-free for products of total degree `degree`."""
        need = max((int(degree) + 1) * self.K + 1, self.n)
        return scipy.fft.next_fast_len(need, real=False)

    def reflect(self, coeffs):
        """Coefficients of k -> -k (index reversal in FFT order)."""
        out = coeffs[..., ::-1, ::-1, ::-1]
        return np.roll(out, 1, axis=(-3, -2, -1))


@dataclass
class FourierField:
    """A real scalar field given by its truncated (Hermitian) Fourier coefficients."""

    grid: FrequencyLattice
    coeffs: np.ndarray

    def copy(self):
        return FourierField(self.grid, self.coeffs.copy())

    def __add__(self, other):
        _check_same_grid(self, other)
        return FourierField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return FourierField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        if np.iscomplexobj(scalar):
            raise TypeError("a real field is scaled by real numbers only")
        return FourierField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return FourierField(self.grid, -self.coeffs)


def _check_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridError("fields live on different lattices")


def _refit(a, m, K, axis):
    """The FFT-ordered frequencies [0..K, -K..-1] on `axis` (< 0) of `a`,
    copied by slices into a zeroed axis of length m (padding or truncation)."""
    if min(m, a.shape[axis]) < 2 * K + 1:
        raise GridError(f"padded size {min(m, a.shape[axis])} smaller than lattice {2 * K + 1}")
    shape = list(a.shape)
    shape[axis] = m
    out = np.zeros(shape, dtype=np.complex128)
    tail = (slice(None),) * (-1 - axis)
    out[(..., slice(0, K + 1)) + tail] = a[(..., slice(0, K + 1)) + tail]
    out[(..., slice(m - K, m)) + tail] = a[(..., slice(a.shape[axis] - K, None)) + tail]
    return out


def to_physical(coeffs, grid, P):
    """Hermitian spectral cube (batch dims allowed) -> real (P,P,P) samples.

    Pruned: the K+1 stored k3 >= 0 columns are inverted along -3 on their
    (2K+1)(K+1) lines, then along -2 on P(K+1) lines; one real inverse along
    -1 supplies the k3 < 0 half.  Unscaled inverses (norm="forward")."""
    K, kw = grid.K, dict(norm="forward", workers=_workers)
    x = scipy.fft.ifftn(_refit(coeffs[..., : K + 1], P, K, -3), axes=(-3,),
                        overwrite_x=True, **kw)
    x = scipy.fft.ifftn(_refit(x, P, K, -2), axes=(-2,), overwrite_x=True, **kw)
    return scipy.fft.irfftn(x, s=(P,), axes=(-1,), **kw)


def from_physical(f, grid, P):
    """Real samples on a (P,P,P) grid -> projected hermitian spectral cube.

    Pruned mirror of to_physical: forward passes along -1, -2, -3 keep K+1,
    2K+1 and 2K+1 frequencies, only the kept modes are divided by P^3, and
    the k3 < 0 modes are the conjugate mirrors of the k3 > 0 ones."""
    if np.iscomplexobj(f):
        raise TypeError("from_physical needs real samples")
    K, n = grid.K, grid.n
    h = scipy.fft.rfftn(f, axes=(-1,), workers=_workers)[..., : K + 1]
    h = _refit(scipy.fft.fftn(h, axes=(-2,), workers=_workers), n, K, -2)
    h = _refit(scipy.fft.fftn(h, axes=(-3,), workers=_workers, overwrite_x=True), n, K, -3)
    h /= P**3
    out = np.empty(h.shape[:-1] + (n,), dtype=np.complex128)
    out[..., : K + 1] = h
    out[..., K + 1:] = np.roll(np.conj(h[..., ::-1, ::-1, :0:-1]), 1, axis=(-3, -2))
    return out


def product(F, G, degree_hint=2):
    """Alias-free pointwise product projected back to the cube."""
    _check_same_grid(F, G)
    g = F.grid
    P = g.pad_size(degree_hint)
    return FourierField(g, from_physical(to_physical(F.coeffs, g, P)
                                         * to_physical(G.coeffs, g, P), g, P))


# ---------------------------------------------------------------------------
# dispersion symbol


class DispersionQ:
    """Radial smoothing symbol and the derived per-mode dispersion.

    eps > 0: bracket(k)^2 = 1 + Q(2 pi eps |k|) / eps^2.
    eps = 0 selects the analytic limit bracket(k)^2 = 1 + 4 pi^2 |k|^2
    (avoids 0/0 rather than evaluating at small eps).
    """

    def __init__(self, eval=None, eps=0.0, params=None, name=None):
        if eps < 0 or eps > 1:
            raise SymbolError("eps must lie in [0, 1]")
        self.eval = eval
        self.eps = float(eps)
        self.params = dict(params or {})
        self.name = name

    @classmethod
    def quartic(cls, eps, nu=1.0):
        """Q(z) = z^2 + nu z^4 (fourth-order smoothing)."""
        return cls(lambda z: z**2 + nu * z**4, eps, {"nu": nu}, name="quartic")

    @classmethod
    def laplacian(cls, eps=0.0):
        """Q(z) = z^2 (no extra smoothing; diverging sigma^2)."""
        return cls(lambda z: np.asarray(z, dtype=np.float64)**2, eps, name="laplacian")

    def with_eps(self, eps):
        return DispersionQ(self.eval, eps, self.params, self.name)

    def bracket_sq(self, kabs):
        """bracket(k)^2 for |k| given as a scalar or array."""
        kabs = np.asarray(kabs, dtype=np.float64)
        if self.eps == 0.0:
            return 1.0 + 4.0 * np.pi**2 * kabs**2
        q = np.asarray(self.eval(2.0 * np.pi * self.eps * kabs), dtype=np.float64)
        if not np.all(np.isfinite(q)):
            raise SymbolError("symbol evaluation returned non-finite values")
        if np.any(q < 0):
            raise SymbolError("symbol is negative at an evaluated point")
        return 1.0 + q / self.eps**2

    def bracket_sq_grid(self, grid):
        return self.bracket_sq(grid.kabs)


def bracket_eps(Q, k):
    """Per-mode dispersion bracket for an integer 3-vector k."""
    kabs = float(np.sqrt(np.dot(k, k)))
    return float(np.sqrt(Q.bracket_sq(kabs)))


@dataclass
class ValidationReport:
    """Outcome of the numerical checks on a smoothing symbol."""

    items: dict = field(default_factory=dict)
    eta_hat: float = float("nan")
    passed: bool = False
    notes: str = ""


def validate_symbol(Q, zmax=1e3, nsamples=400):
    """Check the symbol's normalization, positivity, and growth on samples.

    Items: (1) Q(0)=0 with unit curvature Q''(0)/2 = 1; (2) Q > 0 for z > 0;
    (3) fitted log-log growth exponent exceeds 3 (eta_hat = slope - 3 > 0).
    Item (4), a bound on derivative growth, involves derivatives this package
    never evaluates and is recorded as unchecked.
    """
    if zmax <= 1 or nsamples < 100:
        raise ValueError("need zmax > 1 and nsamples >= 100")
    z = np.geomspace(1e-6, zmax, nsamples)
    try:
        qz = np.asarray(Q.eval(z), dtype=np.float64)
        q0 = float(Q.eval(0.0))
    except Exception as exc:  # noqa: BLE001 - reported as a symbol error
        raise SymbolError(f"symbol evaluation failed: {exc}") from exc
    if not (np.all(np.isfinite(qz)) and np.isfinite(q0)):
        raise SymbolError("symbol evaluation returned non-finite values")

    h = 1e-4
    curv = float(Q.eval(h)) / h**2
    item1 = abs(q0) < 1e-12 and abs(curv - 1.0) < 1e-3
    item2 = bool(np.all(qz > 0))

    fit_mask = z >= 1.0
    slope = float(np.polyfit(np.log(z[fit_mask]), np.log(np.maximum(qz[fit_mask], 1e-300)), 1)[0]) \
        if item2 else float("nan")
    eta_hat = slope - 3.0
    item3 = item2 and eta_hat > 0.0

    items = {
        "normalization": item1,
        "positivity": item2,
        "growth": item3,
        "derivative_bounds": None,  # not checked numerically
    }
    return ValidationReport(
        items=items,
        eta_hat=eta_hat,
        passed=item1 and item2 and item3,
        notes="derivative_bounds recorded as unchecked",
    )


def apply_semigroup(F, Q, t):
    """Multiply each mode by exp(-t * bracket(k)^2)."""
    if t < 0:
        raise ValueError("semigroup time must be >= 0")
    mult = np.exp(-t * Q.bracket_sq_grid(F.grid))
    return FourierField(F.grid, F.coeffs * mult)


class ExponentialQuadrature:
    """One-step exponential (exact-propagator) left-endpoint Duhamel rule.

    For state y and integrand u on a uniform grid of step dt,
        y(t+dt) = E y(t) + phi1 * u(t),
    with E = exp(-dt b^2) and phi1 = (1 - E)/b^2 per mode; this is exact when
    u is constant on the step and preserves the semigroup identity exactly.
    """

    def __init__(self, grid, Q, dt):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.dt = float(dt)
        self.bsq = Q.bracket_sq_grid(grid)
        self.decay = np.exp(-self.dt * self.bsq)
        self.phi1 = (1.0 - self.decay) / self.bsq

    def advance(self, state, integrand):
        return self.decay * state + self.phi1 * integrand


# ---------------------------------------------------------------------------
# output files and binary snapshots


@contextmanager
def _atomic_open(path, mode="w", **kwargs):
    """Write `path` through a temporary file in the same directory that
    replaces it only when the block completes, so an interrupted writer
    leaves the previous file intact and nothing under a partial name."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


_MAGIC = b"PHI4FLD1"


def save_field(path, F):
    """Write a field snapshot: magic, u32 K, u32 M = 2K+1, u8 flag = 1 (the
    field is real), then the cube as (re, im) f64 pairs."""
    c = np.ascontiguousarray(F.coeffs, dtype=np.complex128)
    with _atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIB", F.grid.K, F.grid.n, 1))
        inter = np.empty(c.size * 2, dtype="<f8")
        inter[0::2] = c.real.ravel()
        inter[1::2] = c.imag.ravel()
        fh.write(inter.tobytes())


def load_field(path):
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise GridError(f"bad snapshot magic {magic!r}")
        K, M, flag = struct.unpack("<IIB", fh.read(9))
        if M != 2 * K + 1 or flag != 1:
            raise GridError(f"snapshot header M={M}, flag={flag} is not a real "
                            f"field on the K={K} cube")
        grid = FrequencyLattice(K)
        payload = fh.read(grid.n**3 * 16)
        if len(payload) != grid.n**3 * 16:
            raise GridError("snapshot truncated")
        if fh.read(1):
            raise GridError("snapshot has trailing bytes")
        raw = np.frombuffer(payload, dtype="<f8")
        coeffs = (raw[0::2] + 1j * raw[1::2]).reshape((grid.n,) * 3)
    return FourierField(grid, coeffs.copy())
