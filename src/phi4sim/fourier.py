"""Truncated Fourier representation of real scalar fields on the 3-torus.

Every field of the equation is real, so its coefficients are Hermitian,
fhat(-k) = conj(fhat(k)).  Fields are stored as the k3 >= 0 half of the mode
cube {-K..K}^3, arrays (..., n, n, K+1) with n = 2K+1 in FFT frequency order
(non-negative frequencies first).  Full (n, n, n) cubes appear only at the
boundaries: solve's initial data and results, the reconstructed and reference
solutions, snapshot files and renorm's oracle arrays.  The Fourier convention is

    f(x) = sum_k fhat(k) exp(2 pi i k.x),    fhat(k) = int f(x) exp(-2 pi i k.x) dx,

so from_physical divides the DFT by the number of grid points.  Nonlinear
terms are evaluated pointwise on a zero-padded physical grid large enough for
the declared polynomial degree and then projected back onto the cube
(Galerkin truncation), which makes all finite-K product identities exact.

One real transform pair, to_physical / from_physical, works one axis at a
time over only the lines the mode cube reaches (pruning: on a padded grid of
side P ~ (d+1)K most lines are zero; Bowman & Roberts, SIAM J. Sci. Comput.
33, 2011).  Each pass is a product with a thin DFT matrix cached per (K, P).
Large passes are cut into blocks fixed by (K, P), which the set_threads
workers share; numpy's OpenBLAS is held to one thread, because it splits a
product by its own thread count with other roundings.  So the results are
bit-identical for any worker count or OPENBLAS_NUM_THREADS, and a batch gives
the per-slice results bit for bit.  from_physical rejects complex samples.
"""

import ctypes
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, SymbolError


_pool = None


def set_threads(n):
    """Set the worker threads of the transform pair (results are
    bit-identical for any n)."""
    global _workers, _pool
    _workers = max(1, int(n))
    if _pool is not None:
        _pool.shutdown()
        _pool = None


def _hold_blas_to_one_thread():
    """Set numpy's OpenBLAS to one thread, where its entry point can be found
    (another BLAS is left as it is)."""
    try:
        lib = ctypes.CDLL((getattr(np, "_core", None) or np.core)._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return
    for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads"):
        if hasattr(lib, name):
            setter = getattr(lib, name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return


_hold_blas_to_one_thread()
set_threads(int(os.environ.get("PHI4_THREADS", "0")) or min(4, os.cpu_count() or 1))


def get_threads():
    return _workers


class FrequencyLattice:
    """Symmetric mode cube {-K..K}^3, stored as its k3 >= 0 half.

    Coefficient arrays (and kabs = |k|) have shape `shape` = (n, n, K+1);
    `freqs` = [0, 1, .., K, -K, .., -1] is the FFT order.
    """

    def __init__(self, K):
        K = int(K)
        if K < 0:
            raise GridError("cutoff K must be >= 0")
        self.K = K
        self.n = 2 * K + 1
        self.freqs = freqs = np.concatenate([np.arange(0, K + 1), np.arange(-K, 0)])
        k1, k2, k3 = np.meshgrid(freqs, freqs, freqs[: K + 1], indexing="ij")
        self.kabs = np.sqrt((k1**2 + k2**2 + k3**2).astype(np.float64))
        self.shape = self.kabs.shape

    def __eq__(self, other):
        return isinstance(other, FrequencyLattice) and self.K == other.K

    def __hash__(self):
        return hash(self.K)

    def __repr__(self):
        return f"FrequencyLattice(K={self.K})"

    def pad_size(self, degree):
        """Smallest fast FFT length alias-free for products of total degree `degree`."""
        need = max((int(degree) + 1) * self.K + 1, self.n)
        return fast_len(need)

    def sub_cube(self, m):
        """Index of FrequencyLattice(m)'s half spectrum, m <= K, in this one's."""
        a = np.r_[0 : m + 1, self.n - m : self.n]
        return (Ellipsis,) + np.ix_(a, a, np.arange(m + 1))


def fast_len(n, primes=(2, 3, 5, 7, 11)):
    """Smallest m >= n whose prime factors all lie in `primes`: the lengths
    scipy.fft.next_fast_len returns for complex (2..11) and, with primes
    (2, 3, 5), real transforms."""
    m = max(n, 1)
    while True:
        r = m
        for p in primes:
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


_pair_matrices = {}


def _matrices(grid, P):
    """The pair's pruned DFT matrices at (K, P), built once: E[p, a] =
    exp(2 pi i p f_a / P) with each phase reduced mod P and the column of -f
    the exact conjugate of that of f, Eh = E^H, and the real r2c matrix R and
    its c2r transpose C (weight 1 at k3 = 0, 2 above) on interleaved (re, im)."""
    K, n = grid.K, grid.n
    if P < n:
        raise GridError(f"padded size {P} smaller than lattice {n}")
    if (K, P) not in _pair_matrices:
        ang = 2 * np.pi * (np.outer(np.arange(P), np.arange(K + 1)) % P) / P
        E = np.exp(1j * ang)
        E = np.concatenate([E, np.conj(E[:, :0:-1])], axis=1)
        R = np.stack([np.cos(ang), -np.sin(ang)], axis=-1).reshape(P, 2 * (K + 1))
        C = np.ascontiguousarray(R.T * np.r_[1.0, 1.0, np.full(2 * K, 2.0)][:, None])
        _pair_matrices[K, P] = (E, np.ascontiguousarray(E.conj().T), C, R)
    return _pair_matrices[K, P]


def _spans(grid, P, rows, width=1):
    """Blocks [a, b) of range(rows * width), cut at whole rows where (K, P)
    alone decide: one block up to about 4M samples times K+1 (every P at
    K = 8), at most 32."""
    nb = min(rows, 32, max(1, P**3 * (grid.K + 1) >> 22))
    return [(i * rows // nb * width, (i + 1) * rows // nb * width) for i in range(nb)]


def _on_workers(work, spans):
    """work(a, b) for each block [a, b), shared by the set_threads workers."""
    global _pool
    if _workers == 1 or len(spans) == 1:
        for a, b in spans:
            work(a, b)
        return
    if _pool is None:
        _pool = ThreadPoolExecutor(_workers)
    for _ in _pool.map(lambda ab: work(*ab), spans):  # re-raises a block's error
        pass


def to_physical(coeffs, grid, P, out=None):
    """Half spectrum (..., n, n, K+1) (batch dims allowed) -> real (P,P,P) samples,
    written into `out` (a float64 array of that shape) when given.

    Pruned: E inverts axis -3 on the n(K+1) stored lines, then axis -2 on
    P(K+1) lines; the c2r product adds the k3 < 0 half (Im at k3 = 0 is
    ignored, as by irfft).  Unscaled inverses."""
    K, n = grid.K, grid.n
    if coeffs.shape[-1] != K + 1:
        raise GridError(f"a half spectrum has K+1 = {K + 1} columns, not {coeffs.shape[-1]}")
    E, _, C, _ = _matrices(grid, P)
    c = coeffs.reshape(coeffs.shape[:-2] + (-1,))
    x = np.empty(c.shape[:-2] + (P, n * (K + 1)), dtype=np.complex128)
    shape = c.shape[:-2] + (P, P, P)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise GridError(f"out must be float64 of shape {shape}, not {out.dtype} {out.shape}")

    def lines(a, b):  # stored mode lines a .. b - 1, all P samples along -3
        np.matmul(E, c[..., a:b], out=x[..., a:b])

    def planes(a, b):  # sample planes a .. b - 1 of axis -3
        y = E @ x[..., a:b, :].reshape(x.shape[:-2] + (b - a, n, K + 1))
        np.matmul(y.view(np.float64), C, out=out[..., a:b, :, :])

    _on_workers(lines, _spans(grid, P, n, K + 1))
    _on_workers(planes, _spans(grid, P, P))
    return out


def from_physical(f, grid, P):
    """Real samples on a (P,P,P) grid -> projected half spectrum (..., n, n, K+1).

    Pruned mirror of to_physical (r2c along -1, then Eh along -2 and -3); only
    the kept modes are divided by P^3."""
    if np.iscomplexobj(f):
        raise TypeError("from_physical needs real samples")
    K, n = grid.K, grid.n
    _, Eh, _, R = _matrices(grid, P)
    x = np.empty(f.shape[:-2] + (n, K + 1), dtype=np.complex128)  # (..., P, n, K+1)
    h = np.empty(f.shape[:-3] + (n, n * (K + 1)), dtype=np.complex128)
    xl = x.reshape(x.shape[:-2] + (-1,))

    def planes(a, b):  # sample planes a .. b - 1 of axis -3
        np.matmul(Eh, (f[..., a:b, :, :] @ R).view(np.complex128), out=x[..., a:b, :, :])

    def lines(a, b):  # kept mode lines a .. b - 1, summed over axis -3
        np.matmul(Eh, xl[..., a:b], out=h[..., a:b])

    _on_workers(planes, _spans(grid, P, P))
    _on_workers(lines, _spans(grid, P, n, K + 1))
    h /= P**3
    return h.reshape(h.shape[:-1] + (n, K + 1))


def _mirror(half, grid, out=None):
    """Full (..., n, n, n) cubes from halves: mode k with k3 < 0 is conj at -k;
    written into `out` when given."""
    K = grid.K
    if out is None:
        out = np.empty(half.shape[:-1] + (grid.n,), dtype=np.complex128)
    out[..., : K + 1] = half
    out[..., K + 1:] = np.roll(np.conj(half[..., ::-1, ::-1, :0:-1]), 1, axis=(-3, -2))
    return out


def _half(full, grid, what):
    """The stored half of a full (n, n, n) cube, which must be the spectrum of
    a real field: |fhat(-k) - conj(fhat(k))| <= 1e-12 max |fhat|."""
    full = np.asarray(full, dtype=np.complex128)
    if full.shape != (grid.n,) * 3:
        raise GridError(f"{what} has shape {full.shape}, not {(grid.n,) * 3}")
    at_minus_k = np.roll(full[::-1, ::-1, ::-1], 1, axis=(0, 1, 2))
    if np.max(np.abs(at_minus_k - np.conj(full))) > 1e-12 * np.max(np.abs(full)):
        raise GridError(f"{what} is not the spectrum of a real field")
    return full[..., : grid.K + 1]


def product(f, g, grid, degree=2):
    """Alias-free pointwise product of two half spectra, projected back to the
    cube on the pad_size(degree) grid."""
    P = grid.pad_size(degree)
    return from_physical(to_physical(f, grid, P) * to_physical(g, grid, P), grid, P)


# ---------------------------------------------------------------------------
# dispersion symbol


class DispersionQ:
    """Radial smoothing symbol and the derived per-mode dispersion.

    eps > 0: bracket(k)^2 = 1 + Q(2 pi eps |k|) / eps^2.
    eps = 0 selects the analytic limit bracket(k)^2 = 1 + 4 pi^2 |k|^2
    (avoids 0/0 rather than evaluating at small eps).
    """

    def __init__(self, eval=None, eps=0.0):
        if not 0 <= eps <= 1:  # NaN too
            raise SymbolError("eps must lie in [0, 1]")
        self.eval = eval
        self.eps = float(eps)

    @classmethod
    def quartic(cls, eps, nu=1.0):
        """Q(z) = z^2 + nu z^4 (fourth-order smoothing)."""
        return cls(lambda z: z**2 + nu * z**4, eps)

    @classmethod
    def laplacian(cls, eps=0.0):
        """Q(z) = z^2 (no extra smoothing; diverging sigma^2)."""
        return cls(lambda z: np.asarray(z, dtype=np.float64)**2, eps)

    def with_eps(self, eps):
        return DispersionQ(self.eval, eps)

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


@dataclass
class ValidationReport:
    """Outcome of the numerical checks on a smoothing symbol."""

    items: dict = field(default_factory=dict)
    eta_hat: float = float("nan")
    passed: bool = False


def validate_symbol(Q):
    """Check the symbol's normalization, positivity, and growth on samples.

    Items: (1) Q(0)=0 with unit curvature Q''(0)/2 = 1; (2) Q > 0 for z > 0;
    (3) fitted log-log growth exponent exceeds 3 (eta_hat = slope - 3 > 0).
    The samples are 400 log-spaced points z in [1e-6, 1e3].  Item (4), a
    bound on derivative growth, involves derivatives this package never
    evaluates and is recorded as unchecked.
    """
    z = np.geomspace(1e-6, 1e3, 400)
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
    )


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


def save_field(path, coeffs, grid):
    """Write the snapshot of a half spectrum: magic, u32 K, u32 M = 2K+1, u8
    flag = 1 (the field is real), then the full cube as (re, im) f64 pairs."""
    with _atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIB", grid.K, grid.n, 1))
        fh.write(_mirror(coeffs, grid).astype("<c16").tobytes())


def load_field(path):
    """(grid, half spectrum) of a snapshot, its header and Hermitian symmetry
    checked."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise GridError(f"bad snapshot magic {magic!r}")
        header = fh.read(9)
        if len(header) != 9:
            raise GridError("snapshot header truncated")
        K, M, flag = struct.unpack("<IIB", header)
        if M != 2 * K + 1 or flag != 1:
            raise GridError(f"snapshot header M={M}, flag={flag} is not a real "
                            f"field on the K={K} cube")
        grid = FrequencyLattice(K)
        payload = fh.read(grid.n**3 * 16)
        if len(payload) != grid.n**3 * 16:
            raise GridError("snapshot truncated")
        if fh.read(1):
            raise GridError("snapshot has trailing bytes")
        coeffs = np.frombuffer(payload, dtype="<c16").reshape((grid.n,) * 3)
    return grid, _half(coeffs, grid, "snapshot").copy()
