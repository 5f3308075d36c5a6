"""Littlewood-Paley blocks, Besov norms, paraproducts, and commutators.

The dyadic partition uses two C^2 piecewise-polynomial radial bumps:
chi_tilde supported in the ball of radius 4/3 and chi supported in the
annulus [3/4, 8/3], with

    chi_tilde(xi) + sum_{j>=0} chi(xi / 2^j) = 1

for all |xi| below the covered band.  Blocks are indexed j = -1, 0, .., jmax
with chi_{-1} = chi_tilde.  All products of blocks are evaluated pointwise on
the degree-2 alias-free padded grid (pad_size(2), the default grid of
fourier.product), so the Bony decomposition f g = (f<g) + (f>g) + (f o g) is
exact up to rounding.  Blocks are real samples from the real transform pair
of fourier.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .fourier import (FourierField, ExponentialQuadrature, _check_same_grid,
                      apply_semigroup, from_physical, product, to_physical)


def _smoothstep(u):
    """C^2 quintic step: 0 for u <= 0, 1 for u >= 1."""
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def _psi(r):
    """C^2 radial plateau: 1 for r <= 1, 0 for r >= 4/3."""
    return 1.0 - _smoothstep((np.asarray(r, dtype=np.float64) - 1.0) * 3.0)


class DyadicPartition:
    """Dyadic partition of unity on frequency space for a given cutoff K."""

    def __init__(self, K):
        self.K = int(K)
        # coverage: the partial sums telescope to psi(r / 2^(jmax+1)), which
        # equals one for r <= 2^(jmax+1); the lattice needs r <= sqrt(3) K.
        self.jmax = max(0, math.ceil(math.log2(max(math.sqrt(3) * self.K / 2.0,
                                                   1.0))))
        self.nblocks = self.jmax + 2  # j = -1 .. jmax
        self._weights = {}

    def chi_tilde(self, r):
        return _psi(r)

    def chi(self, r):
        r = np.asarray(r, dtype=np.float64)
        return _psi(r / 2.0) - _psi(r)

    def chi_j(self, j, r):
        if j == -1:
            return self.chi_tilde(r)
        return self.chi(np.asarray(r, dtype=np.float64) / 2.0**j)

    def resonance_weight(self, ra, rb):
        """sum_{|i-j|<=1} chi_i(ra) chi_j(rb) over the block range."""
        ra = np.asarray(ra, dtype=np.float64)
        rb = np.asarray(rb, dtype=np.float64)
        total = np.zeros(np.broadcast(ra, rb).shape)
        for i in range(-1, self.jmax + 1):
            ci = self.chi_j(i, ra)
            for j in range(max(-1, i - 1), min(self.jmax, i + 1) + 1):
                total += ci * self.chi_j(j, rb)
        return total

    def weights(self, grid):
        """Block multipliers on the lattice: array (nblocks, n, n, n)."""
        if grid.K not in self._weights:
            W = np.empty((self.nblocks,) + grid.kabs.shape)
            for a in range(self.nblocks):
                W[a] = self.chi_j(a - 1, grid.kabs)
            self._weights[grid.K] = W
        return self._weights[grid.K]


_partitions = {}


def default_partition(grid):
    if grid.K not in _partitions:
        _partitions[grid.K] = DyadicPartition(grid.K)
    return _partitions[grid.K]


@dataclass
class BesovProfile:
    """Per-block grid sup norms b_j, j = -1..jmax."""

    j: np.ndarray
    b: np.ndarray

    def norm(self, alpha):
        return float(np.max(2.0 ** (alpha * self.j) * self.b))


def block(f, j, partition=None):
    """Littlewood-Paley block Delta_j f as a field on the same lattice."""
    if j < -1:
        raise ValueError("block index must be >= -1")
    part = partition or default_partition(f.grid)
    if j > part.jmax:
        return FourierField(f.grid, np.zeros_like(f.coeffs))
    return FourierField(f.grid, f.coeffs * part.weights(f.grid)[j + 1])


def besov_profile(f, partition=None):
    part = partition or default_partition(f.grid)
    B = physical_blocks(f.coeffs, f.grid, part)
    b = np.max(np.abs(B), axis=(-3, -2, -1))
    return BesovProfile(j=np.arange(-1, part.jmax + 1), b=b)


def besov_norm(f, alpha, partition=None):
    """sup_j 2^(alpha j) ||Delta_j f||_inf, L_inf on the padded physical grid."""
    return besov_profile(f, partition).norm(alpha)


def physical_blocks(coeffs, grid, partition=None, P=None):
    """Real physical-space samples of every block of a field, given by its
    coefficient array (batch dims allowed): shape (..., nblocks, P, P, P).
    Computing this once and feeding it to `combine` lets several
    paraproducts share one decomposition.
    """
    part = partition or default_partition(grid)
    if P is None:
        P = grid.pad_size(2)
    return to_physical(coeffs[..., None, :, :, :] * part.weights(grid), grid, P)


def combine(Bf, Bg, grid, P, mode):
    """Paraproduct assembly from precomputed physical blocks.

    mode "lt": sum_j S_{j-1} f * Delta_j g with S_{j-1} = sum_{i<=j-2} Delta_i;
    mode "res": sum_{|i-j|<=1} Delta_i f * Delta_j g.  Returns cube spectra.
    """
    J = Bf.shape[-4]
    acc = np.zeros(np.broadcast_shapes(Bf.shape[:-4], Bg.shape[:-4])
                   + (P, P, P))
    if mode == "lt":
        C = np.cumsum(Bf, axis=-4)
        for a in range(2, J):
            acc += C[..., a - 2, :, :, :] * Bg[..., a, :, :, :]
    elif mode == "res":
        for a in range(J):
            near = Bf[..., max(a - 1, 0):min(a + 2, J), :, :, :].sum(axis=-4)
            acc += near * Bg[..., a, :, :, :]
    else:
        raise ValueError(mode)
    return from_physical(acc, grid, P)


def _paraproduct(f, g, mode, partition):
    """f < g (mode "lt") or f o g (mode "res") as a field (batch dims allowed)."""
    _check_same_grid(f, g)
    grid = f.grid
    part = partition or default_partition(grid)
    P = grid.pad_size(2)
    c = combine(physical_blocks(f.coeffs, grid, part, P),
                physical_blocks(g.coeffs, grid, part, P), grid, P, mode)
    return FourierField(grid, c)


def para_lt(f, g, partition=None):
    """Low-high paraproduct f < g."""
    return _paraproduct(f, g, "lt", partition)


def para_gt(f, g, partition=None):
    """High-low paraproduct f > g = g < f."""
    return para_lt(g, f, partition)


def resonance(f, g, partition=None):
    """Resonance product f o g = sum_{|i-j|<=1} Delta_i f Delta_j g."""
    return _paraproduct(f, g, "res", partition)


def commutator_com(f, g, h, partition=None):
    """Com(f; g; h) = (f < g) o h - f (g o h)."""
    _check_same_grid(f, g, h)
    return resonance(para_lt(f, g, partition), h, partition) - \
        product(f, resonance(g, h, partition), 2)


def heat_para_commutator(f, g, Q, t, partition=None):
    """[e^{t(L-1)}, <](f, g) = e^{t(L-1)}(f < g) - f < e^{t(L-1)} g."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return apply_semigroup(para_lt(f, g, partition), Q, t) - \
        para_lt(f, apply_semigroup(g, Q, t), partition)


def duhamel_para_commutator(f_traj, g_traj, Q, t_grid, partition=None):
    """[I, <](f, g)(t) = I(f < g)(t) - f(t) < I(g)(t) on a uniform grid.

    I is the Duhamel integral from 0 evaluated with the exponential
    left-endpoint rule; returns the trajectory of the commutator.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if len(f_traj) != len(g_traj) or len(f_traj) != len(t_grid):
        raise GridError("trajectories and time grid have mismatched lengths")
    if len(t_grid) < 2:
        raise GridError("need at least two grid times")
    dt = float(t_grid[1] - t_grid[0])
    if not np.allclose(np.diff(t_grid), dt, rtol=0, atol=1e-12 + 1e-9 * dt):
        raise GridError("time grid must be uniform")
    grid = f_traj[0].grid
    quad = ExponentialQuadrature(grid, Q, dt)
    I_pg = np.zeros_like(f_traj[0].coeffs)
    I_g = np.zeros_like(g_traj[0].coeffs)
    out = []
    for m, (f, g) in enumerate(zip(f_traj, g_traj)):
        _check_same_grid(f, g)
        if m > 0:
            prev_f, prev_g = f_traj[m - 1], g_traj[m - 1]
            I_pg = quad.advance(I_pg, para_lt(prev_f, prev_g, partition).coeffs)
            I_g = quad.advance(I_g, prev_g.coeffs)
        inner = para_lt(f, FourierField(grid, I_g), partition)
        out.append(FourierField(grid, I_pg - inner.coeffs))
    return out
