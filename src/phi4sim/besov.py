"""Littlewood-Paley blocks, Besov norms, paraproducts, and the commutator.

The dyadic partition uses two C^2 piecewise-polynomial radial bumps:
chi_tilde supported in the ball of radius 4/3 and chi supported in the
annulus [3/4, 8/3], with

    chi_tilde(xi) + sum_{j>=0} chi(xi / 2^j) = 1

for all |xi| below the covered band.  Blocks are indexed j = -1, 0, .., jmax
with chi_{-1} = chi_tilde.  This module owns the block grid: physical_blocks
samples every block on the degree-2 alias-free padded grid (pad_size(2), the
default grid of fourier.product), and combine multiplies blocks pointwise
there, so the Bony decomposition f g = (f<g) + (g<f) + (f o g) is exact up to
rounding.  Blocks are real samples from the real transform pair of fourier.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fourier import (FourierField, _check_same_grid, from_physical, product,
                      to_physical)


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

    def weights(self, grid):
        """Block multipliers on the lattice: array (nblocks, n, n, K+1)."""
        if grid.K not in self._weights:
            W = np.empty((self.nblocks,) + grid.kabs.shape)
            for a in range(self.nblocks):
                W[a] = self.chi_j(a - 1, grid.kabs)
            self._weights[grid.K] = W
        return self._weights[grid.K]


_partitions = {}


def _partition(grid):
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


def besov_profile(f):
    part = _partition(f.grid)
    b = np.max(np.abs(physical_blocks(f.coeffs, f.grid)), axis=(-3, -2, -1))
    return BesovProfile(j=np.arange(-1, part.jmax + 1), b=b)


def besov_norm(f, alpha):
    """sup_j 2^(alpha j) ||Delta_j f||_inf, L_inf on the padded physical grid."""
    return besov_profile(f).norm(alpha)


def physical_blocks(coeffs, grid):
    """Real samples of every block of a field, given by its coefficient array
    (batch dims allowed), on the pad_size(2) grid: shape (..., nblocks, P, P, P),
    transformed one block at a time.  Computing this once and feeding it to
    `combine` lets several paraproducts share one decomposition.
    """
    W, P = _partition(grid).weights(grid), grid.pad_size(2)
    out = np.empty(coeffs.shape[:-3] + (len(W), P, P, P))
    for a in range(len(W)):
        to_physical(coeffs * W[a], grid, P, out=out[..., a, :, :, :])
    return out


def combine(Bf, Bg, grid, mode):
    """Paraproduct assembly from the physical blocks of `physical_blocks`.

    mode "lt": sum_j S_{j-1} f * Delta_j g with S_{j-1} = sum_{i<=j-2} Delta_i;
    mode "res": sum_{|i-j|<=1} Delta_i f * Delta_j g.  Returns half spectra.
    """
    J, P = Bf.shape[-4], Bf.shape[-1]
    acc = np.zeros(np.broadcast_shapes(Bf.shape[:-4], Bg.shape[:-4])
                   + (P, P, P))
    if mode == "lt":
        low = Bf[..., 0, :, :, :]  # S_{j-1} f, j = a - 1, as a running sum
        for a in range(2, J):
            if a > 2:
                low = low + Bf[..., a - 2, :, :, :]
            acc += low * Bg[..., a, :, :, :]
    elif mode == "res":
        for a in range(J):
            near = Bf[..., max(a - 1, 0):min(a + 2, J), :, :, :].sum(axis=-4)
            acc += near * Bg[..., a, :, :, :]
    else:
        raise ValueError(mode)
    return from_physical(acc, grid, P)


def _paraproduct(f, g, mode):
    """f < g (mode "lt") or f o g (mode "res") as a field (batch dims allowed)."""
    _check_same_grid(f, g)
    grid = f.grid
    return FourierField(grid, combine(physical_blocks(f.coeffs, grid),
                                      physical_blocks(g.coeffs, grid), grid, mode))


def para_lt(f, g):
    """Low-high paraproduct f < g."""
    return _paraproduct(f, g, "lt")


def resonance(f, g):
    """Resonance product f o g = sum_{|i-j|<=1} Delta_i f Delta_j g."""
    return _paraproduct(f, g, "res")


def commutator_com(f, g, h):
    """Com(f; g; h) = (f < g) o h - f (g o h)."""
    _check_same_grid(f, g, h)
    return resonance(para_lt(f, g), h) - product(f, resonance(g, h), 2)
