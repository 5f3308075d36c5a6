"""Littlewood-Paley blocks, Besov norms and the low-high paraproduct.

The dyadic partition uses two C^2 piecewise-polynomial radial bumps:
chi_tilde supported in the ball of radius 4/3 and chi supported in the
annulus [3/4, 8/3], with

    chi_tilde(xi) + sum_{j>=0} chi(xi / 2^j) = 1

for all |xi| below the covered band.  Blocks are indexed j = -1, 0, .., jmax
with chi_{-1} = chi_tilde.  This module owns the block grid: every block is
sampled on the degree-2 alias-free padded grid (pad_size(2), the default grid
of fourier.product) by the real transform pair of fourier, one block at a
time, and para_lt multiplies blocks pointwise there, so the Bony
decomposition f g = (f<g) + (g<f) + (f o g) is exact up to rounding.  No
block stack is formed: besov_profile and para_lt each reuse one block array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fourier import from_physical, to_physical


def _smoothstep(u):
    """C^2 quintic step: 0 for u <= 0, 1 for u >= 1."""
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def _psi(r):
    """C^2 radial plateau: 1 for r <= 1, 0 for r >= 4/3."""
    return 1.0 - _smoothstep((np.asarray(r, dtype=np.float64) - 1.0) * 3.0)


def chi_j(j, r):
    """The bump of block j at radius r: chi_tilde(r) = psi(r) for j = -1, else
    chi(r / 2^j) with the annulus bump chi(r) = psi(r / 2) - psi(r)."""
    r = np.asarray(r, dtype=np.float64)
    if j == -1:
        return _psi(r)
    r = r / 2.0**j
    return _psi(r / 2.0) - _psi(r)


_weights = {}


def weights(grid):
    """Block multipliers chi_j(|k|), j = -1..jmax, on the lattice: array
    (jmax + 2, n, n, K+1), built once per K.  The partial sums telescope to
    psi(r / 2^(jmax+1)), one for r <= 2^(jmax+1), and the lattice needs
    r <= sqrt(3) K."""
    if grid.K not in _weights:
        jmax = max(0, math.ceil(math.log2(max(math.sqrt(3) * grid.K / 2.0, 1.0))))
        W = np.empty((jmax + 2,) + grid.shape)
        for a in range(jmax + 2):
            W[a] = chi_j(a - 1, grid.kabs)
        _weights[grid.K] = W
    return _weights[grid.K]


@dataclass
class BesovProfile:
    """Per-block grid sup norms b_j, j = -1..jmax."""

    j: np.ndarray
    b: np.ndarray

    def norm(self, alpha):
        return float(np.max(2.0 ** (alpha * self.j) * self.b))


def besov_profile(f, grid):
    """The sup norm of every block of the half spectrum f, each block
    transformed into one reused array on the pad_size(2) grid."""
    W, P = weights(grid), grid.pad_size(2)
    block = np.empty(f.shape[:-3] + (P, P, P))
    b = [np.max(np.abs(to_physical(f * w, grid, P, out=block), out=block),
                axis=(-3, -2, -1)) for w in W]
    return BesovProfile(j=np.arange(-1, len(W) - 1), b=np.stack(b, axis=-1))


def besov_norm(f, grid, alpha):
    """sup_j 2^(alpha j) ||Delta_j f||_inf, L_inf on the padded physical grid."""
    return besov_profile(f, grid).norm(alpha)


def para_lt(f, g, grid):
    """Low-high paraproduct f < g = sum_j S_{j-1} f * Delta_j g of two half
    spectra of one shape (batch dims allowed), as a half spectrum.

    S_{j-1} f = sum_{i<=j-2} Delta_i f is kept as a running low sum, and
    each Delta_j g is transformed when its term is added, so the sum holds
    three (P, P, P) arrays and transforms only the blocks it reads: f's up
    to jmax - 2 and g's from 1 on."""
    W, P = weights(grid), grid.pad_size(2)
    if len(W) < 3:  # no block of g has a low sum below it
        return np.zeros(f.shape, dtype=np.complex128)
    low = to_physical(f * W[0], grid, P)
    acc, block = np.zeros_like(low), np.empty_like(low)
    for a in range(2, len(W)):
        if a > 2:
            low += to_physical(f * W[a - 2], grid, P, out=block)
        to_physical(g * W[a], grid, P, out=block)
        block *= low
        acc += block
    return from_physical(acc, grid, P)
