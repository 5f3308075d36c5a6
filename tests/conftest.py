import math

import numpy as np
import pytest

from phi4sim.besov import weights
from phi4sim.diagrams import _burn_phases, _NoiseEvaluator
from phi4sim.fourier import (ExponentialQuadrature, FrequencyLattice, from_physical,
                             get_threads, product, set_threads, to_physical)
from phi4sim.gaussian import (advance, gaussian_expectation, ou_transition, polyder,
                              sample_stationary)


def random_hermitian_field(grid, rng, scale=1.0):
    """Half spectrum of a random real-valued band-limited field via its
    physical samples."""
    samples = rng.standard_normal((grid.n,) * 3) * scale
    return from_physical(samples, grid, grid.n)


def delta_field(grid, k, amplitude=1.0):
    """Half spectrum of the real field with mode k plus its conjugate at -k
    (so k = 0 gets twice the amplitude)."""
    c = np.zeros((grid.n,) * 3, dtype=np.complex128)
    c[tuple(int(ki) % grid.n for ki in k)] = amplitude
    c[tuple(-int(ki) % grid.n for ki in k)] += np.conj(amplitude)
    return c[..., : grid.K + 1].copy()


def reflected(c):
    """Full cubes at -k (index reversal in FFT order on the last three axes)."""
    return np.roll(c[..., ::-1, ::-1, ::-1], 1, axis=(-3, -2, -1))


def hermitian_defect(c):
    """Max |fhat(-k) - conj(fhat(k))| over full (n, n, n) cubes."""
    return float(np.max(np.abs(reflected(c) - np.conj(c))))


def cube_modes(grid):
    """(k1, k2, k3) over the full mode cube; the lattice holds the k3 >= 0 half."""
    return np.meshgrid(grid.freqs, grid.freqs, grid.freqs, indexing="ij")


def cube_bsq(Q, grid):
    """bracket(k)^2 over the full mode cube."""
    return Q.bracket_sq(np.sqrt(sum(k.astype(float)**2 for k in cube_modes(grid))))


def chaos_coefficients(f, nu):
    """Hermite-chaos coefficients c_k = E[f^(k)(X)]/k! for X ~ N(0, nu) of an
    ascending coefficient array f, so that f(x) = sum_k c_k H_k(x; nu)."""
    c = np.asarray(f, dtype=np.float64)
    return [gaussian_expectation(polyder(c, k), nu) / math.factorial(k) for k in range(len(c))]


# ---------------------------------------------------------------------------
# the paper-form paraproduct calculus on block stacks: the reference that
# besov.para_lt and the solver's collapsed step are checked against


def physical_blocks(coeffs, grid):
    """Real samples of every block of a field, given by its coefficient array
    (batch dims allowed), on the pad_size(2) grid: shape (..., nblocks, P, P, P),
    transformed one block at a time."""
    W, P = weights(grid), grid.pad_size(2)
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


def _paraproduct(f, g, grid, mode):
    return combine(physical_blocks(f, grid), physical_blocks(g, grid), grid, mode)


def lt(f, g, grid):
    """Low-high paraproduct f < g of two half spectra, from block stacks."""
    return _paraproduct(f, g, grid, "lt")


def resonance(f, g, grid):
    """Resonance product f o g = sum_{|i-j|<=1} Delta_i f Delta_j g."""
    return _paraproduct(f, g, grid, "res")


def commutator_com(f, g, h, grid):
    """Com(f; g; h) = (f < g) o h - f (g o h)."""
    return resonance(lt(f, g, grid), h, grid) - product(f, resonance(g, h, grid), grid, 2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_grid():
    return FrequencyLattice(4)


@pytest.fixture(autouse=True)
def fft_threads_restored():
    """Fail a test that leaves the FFT worker count changed, then restore it."""
    before = get_threads()
    yield
    after = get_threads()
    set_threads(before)
    assert after == before, f"FFT thread count left at {after}, was {before}"


# ---------------------------------------------------------------------------
# the burn-in on the whole lattice at every step: the reference of the
# build's burn-in on nested cubes


def full_lattice_c30(seed, grid, Q, polys, dt, sample=0, burn_in=10.0,
                     fine_window=1.0):
    """c30 at t = 0 of a build with the noise polynomials `polys` (c0..c3),
    its c3 formed and integrated on the whole lattice at every burn-in step."""
    ev = _NoiseEvaluator(grid, polys)
    phases = _burn_phases(dt, burn_in, fine_window)
    ens = sample_stationary(seed, grid, Q, sample=sample,
                            t0=-sum(n * h for n, h in phases))
    I3 = np.zeros(grid.shape, dtype=np.complex128)
    for n, h in phases:
        quad, ou_step = ExponentialQuadrature(grid, Q, h), ou_transition(grid, Q, h)
        for _ in range(n):
            c, = ev.all_noises(ens.coeffs, (3,))
            I3 = quad.advance(I3, c)
            ens = advance(ens, h, ou_step)
    return I3
