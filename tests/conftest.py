import math

import numpy as np
import pytest

from phi4sim.fourier import (FourierField, FrequencyLattice, from_physical,
                             get_threads, set_threads)
from phi4sim.gaussian import gaussian_expectation, polyder


def random_hermitian_field(grid, rng, scale=1.0):
    """Random real-valued band-limited field via its physical samples."""
    samples = rng.standard_normal((grid.n,) * 3) * scale
    return FourierField(grid, from_physical(samples, grid, grid.n))


def delta_field(grid, k, amplitude=1.0):
    """The real field with mode k plus its conjugate at -k (so k = 0 gets
    twice the amplitude)."""
    c = np.zeros((grid.n,) * 3, dtype=np.complex128)
    c[tuple(int(ki) % grid.n for ki in k)] = amplitude
    c[tuple(-int(ki) % grid.n for ki in k)] += np.conj(amplitude)
    return FourierField(grid, c[..., : grid.K + 1].copy())


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
