import numpy as np
import pytest

from phi4sim.fourier import (FourierField, FrequencyLattice, from_physical,
                             get_threads, set_threads)


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
    return FourierField(grid, c)


def hermitian_defect(F):
    """Max |fhat(-k) - conj(fhat(k))| over the lattice."""
    return float(np.max(np.abs(F.grid.reflect(F.coeffs) - np.conj(F.coeffs))))


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
