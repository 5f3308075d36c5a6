import numpy as np
import pytest

from phi4sim.fourier import (FourierField, FrequencyLattice, get_threads,
                             set_threads)


def random_hermitian_field(grid, rng, scale=1.0):
    """Random real-valued band-limited field via its physical samples."""
    from phi4sim.fourier import forward

    samples = rng.standard_normal((grid.M,) * 3) * scale
    return forward(samples, grid)


def random_complex_field(grid, rng, scale=1.0):
    c = (rng.standard_normal((grid.n,) * 3)
         + 1j * rng.standard_normal((grid.n,) * 3)) * scale
    return FourierField(grid, c, hermitian=False)


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
