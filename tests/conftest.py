import numpy as np
import pytest

from ofdmsync import SampleBuffer, generate_preamble


@pytest.fixture(scope="session")
def preamble():
    return generate_preamble()


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)


def random_buffer(rng, n, sample_rate=20e6):
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return SampleBuffer(samples, sample_rate)
