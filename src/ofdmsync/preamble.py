"""IEEE 802.11a training preamble generation.

The preamble is 320 samples at 20 MHz: ten repetitions of a 16-sample short
training symbol (STS, 160 samples), a 32-sample guard that is the cyclic
prefix of the long symbol, and two identical 64-sample long training symbols
(LTS, 128 samples). The short sequence occupies 12 subcarriers, the long
sequence 52 of the 64 available. The standard fixes all of it, so it is
built once and shared.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import DEFAULT_SAMPLE_RATE, SampleBuffer, as_samples
from .errors import SizingError

SHORT_PERIOD = 16
SHORT_REPEATS = 10
GUARD_LEN = 32
LONG_SYMBOL_LEN = 64
LONG_REPEATS = 2
STS_LEN = SHORT_REPEATS * SHORT_PERIOD
PREAMBLE_LEN = STS_LEN + GUARD_LEN + LONG_REPEATS * LONG_SYMBOL_LEN

# Frequency-domain training values in centered subcarrier order: index 0 is
# subcarrier -32, index 32 is DC. The short sequence puts a QPSK point on
# every 4th subcarrier, which is what makes its time waveform 16-periodic;
# sqrt(13/6) equalizes its average power with the 52-tone long sequence.
_SHORT_TONES = {
    -24: 1, -20: -1, -16: 1, -12: -1, -8: -1, -4: 1,
    4: -1, 8: -1, 12: 1, 16: 1, 20: 1, 24: 1,
}


def _short_training_freq() -> np.ndarray:
    freq = np.zeros(64, dtype=np.complex128)
    for subcarrier, sign in _SHORT_TONES.items():
        freq[32 + subcarrier] = sign * (1 + 1j)
    return np.sqrt(13 / 6) * freq


SHORT_TRAINING_FREQ = _short_training_freq()

LONG_TRAINING_FREQ = np.array(
    [0, 0, 0, 0, 0, 0, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1,
     1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1,
     0, 1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1,
     1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    dtype=np.complex128,
)

# Read-only, so the cached preamble built from them cannot go stale.
SHORT_TRAINING_FREQ.flags.writeable = False
LONG_TRAINING_FREQ.flags.writeable = False


def inverse_dft(freq_values) -> np.ndarray:
    """Inverse DFT with 1/N normalization; N must be a power of two."""
    freq = as_samples(freq_values)
    if np.ndim(freq_values) != 1:
        raise SizingError("inverse_dft expects a 1-D vector")
    n = freq.shape[0]
    if n == 0 or n & (n - 1):
        raise SizingError(f"inverse_dft length must be a power of two, got {n}")
    return np.fft.ifft(freq)


def generate_sts() -> SampleBuffer:
    """Short training sequence: one 16-sample period tiled ten times.

    Tiling guarantees the period-16 property bitwise instead of relying on
    floating-point symmetry of the inverse transform.
    """
    symbol = inverse_dft(np.fft.ifftshift(SHORT_TRAINING_FREQ))
    return SampleBuffer(np.tile(symbol[:SHORT_PERIOD], SHORT_REPEATS), DEFAULT_SAMPLE_RATE)


def generate_lts() -> SampleBuffer:
    """Long training sequence: cyclic prefix followed by two identical symbols."""
    symbol = inverse_dft(np.fft.ifftshift(LONG_TRAINING_FREQ))
    parts = [symbol[-GUARD_LEN:]] + [symbol] * LONG_REPEATS
    return SampleBuffer(np.concatenate(parts), DEFAULT_SAMPLE_RATE)


@functools.cache
def generate_preamble() -> SampleBuffer:
    """Full training preamble (STS then LTS), scaled to unit average power.

    Built once: every call returns the same buffer, whose samples are
    read-only. Copy them before editing.
    """
    raw = np.concatenate([generate_sts().samples, generate_lts().samples])
    rms = np.sqrt(np.mean(np.abs(raw) ** 2))
    samples = raw / rms
    samples.flags.writeable = False  # the buffer holds this array, so its samples are read-only
    return SampleBuffer(samples, DEFAULT_SAMPLE_RATE)
