"""IEEE 802.11a training preamble generation.

The preamble is 320 samples at 20 MHz: ten repetitions of a 16-sample short
training symbol (STS, 160 samples), a 32-sample guard that is the cyclic
prefix of the long symbol, and two identical 64-sample long training symbols
(LTS, 128 samples). The short sequence occupies 12 subcarriers, the long
sequence 52 of the 64 available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SampleBuffer
from .errors import ConfigError, SizingError

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


@dataclass(frozen=True)
class PreambleSpec:
    """Structural description of the training preamble.

    ``short_freq``/``long_freq`` are 64-entry frequency-domain definitions in
    centered subcarrier order (DC in the middle), exactly 12 and 52 nonzero
    entries respectively.
    """

    fft_size: int = 64
    short_freq: np.ndarray = field(default_factory=lambda: SHORT_TRAINING_FREQ.copy())
    long_freq: np.ndarray = field(default_factory=lambda: LONG_TRAINING_FREQ.copy())
    short_symbol_len: int = 16
    short_repeats: int = 10
    guard_len: int = 32
    long_symbol_len: int = 64
    long_repeats: int = 2
    sample_rate: float = 20e6

    def __post_init__(self):
        short = np.asarray(self.short_freq, dtype=np.complex128).reshape(-1)
        long = np.asarray(self.long_freq, dtype=np.complex128).reshape(-1)
        object.__setattr__(self, "short_freq", short)
        object.__setattr__(self, "long_freq", long)
        for name in ("fft_size", "short_symbol_len", "short_repeats",
                     "guard_len", "long_symbol_len", "long_repeats"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if self.fft_size & (self.fft_size - 1):
            raise ConfigError(f"fft_size must be a power of two, got {self.fft_size}")
        if len(short) != self.fft_size or len(long) != self.fft_size:
            raise ConfigError("short_freq and long_freq must each have fft_size entries")
        if np.count_nonzero(short) != 12:
            raise ConfigError("short_freq must occupy exactly 12 subcarriers")
        if np.count_nonzero(long) != 52:
            raise ConfigError("long_freq must occupy exactly 52 subcarriers")
        if self.short_symbol_len > self.fft_size or self.guard_len > self.fft_size:
            raise ConfigError("symbol and guard lengths cannot exceed fft_size")
        if not (self.sample_rate > 0 and np.isfinite(self.sample_rate)):
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def sts_len(self) -> int:
        return self.short_repeats * self.short_symbol_len

    @property
    def lts_len(self) -> int:
        return self.guard_len + self.long_repeats * self.long_symbol_len

    @property
    def total_len(self) -> int:
        return self.sts_len + self.lts_len


def inverse_dft(freq_values) -> np.ndarray:
    """Inverse DFT with 1/N normalization; N must be a power of two."""
    freq = np.asarray(freq_values, dtype=np.complex128)
    if freq.ndim != 1:
        raise SizingError("inverse_dft expects a 1-D vector")
    n = freq.shape[0]
    if n == 0 or n & (n - 1):
        raise SizingError(f"inverse_dft length must be a power of two, got {n}")
    return np.fft.ifft(freq)


def generate_sts(spec: PreambleSpec = PreambleSpec()) -> SampleBuffer:
    """Short training sequence: one 16-sample period tiled ten times.

    Tiling guarantees the period-16 property bitwise instead of relying on
    floating-point symmetry of the inverse transform.
    """
    symbol = inverse_dft(np.fft.ifftshift(spec.short_freq))
    period = symbol[: spec.short_symbol_len]
    return SampleBuffer(np.tile(period, spec.short_repeats), spec.sample_rate)


def generate_lts(spec: PreambleSpec = PreambleSpec()) -> SampleBuffer:
    """Long training sequence: cyclic prefix followed by two identical symbols."""
    symbol = inverse_dft(np.fft.ifftshift(spec.long_freq))
    prefix = symbol[-spec.guard_len:]
    parts = [prefix] + [symbol] * spec.long_repeats
    return SampleBuffer(np.concatenate(parts), spec.sample_rate)


# The last built preamble, as (spec content key, buffer); a miss replaces it.
_memo: tuple[tuple, SampleBuffer] | None = None


def _content_key(spec: PreambleSpec) -> tuple:
    # Every field of PreambleSpec, arrays by their bytes (a spec's arrays
    # can be edited in place, so the key is taken on each call).
    return (spec.fft_size, spec.short_symbol_len, spec.short_repeats, spec.guard_len,
            spec.long_symbol_len, spec.long_repeats, spec.sample_rate,
            spec.short_freq.tobytes(), spec.long_freq.tobytes())


def generate_preamble(spec: PreambleSpec = PreambleSpec()) -> SampleBuffer:
    """Full training preamble (STS then LTS), scaled to unit average power.

    The last build is kept: a spec equal in content to the previous call's
    gets the same buffer, whose samples are read-only. Copy them before editing.
    """
    global _memo
    key = _content_key(spec)
    if _memo is None or _memo[0] != key:
        raw = np.concatenate([generate_sts(spec).samples, generate_lts(spec).samples])
        rms = np.sqrt(np.mean(np.abs(raw) ** 2))
        buf = SampleBuffer(raw / rms, spec.sample_rate)
        buf.samples.flags.writeable = False
        _memo = (key, buf)
    return _memo[1]
