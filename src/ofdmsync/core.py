"""Complex baseband sample container used by every stage of the pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

DEFAULT_SAMPLE_RATE = 20e6  # Hz
# Upper bound on each generated stretch (lead, gap, frame train): 256 MiB of
# complex128. Larger requests are rejected before anything is allocated.
MAX_GENERATED_SAMPLES = 2**24
# Samples per block wherever a stream is cut into blocks: each read of an IQ
# file and each step of a StreamingFrameDetector. The detector computes its
# metric in a workspace it allocates once, so no per-call temporary has to
# stay under glibc's 128 KiB mmap threshold. 8192 halves the fixed cost per
# sample of 4096; 16384 ran detect --in on 10M samples about 10% slower than
# 8192 and raised its peak RSS over 4096 by 1.8 MB instead of 1.0.
BLOCK_LEN = 1 << 13


@dataclass(frozen=True)
class SampleBuffer:
    """An ordered run of complex baseband samples at a fixed sample rate.

    Samples are stored as a 1-D complex128 array; values must be finite.
    """

    samples: np.ndarray = field(default_factory=lambda: np.zeros(0, np.complex128))
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128).reshape(-1)
        if not all_finite(samples):
            raise ConfigError("sample buffer contains non-finite values")
        if not (self.sample_rate > 0 and math.isfinite(self.sample_rate)):
            raise ConfigError(f"sample rate must be positive and finite, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        """Buffer length in seconds."""
        return len(self) / self.sample_rate

    @property
    def average_power(self) -> float:
        """Mean of |x[n]|^2 over the buffer (0.0 for an empty buffer)."""
        if len(self) == 0:
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))


def as_samples(signal) -> np.ndarray:
    """Accept a SampleBuffer or any array-like and return complex128 samples."""
    if isinstance(signal, SampleBuffer):
        return signal.samples
    return np.asarray(signal, dtype=np.complex128).reshape(-1)


def all_finite(values: np.ndarray) -> bool:
    """Whether no entry of a float or complex array, nor part of one, is NaN or infinite.

    One min and one max over the float view, or over the real and imaginary
    parts of a strided complex array: NaN propagates through both and an
    infinity shows in one of them, so neither an array-sized boolean nor a
    copy is built.
    """
    if values.dtype.kind == "c":
        if not values.flags.c_contiguous:
            return all_finite(values.real) and all_finite(values.imag)
        values = values.view(values.real.dtype)
    return values.size == 0 or (math.isfinite(values.min()) and math.isfinite(values.max()))
