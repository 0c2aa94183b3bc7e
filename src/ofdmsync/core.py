"""Complex baseband sample container used by every stage of the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

DEFAULT_SAMPLE_RATE = 20e6  # Hz
# Upper bound on each generated stretch (lead, gap, frame train): 256 MiB of
# complex128. Larger requests are rejected before anything is allocated.
MAX_GENERATED_SAMPLES = 2**24
# Samples per block wherever a stream is cut into blocks: each read of an IQ
# file and each slice detect_frames feeds its StreamingFrameDetector. Every
# temporary then stays under glibc's 128 KiB mmap threshold (a block is
# 64 KiB as complex128); larger ones are mmapped and unmapped on every call,
# faulting their pages in again, until a large free raises the threshold. In
# a fresh process, detect_frames on 10M samples took 214,880 minor faults at
# 16384 samples and 100 at 4096.
BLOCK_LEN = 1 << 12


@dataclass(frozen=True)
class SampleBuffer:
    """An ordered run of complex baseband samples at a fixed sample rate.

    Samples are stored as a 1-D complex128 array; values must be finite.
    """

    samples: np.ndarray = field(default_factory=lambda: np.zeros(0, np.complex128))
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128).reshape(-1)
        if not np.all(np.isfinite(samples)):
            raise ConfigError("sample buffer contains non-finite values")
        if not (self.sample_rate > 0 and np.isfinite(self.sample_rate)):
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
