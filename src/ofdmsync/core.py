"""Complex baseband sample container used by every stage of the pipeline."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SizingError

DEFAULT_SAMPLE_RATE = 20e6  # Hz
# Upper bound on each generated stretch (lead, gap, frame train): 256 MiB of
# complex128. Larger requests are rejected before anything is allocated.
MAX_GENERATED_SAMPLES = 2**24
# Samples per block wherever a stream is cut into blocks: each read of an IQ
# file and each step of a StreamingFrameDetector. The detector computes its
# metric in a workspace it allocates once, so no per-call temporary has to
# stay under glibc's 128 KiB mmap threshold. 8192 halves the fixed cost per
# sample of 4096; 16384 ran detect --in on 10M samples about 10% slower than
# 8192 and raised its peak RSS over 4096 by 1.8 MB instead of 1.0. Monte Carlo
# trials are not a stream: run_trials cuts them into blocks of
# harness.TRIAL_BLOCK_LEN samples, four of these.
BLOCK_LEN = 1 << 13
_COMPLEX128 = np.dtype(np.complex128)


@dataclass(frozen=True, eq=False)
class SampleBuffer:
    """An ordered run of complex baseband samples at a fixed sample rate.

    Samples are stored as a 1-D complex128 array; values must be finite.
    Buffers compare and hash by identity: a field-wise ``==`` over the
    array has no single truth value.
    """

    samples: np.ndarray = field(default_factory=lambda: np.zeros(0, np.complex128))
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        samples = as_samples(self.samples)
        if not all_finite(samples):
            raise ConfigError("sample buffer contains non-finite values")
        rate = as_real("sample rate", self.sample_rate, "be positive and finite", lambda r: r > 0)
        # set only what the gates changed: a trial's buffer arrives as it is stored
        if samples is not self.samples:
            object.__setattr__(self, "samples", samples)
        if type(rate) is not float:
            object.__setattr__(self, "sample_rate", float(rate))

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
    """A SampleBuffer's samples, or any array-like as a 1-D complex128 array.

    A 1-D complex128 ndarray is returned as it is, the same object; any other
    input is converted, without a copy where numpy can. What numpy cannot
    convert (bytes, a ragged sequence, an int past float64's range) is a
    ConfigError naming the value.
    """
    if isinstance(signal, SampleBuffer):
        return signal.samples
    if type(signal) is np.ndarray and signal.dtype is _COMPLEX128 and signal.ndim == 1:
        return signal
    try:
        return np.asarray(signal, dtype=np.complex128).reshape(-1)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"samples must convert to complex128, got {shown(signal)}") from None


def as_real(name: str, value, rule: str = "be a finite real number", within=None):
    """``value``, unchanged, if it is a finite real number (a numpy one too)
    for which the caller's range test ``within`` holds; ConfigError
    "<name> must <rule>, got <value>" otherwise.

    The value keeps its type, so an np.float32 keeps its bits. An int past
    float64's range is not finite.
    """
    try:  # float first: the ABC's isinstance costs several times more
        valid = ((isinstance(value, float) or isinstance(value, numbers.Real))
                 and math.isfinite(value) and (within is None or within(value)))
    except OverflowError:  # math.isfinite of an int past float64
        valid = False
    if not valid:
        raise ConfigError(f"{name} must {rule}, got {shown(value)}")
    return value


def shown(value) -> str:
    """``repr(value)`` for an error message, cut to at most 60 characters.

    An int of more than 200 bits is shown by its bit count instead: Python
    refuses to write one of more than 4300 digits as text, which also stops
    the ``repr`` of a container that holds one.
    """
    if isinstance(value, int) and value.bit_length() > 200:
        return f"an int of {value.bit_length()} bits"
    try:
        text = repr(value)
    except ValueError:
        return f"a {type(value).__name__} holding an int too long to write"
    return text if len(text) <= 60 else text[:57] + "..."


def as_int(name: str, value, bounds: tuple[int, int] | None = None) -> int:
    """``value`` as an int if it is an integer, a numpy one too, and inside the
    closed ``bounds`` when given; ConfigError otherwise.

    A float is rejected even when integral, so no size is silently truncated.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {shown(value)}") from None
    if bounds is not None and not bounds[0] <= value <= bounds[1]:
        raise ConfigError(f"{name} must lie in [{bounds[0]}, {bounds[1]}], got {shown(value)}")
    return value


def of_type(taker: str, value, cls):
    """``value`` if it is a ``cls``; TypeError "<taker> takes a <cls>, got <type>"
    otherwise, as the error rule allows for a free function's argument."""
    if not isinstance(value, cls):
        raise TypeError(f"{taker} takes a {cls.__name__}, got {type(value).__name__}")
    return value


def as_positive(name: str, value) -> int:
    """``value`` as an int: ConfigError when it is not an integer, SizingError below 1."""
    value = as_int(name, value)
    if value < 1:
        raise SizingError(f"{name} must be positive, got {shown(value)}")
    return value


def as_int_pair(name: str, value) -> tuple[int, int]:
    """``value``, a pair such as (start, length), as two ints; ConfigError otherwise."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a pair of integers, got {shown(value)}") from None
    return as_int(f"{name} bound", first), as_int(f"{name} bound", second)


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
