"""Sample file I/O: raw interleaved float32 IQ and a human-readable CSV.

The binary format is the de-facto SDR exchange format: little-endian IEEE-754
float32 pairs (I0, Q0, I1, Q1, ...), no header; the sample rate travels
out-of-band. CSV files carry exactly the columns ``index,re,im`` with one
header line.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import DEFAULT_SAMPLE_RATE, SampleBuffer
from .errors import IqFormatError

_SAMPLE_BYTES = 8  # two float32 per complex sample


def _require_finite(words: np.ndarray, source) -> None:
    """Raise IqFormatError naming the first sample with a non-finite I or Q word."""
    words = words.reshape(-1)
    # min/max propagate NaN and surface +-inf without a buffer-sized temporary
    if words.size and not (np.isfinite(words.min()) and np.isfinite(words.max())):
        first = int(np.argmin(np.isfinite(words)))
        raise IqFormatError(f"{source}: sample {first // 2} is not finite")


def write_iq(buf: SampleBuffer, destination) -> int:
    """Write interleaved float32 IQ; returns the byte count (8 per sample)."""
    x = buf.samples
    interleaved = np.empty(2 * len(x), dtype="<f4")
    interleaved[0::2] = x.real
    interleaved[1::2] = x.imag
    data = interleaved.tobytes()
    Path(destination).write_bytes(data)
    return len(data)


def read_iq(source, sample_rate: float = DEFAULT_SAMPLE_RATE) -> SampleBuffer:
    """Read interleaved float32 IQ written by :func:`write_iq`."""
    data = Path(source).read_bytes()
    extra = len(data) % _SAMPLE_BYTES
    if extra:
        raise IqFormatError(
            f"{source}: length {len(data)} is not a multiple of {_SAMPLE_BYTES}; "
            f"trailing {extra} bytes start at offset {len(data) - extra}")
    interleaved = np.frombuffer(data, dtype="<f4")
    _require_finite(interleaved, source)
    samples = interleaved[0::2].astype(np.float64) + 1j * interleaved[1::2].astype(np.float64)
    return SampleBuffer(samples, sample_rate)


def write_csv(buf: SampleBuffer, destination) -> int:
    """Write ``index,re,im`` rows (full float precision); returns row count."""
    x = buf.samples
    lines = ["index,re,im"]
    lines += [f"{i},{float(v.real)!r},{float(v.imag)!r}" for i, v in enumerate(x)]
    Path(destination).write_text("\n".join(lines) + "\n")
    return len(x)


def read_csv(source, sample_rate: float = DEFAULT_SAMPLE_RATE) -> SampleBuffer:
    """Read a CSV written by :func:`write_csv`."""
    path = Path(source)
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "index,re,im":
        raise IqFormatError(f"{source}: expected 'index,re,im' header")
    words = np.zeros((len(lines) - 1, 2))  # (re, im) rows, viewed as complex below
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 3:
            raise IqFormatError(f"{source}:{lineno}: expected 3 columns, got {len(fields)}")
        try:
            words[lineno - 2] = float(fields[1]), float(fields[2])
        except ValueError as exc:
            raise IqFormatError(f"{source}:{lineno}: {exc}") from exc
    _require_finite(words, source)
    return SampleBuffer(words.view(np.complex128).reshape(-1), sample_rate)
