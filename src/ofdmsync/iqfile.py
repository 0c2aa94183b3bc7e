"""Sample file I/O: raw interleaved float32 IQ, and the one CSV table writer.

The binary format is the de-facto SDR exchange format: little-endian IEEE-754
float32 pairs (I0, Q0, I1, Q1, ...), no header; the sample rate travels
out-of-band. :func:`iq_blocks` is the one reader: it checks that a file holds
whole samples before reading any, then yields finite complex64 blocks of
``BLOCK_LEN`` samples, each read into its own array. Their consumer converts
them to complex128 in the copy it makes anyway (a detector's workspace, or
:func:`read_iq`'s one buffer), so no converted block is made; complex64 to
complex128 is exact, so the samples are those of one whole-file conversion.
Every CSV the package writes (sample files, ``--trace`` files, trial
reports) is one header line, then the rows of :func:`write_rows`, called
directly or through :func:`write_table`: one ``,``-joined row per entry,
each field ``str`` of a Python int, float (the shortest repr that
round-trips) or name. CSV files are not read back.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path

import numpy as np

from .core import BLOCK_LEN, DEFAULT_SAMPLE_RATE, SampleBuffer, all_finite, of_type
from .errors import IqFormatError

_SAMPLE_BYTES = 8  # two float32 per complex sample
# Rows formatted per write: bounds the text held in memory on long traces.
# A batch of rows of at most ~100 characters then stays under glibc's
# 128 KiB mmap threshold, so its text is not mapped and unmapped afresh (and
# page-faulted in) on every write.
ROWS_PER_WRITE = 1 << 10


def _require_finite(words: np.ndarray, source, first_sample: int = 0) -> None:
    """Raise IqFormatError naming the first sample with a non-finite I or Q word.

    ``words`` starts at sample ``first_sample`` of ``source``.
    """
    if not all_finite(words):
        first = int(np.argmin(np.isfinite(words.reshape(-1))))
        raise IqFormatError(f"{source}: sample {first_sample + first // 2} is not finite")


def write_iq(buf: SampleBuffer, destination) -> int:
    """Write interleaved float32 IQ; returns the byte count (8 per sample).

    Raises IqFormatError, before writing anything, when a sample overflows
    float32, since :func:`read_iq` would reject the file.
    """
    with np.errstate(over="ignore"):
        words = of_type("write_iq", buf, SampleBuffer).samples.astype("<c8")
    _require_finite(words.view("<f4"), f"writing {destination} as float32")
    data = words.tobytes()
    Path(destination).write_bytes(data)
    return len(data)


def iq_blocks(source):
    """Yield the samples of an interleaved float32 IQ file as complex64 blocks.

    Each block is a new array that the file is read into directly, so a
    consumer may keep it; consumers convert to complex128 as they copy it.
    Raises IqFormatError before reading anything when the file is not a
    regular file of whole samples, and at the first block that holds a
    non-finite word, naming that sample's index in the file.
    """
    with Path(source).open("rb") as f:
        info = os.fstat(f.fileno())
        if not stat.S_ISREG(info.st_mode):  # a pipe's size is 0 whatever it holds
            raise IqFormatError(f"{source}: not a regular file")
        extra = info.st_size % _SAMPLE_BYTES
        if extra:
            raise IqFormatError(
                f"{source}: length {info.st_size} is not a multiple of {_SAMPLE_BYTES}; "
                f"trailing {extra} bytes start at offset {info.st_size - extra}")
        n_samples = info.st_size // _SAMPLE_BYTES
        for at in range(0, n_samples, BLOCK_LEN):
            block = np.empty(min(BLOCK_LEN, n_samples - at), "<c8")
            if f.readinto(block) != block.nbytes:
                raise IqFormatError(f"{source}: file changed while being read")
            _require_finite(block.view("<f4"), source, at)
            yield block


def read_iq(source, sample_rate: float = DEFAULT_SAMPLE_RATE) -> SampleBuffer:
    """Read interleaved float32 IQ written by :func:`write_iq` into one buffer."""
    samples = np.empty(os.stat(source).st_size // _SAMPLE_BYTES, np.complex128)
    at = 0
    for block in iq_blocks(source):
        if at + len(block) > len(samples):
            break
        samples[at:at + len(block)] = block
        at += len(block)
    if at != len(samples):
        raise IqFormatError(f"{source}: file changed while being read")
    return SampleBuffer(samples, sample_rate)


def write_rows(f, columns) -> int:
    """Write row i of the i-th entry of each column to the text file ``f``; returns the row count.

    Columns are equal-length sequences or arrays; boolean columns are
    written as 0/1.
    """
    columns = [np.asarray(c) for c in columns]
    columns = [c.astype(np.uint8) if c.dtype == bool else c for c in columns]
    n_rows = len(columns[0])
    if any(len(c) != n_rows for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    for start in range(0, n_rows, ROWS_PER_WRITE):
        block = [c[start:start + ROWS_PER_WRITE].tolist() for c in columns]
        f.write("\n".join(map(",".join, zip(*(map(str, c) for c in block)))) + "\n")
    return n_rows


def write_table(destination, header: str, columns) -> int:
    """Write ``header``, then the rows of :func:`write_rows`; returns the row count."""
    with Path(destination).open("w") as f:
        f.write(header + "\n")
        return write_rows(f, columns)


def write_csv(buf: SampleBuffer, destination) -> int:
    """Write ``index,re,im`` rows (full float precision); returns row count."""
    x = of_type("write_csv", buf, SampleBuffer).samples
    return write_table(destination, "index,re,im", (np.arange(len(x)), x.real, x.imag))
