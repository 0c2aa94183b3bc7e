"""Carrier frequency offset estimation and correction.

A +f channel rotation turns each lag-L autocorrelation term over the
periodic short training into exp(-j*2*pi*f*L*Ts) times a positive number,
so the offset is read from the phase of the averaged autocorrelation and
removed by the opposite rotation. With L=16 at 20 MHz the estimate is
unambiguous for |f| < 625 kHz; beyond that it wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import apply_cfo
from .core import SampleBuffer, as_int_pair, as_positive, of_type, shown
from .errors import EstimationError, SizingError
from .frame_detect import FrameDetectConfig, FrameEvent, _correlate


@dataclass(frozen=True)
class CfoEstimate:
    """Offset in Hz, the raw autocorrelation phase, and the span averaged over."""

    delta_f_hz: float
    phase_rad: float
    plateau_span: tuple[int, int]  # half-open (start, stop) autocorrelation indices


def _segment(n_samples: int, lag: int, plateau: tuple[int, int]) -> tuple[int, int, int]:
    """(start, stop, end): the plateau, and the end of the samples its autocorrelation reads."""
    lag = as_positive("lag", lag)
    start, stop = as_int_pair("plateau", plateau)
    if stop <= start:
        raise SizingError(f"plateau ({shown(start)}, {shown(stop)}) is empty")
    # R[n] needs samples n .. n+2*lag-1
    end = stop - 1 + 2 * lag
    if start < 0 or end > n_samples:
        raise SizingError(
            f"plateau ({shown(start)}, {shown(stop)}) with lag {shown(lag)} exceeds the buffer")
    return start, stop, end


def _offsets(rows: np.ndarray, lag: int, plateau: tuple[int, int], sample_rate: float
             ) -> list[tuple[float, float] | None]:
    """(delta_f_hz, phase_rad) of each row's mean autocorrelation over ``plateau``,
    or None where the mean is 0 and so has no phase.

    The samples each row's plateau reads are laid end to end for one pass of
    lag products and window sums. A plateau value depends only on its own
    row's samples, so each row keeps the bits of a pass over it alone.
    """
    start, stop, end = _segment(rows.shape[1], lag, plateau)
    segments = np.ascontiguousarray(rows[:, start:end])
    sums = np.empty_like(segments)  # row r's plateau values land in sums[r, :stop - start]
    _correlate(segments.reshape(-1), lag, lag, sums.reshape(-1)[:sums.size - 2 * lag + 1])
    means = sums[:, :stop - start].mean(axis=1)
    phases = angles(means)
    sample_period = 1.0 / sample_rate
    hz = -phases / (2 * np.pi * lag * sample_period)
    return [None if mean == 0 else offset
            for mean, offset in zip(means.tolist(), zip(hz.tolist(), phases.tolist()))]


def angles(z: np.ndarray) -> np.ndarray:
    """``np.angle`` of a 1-D complex array, by libm's ``math.atan2``: numpy's
    vectorised arctan2 moves the last bit with the CPU's SIMD level."""
    return np.fromiter(map(math.atan2, z.imag.tolist(), z.real.tolist()), np.float64, len(z))


def estimate_cfo(r: SampleBuffer, lag: int, plateau: tuple[int, int]) -> CfoEstimate:
    """Estimate the offset from the mean autocorrelation over ``plateau``.

    ``plateau`` is a half-open (start, stop) range of autocorrelation
    indices; averaging the complex values before taking the phase is
    equivalent to a single-point read in the clean case and lower-variance
    under noise. It is :func:`estimate_cfo_rows` on one row. Raises
    EstimationError when the mean has no phase (no coherent short training
    present), and TypeError when ``r`` is no SampleBuffer.
    """
    of_type("estimate_cfo", r, SampleBuffer)
    offset, = _offsets(r.samples[np.newaxis], lag, plateau, r.sample_rate)
    if offset is None:
        raise EstimationError("autocorrelation over the plateau has zero magnitude")
    return CfoEstimate(*offset, plateau_span=(int(plateau[0]), int(plateau[1])))


def estimate_cfo_rows(rows: np.ndarray, lag: int, plateau: tuple[int, int],
                      sample_rate: float) -> list[float | None]:
    """:func:`estimate_cfo`'s ``delta_f_hz`` for each row of ``rows``, a 2-D
    complex128 array of equal-length buffers, or None where it raises
    EstimationError. One pass of lag products and window sums covers every
    row's plateau.
    """
    return [None if offset is None else offset[0]
            for offset in _offsets(rows, lag, plateau, sample_rate)]


def correct_cfo(r: SampleBuffer, delta_f_hz: float) -> SampleBuffer:
    """De-rotate: out[n] = in[n] * exp(-j*2*pi*delta_f_hz*n*Ts)."""
    return apply_cfo(of_type("correct_cfo", r, SampleBuffer), -delta_f_hz)


def span_within(first: int, last: int, lag: int) -> tuple[int, int]:
    """The half-open (start, stop) autocorrelation indices from ``first`` whose
    ``2*lag`` samples end by sample ``last``: ``(first, last - 2*lag + 2)``,
    and never empty, so at least ``(first, first + 1)``. ``lag`` is checked
    as :func:`estimate_cfo` checks it.
    """
    return first, max(last - 2 * as_positive("lag", lag) + 2, first + 1)


def plateau_from_event(event: FrameEvent, lag: int = FrameDetectConfig.lag) -> tuple[int, int]:
    """Shrink a detection run to indices whose windows lie inside the STS.

    The detection metric stays above threshold a little past the short
    training because partially overlapping windows still correlate; those
    trailing points mix in guard-interval content and would bias the phase
    average, so the right edge is pulled in by one full correlation span
    (``2*lag - 1`` samples): :func:`span_within` of the run's bounds.
    """
    return span_within(event.start_index, event.end_index, lag)
