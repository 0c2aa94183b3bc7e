"""Carrier frequency offset estimation and correction.

A +f channel rotation turns each lag-L autocorrelation term over the
periodic short training into exp(-j*2*pi*f*L*Ts) times a positive number,
so the offset is read from the phase of the averaged autocorrelation and
removed by the opposite rotation. With L=16 at 20 MHz the estimate is
unambiguous for |f| < 625 kHz; beyond that it wraps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import apply_cfo
from .core import SampleBuffer
from .errors import EstimationError, SizingError
from .frame_detect import FrameEvent, autocorrelation


@dataclass(frozen=True)
class CfoEstimate:
    """Offset in Hz, the raw autocorrelation phase, and the span averaged over."""

    delta_f_hz: float
    phase_rad: float
    plateau_span: tuple[int, int]  # half-open (start, stop) autocorrelation indices


def estimate_cfo(r: SampleBuffer, lag: int, plateau: tuple[int, int]) -> CfoEstimate:
    """Estimate the offset from the mean autocorrelation over ``plateau``.

    ``plateau`` is a half-open (start, stop) range of autocorrelation
    indices; averaging the complex values before taking the phase is
    equivalent to a single-point read in the clean case and lower-variance
    under noise. Raises EstimationError when the mean has no phase (no
    coherent short training present).
    """
    x = r.samples
    start, stop = int(plateau[0]), int(plateau[1])
    if stop <= start:
        raise SizingError(f"plateau ({start}, {stop}) is empty")
    # R[n] needs samples n .. n+2*lag-1
    if start < 0 or stop - 1 + 2 * lag > len(x):
        raise SizingError(f"plateau ({start}, {stop}) with lag {lag} exceeds the buffer")
    segment = x[start: stop - 1 + 2 * lag]
    mean_r = autocorrelation(segment, lag, lag).mean()
    if abs(mean_r) == 0.0:
        raise EstimationError("autocorrelation over the plateau has zero magnitude")
    phase = float(np.angle(mean_r))
    sample_period = 1.0 / r.sample_rate
    delta_f = -phase / (2 * np.pi * lag * sample_period)
    return CfoEstimate(delta_f_hz=delta_f, phase_rad=phase, plateau_span=(start, stop))


def correct_cfo(r: SampleBuffer, delta_f_hz: float) -> SampleBuffer:
    """De-rotate: out[n] = in[n] * exp(-j*2*pi*delta_f_hz*n*Ts)."""
    return apply_cfo(r, -delta_f_hz)


def plateau_from_event(event: FrameEvent, lag: int = 16) -> tuple[int, int]:
    """Shrink a detection run to indices whose windows lie inside the STS.

    The detection metric stays above threshold a little past the short
    training because partially overlapping windows still correlate; those
    trailing points mix in guard-interval content and would bias the phase
    average, so the right edge is pulled in by one full correlation span
    (``2*lag - 1`` samples).
    """
    stop = event.end_index - (2 * lag - 1) + 1
    start = event.start_index
    return start, max(stop, start + 1)
