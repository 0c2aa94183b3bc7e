"""Frame detection by lag-L autocorrelation against received power.

A frame is present while the timing metric M[n] stays above a threshold for
at least ``min_plateau`` consecutive samples. Two metric arithmetics are
provided:

* ``exact``: M[n] = |R[n]|^2 / P[n]^2, thresholded at 0.5. Gain-invariant.
* ``l1_approx``: the shift-register-friendly variant that replaces |R|^2 by
  |Re R| + |Im R| and tests it against 0.5 * P^2. Implemented here as
  (|Re R| + |Im R|) / P^2 thresholded at 0.5, which is the same comparison
  rearranged. Because the left side scales as gain^2 and the right as
  gain^4, its decisions are only meaningful near unit signal power.

Every R, P and M value depends only on its own samples, so any chunking
gives the same bits. :func:`compute_metrics` divides both window sums by the
window length, the software image of a CIC chain acting as a moving-average
filter; the exact metric is indifferent to that scaling, while the l1
approximation needs it to hold at its unit-power operating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BLOCK_LEN, as_samples
from .errors import ConfigError, SizingError

METRIC_MODES = ("exact", "l1_approx")
_EPS = 1e-30  # keeps silence at metric 0 instead of 0/0


@dataclass(frozen=True)
class FrameDetectConfig:
    lag: int = 16
    window: int = 16
    threshold: float = 0.5
    min_plateau: int = 32
    metric_mode: str = "exact"

    def __post_init__(self):
        if self.lag < 1 or self.window < 1:
            raise ConfigError("lag and window must be positive")
        if not 0 < self.threshold < 1:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.min_plateau < 1:
            raise ConfigError("min_plateau must be positive")
        if self.metric_mode not in METRIC_MODES:
            raise ConfigError(f"metric_mode must be one of {METRIC_MODES}")


@dataclass(frozen=True)
class FrameEvent:
    """One maximal above-threshold run: inclusive sample bounds and peak metric."""

    start_index: int
    end_index: int
    peak_metric: float


def sliding_sum(values: np.ndarray, window: int) -> np.ndarray:
    """Moving sum over ``window`` entries, each added in one fixed tree order.

    Pairwise passes build sums of 1, 2, 4, ... entries; each output adds those
    its window's binary digits select, so it depends only on its own entries.
    """
    values = np.asarray(values)
    if window < 1:
        raise SizingError("window must be positive")
    if len(values) < window:
        raise SizingError(f"need at least {window} values, got {len(values)}")
    n_out = len(values) - window + 1
    out, offset, sums, width = None, 0, values, 1  # sums[i] = sum of values[i:i + width]
    while True:
        if window & width:
            part = sums[offset:offset + n_out]
            out = part if out is None else out + part
            offset += width
        if 2 * width > window:
            return out
        sums = sums[:-width] + sums[width:]
        width *= 2


def autocorrelation(r, lag: int = 16, window: int = 16) -> np.ndarray:
    """R[n] = sum_{m<window} r[n+m] * conj(r[n+m+lag]) for every valid n."""
    x = as_samples(r)
    if len(x) < lag + window:
        raise SizingError(f"buffer of {len(x)} samples is shorter than lag+window={lag + window}")
    # not `*`: numpy may compute `a * temporary` in place, operands swapped, last bit changed
    products = np.multiply(x[: len(x) - lag], np.conj(x[lag:]))
    return sliding_sum(products, window)


def compute_metrics(r, cfg: FrameDetectConfig = FrameDetectConfig()):
    """(numerator, p_squared, metric) arrays for a buffer; index n matches the buffer index.

    With R and P the window-averaged correlation and power, numerator is
    |R|^2 in ``exact`` mode and |Re R| + |Im R| in ``l1_approx`` mode,
    p_squared is P^2, and metric = numerator / (p_squared + 1e-30).
    """
    x = as_samples(r)
    R = autocorrelation(x, cfg.lag, cfg.window) / cfg.window
    P = sliding_sum(np.abs(x[cfg.lag:]) ** 2, cfg.window) / cfg.window
    if cfg.metric_mode == "exact":
        numerator = R.real**2 + R.imag**2
    else:
        numerator = np.abs(R.real) + np.abs(R.imag)
    p_squared = P**2
    return numerator, p_squared, numerator / (p_squared + _EPS)


def detect_frames(r, cfg: FrameDetectConfig = FrameDetectConfig()) -> list[FrameEvent]:
    """All maximal above-threshold runs of length >= min_plateau.

    The buffer goes through a :class:`StreamingFrameDetector` in blocks of
    ``BLOCK_LEN`` samples, bounding memory. A buffer too short to hold even
    one correlation window yields no events.
    """
    x = as_samples(r)
    return detect_blocks((x[at:at + BLOCK_LEN] for at in range(0, len(x), BLOCK_LEN)), cfg)


def detect_blocks(blocks, cfg: FrameDetectConfig = FrameDetectConfig()) -> list[FrameEvent]:
    """The events of the stream that ``blocks`` (sample arrays, in order) make up.

    One :class:`StreamingFrameDetector` takes every block, so the events
    equal those of the concatenated stream. They are returned only after the
    last block, so an error raised while producing a block leaves none.
    """
    detector = StreamingFrameDetector(cfg)
    events = []
    for block in blocks:
        events += detector.process(block)
    return events + detector.flush()


class StreamingFrameDetector:
    """Chunk-by-chunk frame detector holding private delay-line state.

    Feed arbitrary sample chunks through :meth:`process`; call :meth:`flush`
    after the last chunk. The concatenated event list equals what
    :func:`detect_frames` reports on the whole stream. Instances are
    single-owner: hand one between threads, never share it.
    """

    def __init__(self, cfg: FrameDetectConfig = FrameDetectConfig()):
        self.cfg = cfg
        self._pending = np.zeros(0, np.complex128)
        self._base = 0  # absolute index of _pending[0]
        self._run = None  # (start, end, peak) of a run still open at the last chunk's end

    def process(self, chunk) -> list[FrameEvent]:
        x = np.concatenate([self._pending, as_samples(chunk)])
        if len(x) < self.cfg.lag + self.cfg.window:
            self._pending = x
            return []
        _, _, metric = compute_metrics(x, self.cfg)
        events = self._runs(metric)
        consumed = len(metric)  # keep lag+window-1 samples of context for the next chunk
        self._pending = x[consumed:].copy()
        self._base += consumed
        return events

    def _runs(self, metric: np.ndarray) -> list[FrameEvent]:
        """Extend, close and open runs over the constant stretches of metric > threshold."""
        mask = metric > self.cfg.threshold
        # np.diff + np.flatnonzero cost several times more on short chunks
        cuts = (mask[1:] != mask[:-1]).nonzero()[0].tolist()
        bounds = [0, *[c + 1 for c in cuts], len(mask)]
        events: list[FrameEvent] = []
        if self._run is not None and not mask[0]:
            events += self._close()
        first = 0 if mask[0] else 1  # stretches alternate, so every other one is above
        for a, b in zip(bounds[first::2], bounds[first + 1::2]):
            start, peak = self._base + a, metric[a:b].max()
            if self._run is not None:  # a == 0: the open run goes on
                start, _, open_peak = self._run
                peak = max(open_peak, peak)
            self._run = (start, self._base + b - 1, peak)
            if b < len(mask):
                events += self._close()
        return events

    def _close(self) -> list[FrameEvent]:
        start, end, peak = self._run
        self._run = None
        if end - start + 1 < self.cfg.min_plateau:
            return []
        return [FrameEvent(start, end, float(peak))]

    def flush(self) -> list[FrameEvent]:
        """Close any run still open at end of stream; resets run state."""
        return [] if self._run is None else self._close()
