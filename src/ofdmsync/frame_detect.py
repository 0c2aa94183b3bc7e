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

One kernel computes R, P and the metric for :func:`compute_metrics`,
:func:`detect_frames`, :func:`first_events` and :class:`StreamingFrameDetector`.
It writes every array into a workspace carved from one arena and allocates
nothing per call. A detector keeps its workspace, which holds at most
``BLOCK_LEN + lag + window - 1`` samples, so a chunk of any length runs in
bounded memory; a chunk of any numeric dtype is converted to complex128
while it is copied in. While no run is open and its held samples give fewer
than ``min_plateau`` metric outputs, a detector holds them without running
the kernel: an event needs ``min_plateau`` outputs above the threshold and
one below, so none can close among them and each call's events stay exact.
Its ``flush`` runs the kernel over the outputs still held before closing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BLOCK_LEN, SampleBuffer, as_samples
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


def sliding_sum(values: np.ndarray, window: int, out=None) -> np.ndarray:
    """Moving sum over ``window`` entries, each added in one fixed tree order.

    Pairwise passes build sums of 1, 2, 4, ... entries; each output adds those
    its window's binary digits select, so it depends only on its own entries.
    The sums go into ``out`` when given. The passes run in ``values`` itself,
    which they overwrite: a pass writes entry i from entries i and i + width,
    behind every entry it has still to read, so numpy needs no copy.
    """
    values = np.asarray(values)
    if window < 1:
        raise SizingError("window must be positive")
    if len(values) < window:
        raise SizingError(f"need at least {window} values, got {len(values)}")
    n_out = len(values) - window + 1
    if out is None:
        out = np.empty(n_out, values.dtype)
    sums = values
    offset, width = 0, 1  # sums[i] = sum of values[i:i + width]
    while True:
        if window & width:
            if offset:
                out += sums[offset:offset + n_out]
            elif sums is not out:
                out[...] = sums[:n_out]
            offset += width
        if 2 * width > window:
            return out
        head = sums[:-width]
        if window == 2 * width:  # a power-of-two window's last pass is its only part
            sums = np.add(head, sums[width:], out=out)
        else:
            head += sums[width:]
            sums = head
        width *= 2


def autocorrelation(r, lag: int = 16, window: int = 16) -> np.ndarray:
    """R[n] = sum_{m<window} r[n+m] * conj(r[n+m+lag]) for every valid n."""
    x = as_samples(r)
    _require_window(x, lag, window)
    return _correlate(x, lag, window)


def _require_window(x: np.ndarray, lag: int, window: int) -> None:
    if len(x) < lag + window:
        raise SizingError(f"buffer of {len(x)} samples is shorter than lag+window={lag + window}")


def _correlate(x, lag: int, window: int, out=None, scratch=(None, None)) -> np.ndarray:
    """The window sums of x[n] * conj(x[n + lag]).

    ``scratch``, two complex arrays of ``len(x) - lag`` entries, takes the
    conjugates and then the products instead of new arrays.
    """
    n = len(x) - lag
    conj, products = scratch
    # np.multiply, not `*`, which may compute `a * temporary` in the temporary
    # with the operands swapped; and never in place, which numpy may round
    # differently (seen for one sample): either can change the last bit
    products = np.multiply(x[:n], np.conjugate(x[lag:], out=conj), out=products)
    return sliding_sum(products, window, out)


def _kernel_len(n_samples: int, cfg: FrameDetectConfig) -> int:
    """complex128 entries :func:`_metric_kernel` takes from its arena for ``n_samples`` samples."""
    n = n_samples - cfg.lag
    return 2 * n + (5 * (n - cfg.window + 1) + 1) // 2


def _metric_kernel(x: np.ndarray, cfg: FrameDetectConfig, arena: np.ndarray):
    """(numerator, p_squared, metric, top) of ``x``, and the metric's max.

    ``len(x) >= lag + window``, and ``arena`` is a complex128 array of at
    least ``_kernel_len(len(x), cfg)`` entries. The kernel carves its arrays
    out of it: the conjugates (whose float view later holds the powers), the
    lag products, then, as floats, R, p_squared (which holds P until it is
    squared), numerator and metric. Every numpy call writes into one of them,
    so the kernel allocates nothing the size of ``x``. The bits are those of
    ``autocorrelation(x) / window``, ``sliding_sum(abs(x[lag:])**2, window) /
    window`` and so on. The returned arrays are views into ``arena``; ``top``
    is NaN when any metric value is.
    """
    lag, window = cfg.lag, cfg.window
    n = len(x) - lag
    k = n - window + 1
    floats = arena.view(np.float64)
    scratch, R = (arena[:n], arena[n:2 * n]), arena[2 * n:2 * n + k]
    R_floats, powers = floats[4 * n:4 * n + 2 * k], floats[:n]
    P = p_squared = floats[4 * n + 2 * k:4 * n + 3 * k]
    numerator, metric = floats[4 * n + 3 * k:4 * n + 4 * k], floats[4 * n + 4 * k:4 * n + 5 * k]
    _correlate(x, lag, window, R, scratch)
    np.multiply(R_floats, 1.0 / window, out=R_floats)
    np.square(np.abs(x[lag:], out=powers), out=powers)
    sliding_sum(powers, window, P)
    np.divide(P, float(window), out=P)  # a float converts faster than an int
    np.square(P, out=p_squared)
    top = _metric(R, cfg.metric_mode, p_squared, numerator, metric)
    if not math.isfinite(top):
        # numpy divides a complex by a real w with Smith's algorithm at ratio 0,
        # ((re + im*0) * (1/w), (im - re*0) * (1/w)): the multiply above up to
        # signed zeros while R is finite, but NaN in a part once the other is
        # not. A finite metric means a finite R; otherwise divide.
        _correlate(x, lag, window, R, scratch)
        np.divide(R, window, out=R)
        top = _metric(R, cfg.metric_mode, p_squared, numerator, metric)
    return numerator, p_squared, metric, top


def _metric(R, mode: str, p_squared, numerator, metric) -> float:
    """Fill numerator and metric from R and p_squared; return the metric's max."""
    if mode == "exact":
        np.add(np.square(R.real, out=numerator), np.square(R.imag, out=metric), out=numerator)
    else:
        np.add(np.abs(R.real, out=numerator), np.abs(R.imag, out=metric), out=numerator)
    np.divide(numerator, np.add(p_squared, _EPS, out=metric), out=metric)
    return np.maximum.reduce(metric)


def compute_metrics(r, cfg: FrameDetectConfig = FrameDetectConfig()):
    """(numerator, p_squared, metric) arrays for a buffer; index n matches the buffer index.

    With R and P the window-averaged correlation and power, numerator is
    |R|^2 in ``exact`` mode and |Re R| + |Im R| in ``l1_approx`` mode,
    p_squared is P^2, and metric = numerator / (p_squared + 1e-30). The
    kernel runs over steps of ``BLOCK_LEN`` outputs in one workspace, so
    beyond the three arrays it returns, memory stays bounded.
    """
    x = as_samples(r)
    _require_window(x, cfg.lag, cfg.window)
    context = cfg.lag + cfg.window - 1
    out = np.empty((3, len(x) - context))
    arena = np.empty(_kernel_len(min(len(x), BLOCK_LEN + context), cfg), np.complex128)
    for at in range(0, out.shape[1], BLOCK_LEN):
        for row, values in zip(out, _metric_kernel(x[at:at + BLOCK_LEN + context], cfg, arena)[:3]):
            row[at:at + len(values)] = values
    return tuple(out)


def detect_frames(r, cfg: FrameDetectConfig = FrameDetectConfig()) -> list[FrameEvent]:
    """All maximal above-threshold runs of length >= min_plateau.

    One :class:`StreamingFrameDetector` takes the whole buffer, in bounded
    memory. A buffer too short to hold even one correlation window yields no
    events.
    """
    detector = StreamingFrameDetector(cfg)
    return detector.process(r) + detector.flush()


def first_events(rows: np.ndarray, cfg: FrameDetectConfig = FrameDetectConfig()
                 ) -> list[FrameEvent | None]:
    """The first event :func:`detect_frames` reports for each row of ``rows``, or None.

    ``rows`` is a C-contiguous 2-D complex128 array of equal-length buffers
    laid end to end. The kernel runs over them as over one stream, in steps
    of ``BLOCK_LEN`` outputs in one workspace, as :func:`compute_metrics`
    does. The last ``lag + window - 1`` metric indices of a row have windows
    that reach into the next row; they are set to 0, so no run crosses from
    one row into the next. Every other metric value depends only on its own
    row's samples, so it has the bits of that row's own pass. Events index
    their own row.
    """
    n_rows, row_len = rows.shape
    context = cfg.lag + cfg.window - 1
    first: list[FrameEvent | None] = [None] * n_rows
    if row_len <= context:
        return first
    flat = rows.reshape(-1)
    arena = np.empty(_kernel_len(min(len(flat), BLOCK_LEN + context), cfg), np.complex128)
    detector = StreamingFrameDetector(cfg)
    events = []
    for at in range(0, len(flat) - context, BLOCK_LEN):
        metric = _metric_kernel(flat[at:at + BLOCK_LEN + context], cfg, arena)[2]
        # the straddling indices of the rows this step reaches
        for cut in range(at - at % row_len + row_len - context, at + len(metric), row_len):
            metric[max(cut - at, 0):cut - at + context] = 0
        detector._base = at
        events += detector._runs(metric)
    for event in reversed(events + detector.flush()):
        row, start = divmod(event.start_index, row_len)
        first[row] = FrameEvent(start, event.end_index - row * row_len, event.peak_metric)
    return first


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
    after the last chunk. Each call returns exactly the events that a
    detector running the metric kernel over every sample it has been fed
    would return for it, and the concatenated list equals what
    :func:`detect_frames` reports on the whole stream. Instances are
    single-owner: hand one between threads, never share it.

    The detector owns one workspace, a complex128 arena: the held samples
    (the ``lag + window - 1`` samples of context kept from the last kernel
    step, then those fed since), then the metric kernel's arrays. A chunk of
    any numeric dtype, or a :class:`SampleBuffer`, is converted to complex128
    while it is copied in, so no converted copy of the chunk is made. The
    workspace grows with the chunks it is fed, up to ``BLOCK_LEN + lag +
    window - 1`` samples and no further, and a step fills at most what is
    left of it, so memory stays bounded whatever the chunk length.

    While no run is open, the held samples give fewer than ``min_plateau``
    metric outputs and the workspace has room, the kernel does not run and
    the samples stay held. An event is ``min_plateau`` outputs above the threshold and
    then one below it, so none can close among those outputs, and deferring
    them changes no call's events: every output keeps its bits whatever step
    computes it. :meth:`flush` runs the kernel over any held outputs before
    it closes the open run.
    """

    def __init__(self, cfg: FrameDetectConfig = FrameDetectConfig()):
        self.cfg = cfg
        self._size = 0  # samples the workspace may hold
        self._samples = self._kernel_arena = None  # the workspace's two parts
        self._held = 0  # samples at the front of _samples
        self._base = 0  # absolute index of _samples[0]
        self._run = None  # (start, end, peak) of a run still open at the last step's end

    def process(self, chunk) -> list[FrameEvent]:
        x = chunk.samples if isinstance(chunk, SampleBuffer) else np.asarray(chunk).reshape(-1)
        cfg = self.cfg
        context = cfg.lag + cfg.window - 1
        cap = BLOCK_LEN + context
        events: list[FrameEvent] = []
        at = 0
        while at < len(x):
            piece = x[at:at + cap - self._held]
            at += len(piece)
            end = self._held + len(piece)
            if end > self._size:
                self._grow(end)
            self._samples[self._held:end] = piece
            self._held = end
            # an open run implies held context, so the kernel has an output
            if self._run is not None or end - context >= cfg.min_plateau or end == cap:
                events += self._step()
        return events

    def _step(self) -> list[FrameEvent]:
        """Run the kernel over the held samples; keep ``lag + window - 1`` of them as context."""
        end = self._held
        samples = self._samples[:end]
        _, _, metric, top = _metric_kernel(samples, self.cfg, self._kernel_arena)
        events = []
        if self._run is not None or not top <= self.cfg.threshold:  # NaN top: look anyway
            events = self._runs(metric)
        consumed = len(metric)
        samples[:end - consumed] = samples[consumed:]
        self._held = end - consumed
        self._base += consumed
        return events

    def _grow(self, n_samples: int) -> None:
        """Make the workspace hold ``n_samples`` samples, keeping the held ones."""
        cfg = self.cfg
        if self._samples is None:
            size = max(n_samples, cfg.lag + cfg.window)
        else:
            size = min(max(n_samples, 2 * self._size), BLOCK_LEN + cfg.lag + cfg.window - 1)
        arena = np.empty(size + _kernel_len(size, cfg), np.complex128)
        if self._held:
            arena[:self._held] = self._samples[:self._held]
        self._size, self._samples, self._kernel_arena = size, arena[:size], arena[size:]

    def _runs(self, metric: np.ndarray) -> list[FrameEvent]:
        """Extend, close and open runs over the constant stretches of metric > threshold."""
        mask = metric > self.cfg.threshold
        # np.diff + np.flatnonzero cost several times more on short chunks
        starts = [0, *[c + 1 for c in (mask[1:] != mask[:-1]).nonzero()[0].tolist()]]
        peaks = np.maximum.reduceat(metric, starts).tolist()  # the max of every stretch
        bounds = starts + [len(mask)]
        events: list[FrameEvent] = []
        if self._run is not None and not mask[0]:
            events += self._close()
        first = 0 if mask[0] else 1  # stretches alternate, so every other one is above
        for a, b, peak in zip(bounds[first::2], bounds[first + 1::2], peaks[first::2]):
            if b - a < self.cfg.min_plateau and 0 < a and b < len(mask):
                continue  # no run goes on into it or stays open past it: too short for an event
            start = self._base + a
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
        """Run the kernel over any held outputs, then close any run still open; resets run state."""
        events = self._step() if self._held > self.cfg.lag + self.cfg.window - 1 else []
        return events + ([] if self._run is None else self._close())
