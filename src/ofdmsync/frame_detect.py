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
gives the same bits. The kernel divides both window sums by the window
length, the software image of a CIC chain acting as a moving-average
filter; the exact metric is indifferent to that scaling, while the l1
approximation needs it to hold at its unit-power operating point.

One kernel computes R, P and the metric in the workspace that a
:class:`StreamingFrameDetector` allocates once, in steps of at most
``BLOCK_LEN`` outputs. A step of at most ``_ONE_TREE_MAX`` lag products sums
them and the powers in one tree, a longer one in two trees; the bits are the
same. :func:`detect_blocks` drives that detector, and every metric and event
the module reports comes from its steps, so any input runs in bounded memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (BLOCK_LEN, MAX_GENERATED_SAMPLES, SampleBuffer, as_int, as_positive, as_real,
                   as_samples, of_type, shown)
from .errors import ConfigError, SizingError

METRIC_MODES = ("exact", "l1_approx")
_EPS = np.float64(1e-30)  # keeps silence at metric 0 instead of 0/0
_FLOAT64 = np.dtype(np.float64)
_ONE_TREE_MAX = BLOCK_LEN // 8  # the most lag products a kernel step sums in one tree


@dataclass(frozen=True)
class FrameDetectConfig:
    lag: int = 16
    window: int = 16
    threshold: float = 0.5
    min_plateau: int = 32
    metric_mode: str = "exact"

    def __post_init__(self):
        for name in ("lag", "window", "min_plateau"):
            object.__setattr__(self, name, as_int(name, getattr(self, name),
                                                  (1, MAX_GENERATED_SAMPLES)))
        as_real("threshold", self.threshold, "be a real number in (0, 1)", lambda t: 0 < t < 1)
        if self.metric_mode not in METRIC_MODES:
            raise ConfigError(f"metric_mode must be one of {METRIC_MODES}")


class FrameEvent(NamedTuple):
    """One maximal above-threshold run: inclusive sample bounds and peak metric.

    An immutable record, as a tuple is, and so equal to a plain tuple of the
    same values.
    """

    start_index: int
    end_index: int
    peak_metric: float


def sliding_sum(values: np.ndarray, window: int, out=None) -> np.ndarray:
    """Moving sum over ``window`` entries, each added in one fixed tree order.

    The order is :func:`_tree_plan`'s: each output depends only on its own
    entries, so any chunking gives the same bits. The sums go into ``out``
    when given. The pairwise passes run in ``values`` itself, which they
    overwrite.
    """
    values = np.asarray(values)
    window = as_positive("window", window)
    if len(values) < window:
        raise SizingError(f"need at least {shown(window)} values, got {len(values)}")
    if out is None:
        out = np.empty(len(values) - window + 1, values.dtype)
    return _tree_sums(values, window, out)


def _tree_sums(values: np.ndarray, window: int, out: np.ndarray) -> np.ndarray:
    """Run :func:`_tree_plan`'s steps: ``values``' window sums into ``out``."""
    copy, steps = _tree_plan(window)
    if copy is not None:
        out[...] = values[copy]
    for a, b, into_out in steps:
        head = out if a is None else values[a]
        np.add(head, values[b], out if into_out else head)
    return out


@functools.lru_cache(maxsize=128)
def _tree_plan(window: int):
    """The one tree order of ``window``-entry sums, as ``(copy, steps)`` of slices.

    Level w holds at index i the sum of ``values[i:i + w]``. A pairwise pass
    makes level 2w from level w in ``values`` itself, entry i from entries i
    and i + w: it writes behind every entry it has still to read, so numpy
    needs no copy. Output i adds the levels that its window's binary digits
    select, lowest first, each at the offset that the digits below it sum to.

    An odd window's sums start as a copy of level 1, ``values[copy]``; an
    even one's ``copy`` is None. Each step ``(a, b, into_out)`` adds
    ``values[b]`` to ``values[a]``, or to the sums when ``a`` is None, and
    writes the result into the sums when ``into_out``, in place otherwise.
    An even window's lowest digit has the pass that makes its level run
    into the sums, for their first outputs, before it runs in place: the
    same additions as a copy of the level. Stops count from the end of
    ``values``, so one plan serves every length.
    """
    last = window - 1  # the entries past the first output's window
    copy = slice(0, -last or None) if window & 1 else None
    steps = []
    offset, width = window & 1, 1  # offset: where the next digit's level is read
    while 2 * width <= window:
        level = 2 * width
        digit = window & level
        if digit and not offset:
            steps.append((slice(0, -last or None), slice(width, -(last - width) or None), True))
        if level < window:  # a power-of-two window's last level is its sums alone
            steps.append((slice(0, -(level - 1)), slice(width, -(width - 1) or None), False))
        if digit and offset:
            steps.append((None, slice(offset, -(last - offset)), True))
        offset += digit
        width = level
    return copy, tuple(steps)


def autocorrelation(r, lag: int = FrameDetectConfig.lag,
                    window: int = FrameDetectConfig.window) -> np.ndarray:
    """R[n] = sum_{m<window} r[n+m] * conj(r[n+m+lag]) for every valid n."""
    x = as_samples(r)
    lag, window = as_positive("lag", lag), as_positive("window", window)
    _require_window(x, lag, window)
    return _correlate(x, lag, window)


def _require_window(x: np.ndarray, lag: int, window: int) -> None:
    if len(x) < lag + window:
        raise SizingError(
            f"buffer of {len(x)} samples is shorter than lag+window={shown(lag + window)}")


def _lag_products(x, lag: int, conj=None, out=None) -> np.ndarray:
    """x[n] * conj(x[n + lag]) for n < len(x) - lag, with the conjugates in ``conj``."""
    n = len(x) - lag
    # np.multiply, not `*`, which may compute `a * temporary` in the temporary
    # with the operands swapped; and never in place, which numpy may round
    # differently (seen for one sample): either can change the last bit
    return np.multiply(x[:n], np.conjugate(x[lag:], conj), out)


def _correlate(x, lag: int, window: int, out=None, scratch=(None, None)) -> np.ndarray:
    """The window sums of x[n] * conj(x[n + lag]).

    ``scratch``, two complex arrays of ``len(x) - lag`` entries, takes the
    conjugates and then the products instead of new arrays.
    """
    return sliding_sum(_lag_products(x, lag, *scratch), window, out)


def _metric_kernel(x: np.ndarray, cfg: FrameDetectConfig, arena: np.ndarray):
    """(numerator, p_squared, metric, top) of ``x``, and the metric's max.

    ``len(x) >= lag + window``, with ``n = len(x) - lag`` lag products and
    ``k = n - window + 1`` outputs. ``arena`` is a complex128 array of at
    least ``2 * n + ceil(5 * k / 2)`` entries, or ``4 * n + ceil(5 * k / 2)``
    when ``n <= _ONE_TREE_MAX``; a :class:`StreamingFrameDetector`'s arena,
    sized for a full step, holds either. The kernel carves its arrays out of
    it. Every numpy call writes into one of them, so the kernel allocates
    nothing the size of ``x``. The window sums are :func:`_tree_sums`, as
    :func:`sliding_sum`'s are, and unless a metric value is not finite, the
    Python functions the kernel calls are it and :func:`_lag_products`: the
    rest of a step is a fixed run of numpy calls. The bits are those of
    ``autocorrelation(x) / window``, ``sliding_sum(abs(x[lag:])**2, window)
    / window`` and so on. The returned arrays are views into ``arena``;
    ``top`` is NaN when any metric value is.

    A step of more than ``_ONE_TREE_MAX`` lag products sums them and the
    powers in two trees. Its arrays are the conjugates (whose float view
    then holds the powers), the lag products, then, as floats, R, p_squared
    (which holds P until it is squared), numerator and metric.

    A shorter step sums both in one tree. Its arrays are the conjugates
    (whose float view then holds the magnitudes), the lag products followed
    by the powers as complex numbers with zero imaginary parts, their window
    sums, then, as floats, p_squared, numerator and metric. R is the first k
    sums and P the real parts of the k from index n; the ``window - 1``
    between them straddle the two halves and are never read. Complex
    addition adds real and imaginary parts apart, so R and P keep the two
    trees' bits. At the default window the step makes 16 numpy calls instead
    of 20, which is most of a short step's time, but the tree also adds the
    powers' zero imaginary parts, and writing the powers casts them. An
    interleaved A/B of the kernel alone (2-CPU Xeon, numpy 2.4.6, window 16)
    put one tree at 0.86 of two trees' time at 63 lag products, 0.92 at 367,
    1.00 at 1024, 1.07 at 2048 and 1.11 at 4096: hence ``_ONE_TREE_MAX``. A
    straddling sum adds at most ``window`` products and powers, so it stays
    finite and warns of nothing while each is finite and below 1e305 /
    window; a finite P^2 ensures that unless the step's first ``lag``
    samples are far louder than the rest.

    R's floats and P are scaled by one multiply by ``1 / window`` for a
    power-of-two window (in one tree, with the straddling sums between
    them): that reciprocal is exact, so the multiply and the divide by
    ``window`` each round the same real number once and give the same bits,
    subnormals and overflow included. Another window's reciprocal is
    rounded, so R is multiplied by it (which is how numpy divides a complex
    by a real) and P is divided.
    """
    lag, window = cfg.lag, cfg.window
    n = len(x) - lag
    k = n - window + 1
    floats = arena.view(_FLOAT64)
    if n <= _ONE_TREE_MAX:
        conj, values, sums = arena[:n], arena[n:3 * n], arena[3 * n:4 * n + k]
        products, R, P = values[:n], sums[:k], sums[n:].real
        scaled, at = floats[6 * n:8 * n + 2 * k], 8 * n + 2 * k  # scaled: all the sums' floats
        _lag_products(x, lag, conj, products)
        np.square(np.abs(x[lag:], floats[:n]), values[n:])
        _tree_sums(values, window, sums)
    else:
        conj, products, R = arena[:n], arena[n:2 * n], arena[2 * n:2 * n + k]
        powers, scaled, at = floats[:n], floats[4 * n:4 * n + 3 * k], 4 * n + 2 * k
        P = floats[at:at + k]
        _lag_products(x, lag, conj, products)
        np.square(np.abs(x[lag:], powers), powers)
        _tree_sums(products, window, R)
        _tree_sums(powers, window, P)
    p_squared, numerator = floats[at:at + k], floats[at + k:at + 2 * k]
    metric = floats[at + 2 * k:at + 3 * k]
    # numpy scalars, which numpy converts faster than Python numbers
    if window & (window - 1):
        R_floats = scaled[:2 * k]
        np.multiply(R_floats, np.float64(1.0 / window), R_floats)
        np.divide(P, np.float64(window), P)
    else:
        np.multiply(scaled, np.float64(1.0 / window), scaled)
    np.square(P, p_squared)
    exact = cfg.metric_mode == "exact"
    for divided in (False, True):
        if exact:
            np.add(np.square(R.real, numerator), np.square(R.imag, metric), numerator)
        else:
            np.add(np.abs(R.real, numerator), np.abs(R.imag, metric), numerator)
        np.divide(numerator, np.add(p_squared, _EPS, metric), metric)
        top = metric[metric.argmax()]  # argmax finds the first NaN too, and costs less
        if divided or math.isfinite(top):
            break
        # numpy divides a complex by a real w with Smith's algorithm at ratio 0,
        # ((re + im*0) * (1/w), (im - re*0) * (1/w)): the multiply above up to
        # signed zeros while R is finite, but NaN in a part once the other is
        # not. A finite metric means a finite R; otherwise divide.
        _correlate(x, lag, window, R, (conj, products))
        np.divide(R, window, out=R)
    return numerator, p_squared, metric, top


def detect_frames(r, cfg: FrameDetectConfig = FrameDetectConfig()) -> list[FrameEvent]:
    """All maximal above-threshold runs of length >= min_plateau.

    :func:`detect_blocks` of the one buffer, in bounded memory. A buffer too
    short to hold even one correlation window yields no events.
    """
    return detect_blocks([r], of_type("detect_frames", cfg, FrameDetectConfig))


def first_events(rows: np.ndarray,
                 cfg: FrameDetectConfig = FrameDetectConfig()) -> list[FrameEvent | None]:
    """The first event :func:`detect_frames` reports for each row of ``rows``, or None.

    ``rows`` is a 2-D array of equal-length buffers, which :func:`detect_blocks`
    takes end to end as one stream. The last ``lag + window - 1`` metric
    indices of a row have windows that reach into the next row; each step
    sets them to 0, so no run crosses from one row into the next. Every other
    metric value depends only on its own row's samples, so it has the bits
    of that row's own pass. Events index their own row.
    """
    n_rows, row_len = rows.shape
    context = cfg.lag + cfg.window - 1

    def cut(n, numerator, p_squared, metric):
        # Metric index i straddles two rows when i % row_len >= row_len - context.
        # at: the step's first index that starts a straddle; the straddle before
        # it may reach into the step, and the last may run past its end.
        at = (row_len - context - n) % row_len
        metric[:max(at + context - row_len, 0)] = 0
        whole = max((len(metric) - at) // row_len, 0)  # rows of the step from at on
        metric[at:at + whole * row_len].reshape(whole, row_len)[:, :context] = 0
        metric[at + whole * row_len:at + whole * row_len + context] = 0

    first: list[FrameEvent | None] = [None] * n_rows
    for event in detect_blocks([rows.reshape(-1)], cfg, cut):
        row, start = divmod(event.start_index, row_len)
        if first[row] is None:
            first[row] = FrameEvent(start, event.end_index - row * row_len, event.peak_metric)
    return first


def detect_blocks(blocks, cfg: FrameDetectConfig = FrameDetectConfig(),
                  on_step=None) -> list[FrameEvent]:
    """The events of the stream that ``blocks`` (sample arrays, in order) make up.

    One :class:`StreamingFrameDetector` takes every block, so the events
    equal those of the concatenated stream. They are returned only after the
    last block, so an error raised while producing a block leaves none.

    ``on_step``, when given, is called with ``(n, numerator, p_squared,
    metric)`` of each kernel step, in order. With R and P the
    window-averaged correlation and power, numerator is |R|^2 in ``exact``
    mode and |Re R| + |Im R| in ``l1_approx`` mode, p_squared is P^2, and
    metric = numerator / (p_squared + 1e-30). The step's arrays start at
    metric index ``n``, cover the stream's metric outputs once each, and are
    overwritten by the next step. It runs before the step's run scan, and
    the one change it may make is to set entries of ``metric`` to 0, which
    the scan then reads: ``detect --trace`` writes the arrays, and
    :func:`first_events` zeroes the indices that straddle two rows.
    An error raised while producing a block leaves it called on a prefix of
    the steps.
    """
    detector = StreamingFrameDetector(of_type("detect_blocks", cfg, FrameDetectConfig))
    detector._on_step = on_step
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

    The detector owns one workspace, a complex128 arena allocated once, on
    the first chunk: room for ``BLOCK_LEN + lag + window - 1`` held samples
    (the ``lag + window - 1`` samples of context kept from the last kernel
    step, then those fed since), then the metric kernel's two-tree arrays for
    that many samples, which also hold the one-tree arrays of any step of at
    most ``_ONE_TREE_MAX`` lag products. A numeric array of any dtype, or a
    :class:`SampleBuffer`, is converted to complex128 while it is copied in,
    so no converted copy of the chunk is made; any other chunk goes through
    :func:`~ofdmsync.core.as_samples` first. A step holds at most that many
    samples, so memory stays bounded whatever the chunk length.

    The held samples are ``_workspace[_first:_held]``. A step moves
    ``_first`` past the samples whose outputs it gave, so the context stays
    where it is, and the next chunk is copied in behind it. Only a piece
    that would run past the end of the room moves the held samples to the
    front first. Steps depend on the number of held samples alone, not on
    where they lie, so they fall where they would if every step moved its
    context to the front.

    While no run is open, the held samples give fewer than ``min_plateau``
    metric outputs and the workspace has room, the kernel does not run and
    the samples stay held. An event is ``min_plateau`` outputs above the threshold and
    then one below it, so none can close among those outputs, and deferring
    them changes no call's events: every output keeps its bits whatever step
    computes it. :meth:`flush` runs the kernel over any held outputs before
    it closes the open run.

    A step that the kernel does run is not scanned for runs when no run is
    open, its last output is not above the threshold and fewer than
    ``min_plateau`` of its outputs are: no stretch can then reach
    ``min_plateau`` or stay open past the step, so the full scan would
    report nothing and leave no run open.
    """

    def __init__(self, cfg: FrameDetectConfig = FrameDetectConfig()):
        self.cfg = cfg
        context = cfg.lag + cfg.window - 1
        self._size = BLOCK_LEN + context  # samples the workspace holds
        # a step runs once this many samples are held (or a run is open)
        self._step_at = min(context + cfg.min_plateau, self._size)
        self._workspace = None  # the held samples, then from _size on the kernel's arena
        self._arena = None  # _workspace[_size:]
        self._first = 0  # the held samples are _workspace[_first:_held]
        self._held = 0
        self._base = 0  # absolute index of _workspace[_first]
        self._run = None  # (start, end, peak) of a run still open at the last step's end
        self._on_step = None  # detect_blocks' callback: called with each step's base and arrays

    def process(self, chunk) -> list[FrameEvent]:
        x = chunk.samples if isinstance(chunk, SampleBuffer) else chunk
        if not isinstance(x, np.ndarray) or x.dtype.kind not in "biufc":
            x = as_samples(x)  # the workspace takes only numeric arrays
        elif x.ndim != 1:
            x = x.reshape(-1)
        size = self._size
        workspace = self._workspace
        if workspace is None:
            n = size - self.cfg.lag  # the kernel's arena: see _metric_kernel
            workspace = self._workspace = np.empty(
                size + 2 * n + (5 * (n - self.cfg.window + 1) + 1) // 2, np.complex128)
            self._arena = workspace[size:]
        events: list[FrameEvent] = []
        at = 0
        while at < len(x):
            room = size - self._held + self._first
            piece = x if not at and len(x) <= room else x[at:at + room]
            at += len(piece)
            if self._held + len(piece) > size:  # move the held samples to the front
                self._held -= self._first
                workspace[:self._held] = workspace[self._first:self._first + self._held]
                self._first = 0
            end = self._held + len(piece)
            workspace[self._held:end] = piece
            self._held = end
            # an open run implies held context, so the kernel has an output
            if self._run is not None or end - self._first >= self._step_at:
                events += self._step()
        return events

    def _step(self) -> list[FrameEvent]:
        """Run the kernel over the held samples; keep ``lag + window - 1`` of them as context."""
        numerator, p_squared, metric, top = _metric_kernel(
            self._workspace[self._first:self._held], self.cfg, self._arena)
        if self._on_step is not None:
            self._on_step(self._base, numerator, p_squared, metric)
        events = []
        if self._run is not None or not top <= self.cfg.threshold:  # NaN top: look anyway
            events = self._runs(metric, self._base)
        self._first += len(metric)
        self._base += len(metric)
        return events

    def _runs(self, metric: np.ndarray, base: int) -> list[FrameEvent]:
        """Extend, close and open runs over the constant stretches of metric > threshold.

        ``base`` is the absolute index of ``metric[0]``.
        """
        mask = metric > self.cfg.threshold
        if self._run is None and not mask[-1] and np.count_nonzero(mask) < self.cfg.min_plateau:
            return []  # no stretch can reach min_plateau or stay open past the step
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
            start = base + a
            if self._run is not None:  # a == 0: the open run goes on
                start, _, open_peak = self._run
                peak = max(open_peak, peak)
            self._run = (start, base + b - 1, peak)
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
        held = self._held - self._first
        events = self._step() if held > self.cfg.lag + self.cfg.window - 1 else []
        return events + ([] if self._run is None else self._close())
