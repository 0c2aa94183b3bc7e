"""Monte Carlo evaluation of the synchronizer stages.

Runs N seeded trials of preamble -> channel -> detector and collects the
per-trial detected values (timing positions in samples, offsets in Hz).
The reports give, per stage, the trial count, population variance and
failure count (``summary.csv``), the values by trial, and their histogram.
They are written as CSV so the histograms and variance tables can be
reproduced by any plotting tool.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

# detect_frames and estimate_cfo are the per-trial forms of the block stages.
# run_trials no longer calls them; bench/spans.py still traces them under
# these names, and bench/test_bench.py requires each traced name to exist.
from .cfo import estimate_cfo, estimate_cfo_rows, span_within  # noqa: F401
from .channel import ChannelConfig, parse_snr, resolve_taps, seeded_generators, transmit
from .core import (BLOCK_LEN, DEFAULT_SAMPLE_RATE, MAX_GENERATED_SAMPLES, SampleBuffer, all_finite,
                   as_int, config_lines, of_type, shown)
from .errors import ConfigError
from .frame_detect import FrameDetectConfig, FrameEvent, detect_frames, first_events  # noqa: F401
from .iqfile import write_table
from .preamble import PREAMBLE_LEN, STS_LEN, generate_preamble
from .time_sync import TEMPLATE_LEN, TimeSyncConfig, default_search_window, estimate_timing

# Samples per block of trial buffers: as many whole buffers as fit, at least
# one. The frame and cfo stages pay a fixed cost per block (detector set-up,
# kernel steps, run scans, numpy calls); four kernel steps' worth of samples
# cut it to about a quarter of one step's, in a 512 KiB workspace.
TRIAL_BLOCK_LEN = 4 * BLOCK_LEN
# the samples past a metric output's own that the frame detector's windows read
_CONTEXT = FrameDetectConfig.lag + FrameDetectConfig.window - 1

# What run_trials, TrialPlan and emit_report know of one stage:
# - build: plan -> the stage's block function, which maps rows (a 2-D block
#   of trial buffers) to one value per row, None where the trial failed;
# - least_gap: the least gap_len + largest tap delay that its window needs, or None;
# - columns: the extra columns of <stage>_trials.csv, as (header, value of the plan).
_Stage = namedtuple("_Stage", "build least_gap columns")


def _frame(plan: TrialPlan) -> Callable[[np.ndarray], list[float | None]]:
    """frame -> start index of the first detection run, if any.

    A block's first events come from :func:`_first_events`. Its short first
    pass reads each buffer through the samples that give the first ``prefix
    = timing_offset + STS_LEN + (largest tap delay) + 1`` metric outputs,
    one past the latest path's short training. It costs less than one whole
    scan of the block when more than S / N of the buffers settle
    (:func:`_settled`), S the ``prefix + lag + window - 1`` samples it reads
    of each buffer and N the buffer length (243 / 771 at a 30-sample offset
    on etsi_c). So the first block takes it, and each later block takes it
    when more than that share of the block before it settled in the prefix,
    whichever pass scanned it; otherwise every buffer is scanned whole.
    """
    prefix = plan.channel.timing_offset + STS_LEN + plan.channel.taps[-1][0] + 1
    short = True  # whether the next block takes the short pass

    def block(rows):
        nonlocal short
        events = _first_events(rows, prefix if short else None)
        settled = sum(_settled(event, prefix) for event in events)
        short = settled * rows.shape[1] > (prefix + _CONTEXT) * len(rows)
        return [None if event is None else float(event.start_index) for event in events]
    return block


def _first_events(rows: np.ndarray, prefix: int | None) -> list[FrameEvent | None]:
    """:func:`~ofdmsync.frame_detect.first_events` of ``rows``. Given a
    ``prefix``, a first pass takes a contiguous copy of the samples that give
    each row's first ``prefix`` metric outputs; a row's first event from it
    stands when it has :func:`_settled` there, and the other rows are then
    scanned whole, so the events are those of the whole rows either way.
    """
    if prefix is None:
        return first_events(rows)
    first = first_events(rows[:, :prefix + _CONTEXT])
    rescan = [row for row, event in enumerate(first) if not _settled(event, prefix)]
    for row, event in zip(rescan, first_events(rows[rescan]) if rescan else ()):
        first[row] = event
    return first


def _settled(event: FrameEvent | None, prefix: int) -> bool:
    """Whether ``event``, a row's first event from the whole row or from the
    samples that give its first ``prefix`` metric outputs, has settled there:
    the output after its end, which closes its run, is one of those outputs.
    Every output up to that one has the same bits in both passes, so both
    then have the same first event; when one pass's event has not settled,
    neither has the other's. None (no event) never settles.
    """
    return event is not None and event.end_index + 1 < prefix


def _timing(template: str) -> _Stage:
    """time_sts, time_lts -> the short- or long-template timing estimate of
    each row (landmark 160 or 320, plus the delay), searched in the
    template's default window at the plan's timing offset. The template at
    the window's last alignment ends ``least_gap`` samples past the last
    sample of the frame's first path.
    """
    def build(plan):
        cfg = TimeSyncConfig(template, default_search_window(template, plan.channel.timing_offset))
        return lambda rows: [float(estimate_timing(row, cfg).n_xc_max) for row in rows]
    window_end = sum(default_search_window(template))
    return _Stage(build, window_end + TEMPLATE_LEN[template] - 1 - PREAMBLE_LEN, ())


def _cfo(plan: TrialPlan) -> Callable[[np.ndarray], list[float | None]]:
    """cfo -> offset estimate in Hz over the known short-training span, ground-truth
    aided so the estimator is measured on every trial, including SNRs where frame
    detection gives up.

    The span is :func:`~ofdmsync.cfo.span_within` of the samples where every
    path carries the short training: from the latest path's first sample
    (``timing_offset`` + largest tap delay) to the earliest path's last.
    Earlier samples carry only some of the paths, so they do not repeat at the
    lag, and their products bias the estimate. Later ones carry the long
    training's guard on the earliest path. :func:`~ofdmsync.cfo.estimate_cfo_rows`
    takes a whole block in one pass, at the preamble's sample rate.
    """
    lag, offset = FrameDetectConfig.lag, plan.channel.timing_offset
    span = span_within(offset + plan.channel.taps[-1][0], offset + STS_LEN - 1, lag)
    return lambda rows: estimate_cfo_rows(rows, lag, span, DEFAULT_SAMPLE_RATE)


_STAGE_TABLE = {
    "frame": _Stage(_frame, None, ()),
    "time_sts": _timing("sts"),
    "time_lts": _timing("lts"),
    "cfo": _Stage(_cfo, None, (("injected_cfo_hz", lambda plan: plan.channel.cfo_hz),)),
}
STAGES = tuple(_STAGE_TABLE)


@dataclass(frozen=True)
class TrialPlan:
    """What to run: trial count, channel, stages, and seeding.

    Every trial runs through the one ``channel`` object; trial i draws its
    noise from seed ``base_seed + i``, so ``base_seed`` cannot be negative.
    ``gap_len`` is the length of the idle stretch that follows each
    transmitted preamble; the received buffer keeps capturing through it, so
    it carries the channel noise, which also gives the long-template
    correlator room to search past the frame. ``stages`` is a sequence of
    names from :data:`STAGES`, each listed once.
    """

    n_trials: int = 300
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    stages: tuple[str, ...] = ("time_sts", "time_lts")
    base_seed: int = 0
    gap_len: int = 400

    def __post_init__(self):
        for name, bounds in (("n_trials", None), ("base_seed", None),
                             ("gap_len", (0, MAX_GENERATED_SAMPLES))):
            object.__setattr__(self, name, as_int(name, getattr(self, name), bounds))
        if self.n_trials < 1:
            raise ConfigError("n_trials must be at least 1")
        if self.base_seed < 0:
            raise ConfigError(f"seed cannot be negative, got base_seed {shown(self.base_seed)}")
        if not isinstance(self.channel, ChannelConfig):
            raise ConfigError(f"channel must be a ChannelConfig, got {shown(self.channel)}")
        if isinstance(self.stages, (str, bytes)) or not isinstance(self.stages, Iterable):
            raise ConfigError(f"stages must be a sequence of stage names, got {shown(self.stages)}")
        stages = tuple(self.stages)
        for stage in stages:
            if stage not in STAGES:
                raise ConfigError(f"unknown stage {shown(stage)}; choose from {STAGES}")
        if not stages:
            raise ConfigError("at least one stage is required")
        if len(set(stages)) != len(stages):
            raise ConfigError(f"each stage may be listed once, got {stages}")
        max_delay = self.channel.taps[-1][0]
        for stage in stages:
            least = _STAGE_TABLE[stage].least_gap
            if least is not None and self.gap_len + max_delay < least:
                raise ConfigError(f"the {stage} window runs past the trial buffer: gap_len "
                                  f"{self.gap_len} with a largest tap delay of {max_delay}; "
                                  f"gap_len must be at least {least - max_delay}")
        object.__setattr__(self, "stages", stages)


@dataclass
class TrialStatistics:
    """Per-stage outcome: detected values in trial order plus summary stats."""

    values: list[float]
    trial_indices: list[int]
    mean: float
    variance: float
    histogram: list[tuple[float, int]]
    failures: int


def _quartile(a: float, b: float, t: float) -> float:
    # numpy's linear interpolation between neighbouring order statistics
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _histogram(data: np.ndarray) -> list[tuple[float, int]]:
    """(bin center, count) pairs of ``data``, in equal bins over its range.

    The bin count is that of numpy 2.4.6's ``bins="auto"``
    (``_hist_bin_auto``), computed here so that it does not depend on the
    numpy version and needs no ``np.percentile``. For n values over a range
    ptp > 0, the bin width is the Freedman-Diaconis width ``2 * IQR *
    n**(-1/3)``, raised to at least ``ptp / sqrt(n) / 2`` and capped at
    Sturges' ``ptp / (log2(n) + 1)``. The quartiles interpolate linearly
    between order statistics, as ``np.percentile`` does. The count is
    ``ceil(ptp / width)``. A zero range gets one bin, widened by 0.5 on each
    side. ``np.histogram`` then places the edges and counts the values.
    Values too close together for any finite bin width get one bin.
    """
    n = data.size
    lo, hi = data.min(), data.max()
    ptp = float(hi - lo)
    if ptp:
        i, j = (n - 1) // 4, 3 * (n - 1) // 4
        kth = [i, i + 1, j, j + 1]
        a, b, c, d = np.partition(data, kth)[kth].tolist()
        iqr = _quartile(c, d, 3 * (n - 1) % 4 / 4) - _quartile(a, b, (n - 1) % 4 / 4)
        # math.log2, not np.log2: numpy's AVX-512 loop differs from libm in the
        # last bit at some n (the first is 1621)
        width = min(max(2.0 * iqr * n ** (-1 / 3), ptp / math.sqrt(n) / 2),
                    ptp / (math.log2(n) + 1.0))
    else:
        lo, hi, width = lo - 0.5, hi + 0.5, 0.0
    try:
        counts, edges = np.histogram(data, bins=math.ceil(ptp / width) if width else 1,
                                     range=(lo, hi))
    except ValueError:  # values a few ULPs apart: no finite bin width fits between them
        counts, edges = np.histogram(data, bins=1)
    centers = (edges[:-1] + edges[1:]) / 2
    return [(float(c), int(n)) for c, n in zip(centers, counts)]


def _statistics(outcomes: list[float | None]) -> TrialStatistics:
    """Statistics of one stage's values in trial order, None for a failed trial.

    The values become one float64 array, which gives the mean, the
    population variance (denominator N) and the histogram. A value that is
    not finite is a ConfigError that names the values.
    """
    indices = [trial for trial, value in enumerate(outcomes) if value is not None]
    values = [outcomes[trial] for trial in indices]
    if not values:
        return TrialStatistics([], [], float("nan"), float("nan"), [], len(outcomes))
    data = np.array(values, np.float64)
    if not all_finite(data):
        raise ConfigError(f"variance needs finite real values, got {shown(values)}")
    return TrialStatistics(values, indices, float(data.mean()), float(np.var(data)),
                           _histogram(data), len(outcomes) - len(values))


def preamble_train(preamble: SampleBuffer, count: int, gap_len: int) -> SampleBuffer:
    """``count`` copies of the frame, each followed by ``gap_len`` zeros,
    mirroring a transmitter that repeats the preamble back-to-back.

    The gaps are silent at the transmitter; they pick up noise in the
    channel like the rest of the stream. An SNR that ``transmit`` (and so
    ``detect --frames``) sets on the train is against its average power,
    gaps included: each frame sees ``10 * log10(1 + gap_len / len(preamble))``
    dB more.
    """
    of_type("preamble_train", preamble, SampleBuffer)
    count = as_int("count", count, (1, MAX_GENERATED_SAMPLES))
    gap_len = as_int("gap_len", gap_len, (0, MAX_GENERATED_SAMPLES))
    total = count * (len(preamble) + gap_len)
    if total > MAX_GENERATED_SAMPLES:
        raise ConfigError(f"{count} frames with {gap_len}-sample gaps make {total} samples, "
                          f"more than {MAX_GENERATED_SAMPLES}")
    gap = np.zeros(gap_len, np.complex128)
    return SampleBuffer(np.concatenate([preamble.samples, gap] * count), preamble.sample_rate)


def run_trials(plan: TrialPlan) -> dict[str, TrialStatistics]:
    """Run the plan and return statistics per requested stage.

    Trial i transmits the preamble through ``plan.channel``, the same config
    object in every trial, with the noise of seed ``base_seed + i``: given
    an SNR, a Generator from :func:`~ofdmsync.channel.seeded_generators` in
    the state of ``default_rng(base_seed + i)``. Trials run in blocks of
    ``max(1, TRIAL_BLOCK_LEN // N)`` buffers, N the length of one trial
    buffer (42 buffers of 771 samples at a 30-sample offset on etsi_c): each
    buffer is copied into one block workspace, allocated once per run, and
    each requested stage's block function (built once per run from the plan)
    gives a value for every row of the block. A None counts as a failure for
    that stage, and the statistics cover the successes only. Every value
    depends on its own row alone, so the block length moves no report byte.

    The channel call stays per trial, and the timing stages call
    ``estimate_timing`` per row, which cuts its template from
    ``generate_preamble``: the benchmark counts those calls
    (``bench/test_bench.py`` asks for ``n_trials`` to ``transmit`` and
    ``2 * n_trials + 1`` to ``generate_preamble``).
    """
    of_type("run_trials", plan, TrialPlan)
    pre = generate_preamble()
    blocks = {stage: _STAGE_TABLE[stage].build(plan) for stage in plan.stages}
    outcomes: dict[str, list[float | None]] = {stage: [] for stage in plan.stages}
    rows = None  # the block workspace
    seeds = range(plan.base_seed, plan.base_seed + plan.n_trials)
    # a noiseless channel draws nothing, so its trials skip the seeding
    for i, seed in enumerate(seeds if plan.channel.snr_db is None else seeded_generators(seeds)):
        rx = transmit(pre, plan.channel, tail_len=plan.gap_len, seed=seed)
        if rows is None:
            rows = np.empty((max(1, TRIAL_BLOCK_LEN // len(rx)), len(rx)), np.complex128)
        k = i % len(rows)
        rows[k] = rx.samples
        if k + 1 < len(rows) and i + 1 < plan.n_trials:
            continue
        for stage, block in blocks.items():
            outcomes[stage] += block(rows[:k + 1])
    return {stage: _statistics(values) for stage, values in outcomes.items()}


def emit_report(results: dict[str, TrialStatistics], out_dir, plan: TrialPlan) -> list[Path]:
    """Write summary, per-trial, and histogram CSVs; returns the paths.

    Output is a pure function of (results, plan): float fields are written
    with repr so repeated runs are byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not results or not set(results) <= set(STAGES):
        raise ConfigError(f"results must map stages {STAGES} to statistics, got {shown(results)}")
    stage_stats = results.values()
    tables = [("summary.csv", "algorithm,trials,sigma2,failures",
               (list(results), [len(s.values) + s.failures for s in stage_stats],
                [s.variance for s in stage_stats], [s.failures for s in stage_stats]))]
    for stage, stats in results.items():
        header, columns = "trial,value", [stats.trial_indices, stats.values]
        for name, value in _STAGE_TABLE[stage].columns:
            header += f",{name}"
            columns.append([value(plan)] * len(stats.values))
        tables += [(f"{stage}_trials.csv", header, columns),
                   (f"{stage}_histogram.csv", "bin_center,count",
                    ([c for c, _ in stats.histogram], [n for _, n in stats.histogram]))]
    for name, header, columns in tables:
        write_table(out / name, header, columns)
    return [out / name for name, _, _ in tables]


def load_plan(path) -> TrialPlan:
    """Parse a ``key = value`` plan file ('#' comments allowed).

    Keys: n_trials, base_seed, stages (comma list), snr_db (number or
    'none'/'noiseless'), cfo_hz, timing_offset, taps (profile name or path,
    relative to the plan file), gap_len (idle samples after the frame; they
    carry the channel noise). A key left out keeps its config's default
    (:class:`TrialPlan`, :class:`~ofdmsync.channel.ChannelConfig`).
    """
    path = Path(path)
    parsers = {  # each key's parser, in the order the unknown-key message lists them
        "n_trials": int, "base_seed": int,
        "stages": lambda text: tuple(s.strip() for s in text.split(",")),
        "snr_db": parse_snr, "cfo_hz": float, "timing_offset": int,
        "taps": lambda text: _plan_taps(text, path.parent), "gap_len": int,
    }
    if not path.is_file():
        raise ConfigError(f"plan file not found: {path}")
    raw: dict[str, str] = {}
    for lineno, line, body in config_lines(path):
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in parsers:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: {tuple(parsers)}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    try:
        given = {key: parse(raw[key]) for key, parse in parsers.items() if key in raw}
        channel = {f.name: given.pop(f.name) for f in fields(ChannelConfig) if f.name in given}
        return TrialPlan(channel=ChannelConfig(**channel), **given)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _plan_taps(value: str, base_dir: Path):
    local = base_dir / value  # an absolute value is its own path
    return resolve_taps(local if local.is_file() else value)
