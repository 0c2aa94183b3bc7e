"""Monte Carlo evaluation of the synchronizer stages.

Runs N seeded trials of preamble -> channel -> detector, collects the
per-trial detected values (timing positions in samples, offsets in Hz),
and reports their sample mean, population variance, and histogram, with
failed detections counted separately. Reports are written as CSV so the
histograms and variance tables can be reproduced by any plotting tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# detect_frames and estimate_cfo are the per-trial forms of the block stages.
# run_trials no longer calls them; bench/spans.py still traces them under
# these names, and bench/test_bench.py requires each traced name to exist.
from .cfo import estimate_cfo, estimate_cfo_rows  # noqa: F401
from .channel import UNIT_TAP, ChannelConfig, parse_snr, resolve_taps, transmit
from .core import BLOCK_LEN, MAX_GENERATED_SAMPLES, SampleBuffer
from .errors import ConfigError
from .frame_detect import FrameDetectConfig, detect_frames, first_events  # noqa: F401
from .iqfile import write_table
from .preamble import PREAMBLE_LEN, STS_LEN, generate_preamble
from .time_sync import TEMPLATE_LEN, TimeSyncConfig, default_search_window, estimate_timing

STAGES = ("frame", "time_sts", "time_lts", "cfo")
_TIMING_STAGES = (("time_sts", "sts"), ("time_lts", "lts"))


@dataclass(frozen=True)
class TrialPlan:
    """What to run: trial count, channel, stages, and seeding.

    Every trial runs through the one ``channel`` object; trial i draws its
    noise from seed ``base_seed + i``, so ``base_seed`` cannot be negative.
    ``gap_len`` is the length of the idle stretch that follows each
    transmitted preamble; the received buffer keeps capturing through it, so
    it carries the channel noise, which also gives the long-template
    correlator room to search past the frame.
    """

    n_trials: int = 300
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    stages: tuple[str, ...] = ("time_sts", "time_lts")
    base_seed: int = 0
    gap_len: int = 400

    def __post_init__(self):
        if self.n_trials < 1:
            raise ConfigError("n_trials must be at least 1")
        if self.base_seed < 0:
            raise ConfigError(f"seed cannot be negative, got base_seed {self.base_seed}")
        stages = tuple(self.stages)
        for stage in stages:
            if stage not in STAGES:
                raise ConfigError(f"unknown stage {stage!r}; choose from {STAGES}")
        if not stages:
            raise ConfigError("at least one stage is required")
        if len(set(stages)) != len(stages):
            raise ConfigError(f"each stage may be listed once, got {stages}")
        if not 0 <= self.gap_len <= MAX_GENERATED_SAMPLES:
            raise ConfigError(f"gap_len must lie in [0, {MAX_GENERATED_SAMPLES}], "
                              f"got {self.gap_len}")
        max_delay = self.channel.taps[-1][0]
        for stage, template in _TIMING_STAGES:
            # the gap and the delay spread must reach the last sample the window reads
            start, length = default_search_window(template)
            least = start + length + TEMPLATE_LEN[template] - 1 - PREAMBLE_LEN - max_delay
            if stage in stages and self.gap_len < least:
                raise ConfigError(
                    f"the {stage} search window runs past the trial buffer: gap_len "
                    f"{self.gap_len} with a largest tap delay of {max_delay}; "
                    f"gap_len must be at least {least}")
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "gap_len", int(self.gap_len))


@dataclass
class TrialStatistics:
    """Per-stage outcome: detected values in trial order plus summary stats."""

    values: list[float]
    trial_indices: list[int]
    mean: float
    variance: float
    histogram: list[tuple[float, int]]
    failures: int


def variance(values) -> float:
    """Population variance (denominator N)."""
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        raise ConfigError("variance of an empty sequence is undefined")
    return float(np.var(data))


def _histogram(values: list[float]) -> list[tuple[float, int]]:
    if not values:
        return []
    data = np.asarray(values, dtype=np.float64)
    try:
        counts, edges = np.histogram(data, bins="auto")
    except ValueError:  # values a few ULPs apart: no finite bin width fits between them
        counts, edges = np.histogram(data, bins=1)
    centers = (edges[:-1] + edges[1:]) / 2
    return [(float(c), int(n)) for c, n in zip(centers, counts)]


def _statistics(values: list[float], indices: list[int], failures: int) -> TrialStatistics:
    if not values:
        return TrialStatistics([], [], float("nan"), float("nan"), [], failures)
    return TrialStatistics(values, indices, float(np.mean(values)), variance(values),
                           _histogram(values), failures)


def preamble_train(preamble: SampleBuffer, count: int, gap_len: int = 400) -> SampleBuffer:
    """``count`` copies of the frame, each followed by ``gap_len`` zeros,
    mirroring a transmitter that repeats the preamble back-to-back.

    The gaps are silent at the transmitter; they pick up noise in the
    channel like the rest of the stream.
    """
    total = count * (len(preamble) + gap_len)
    if total > MAX_GENERATED_SAMPLES:
        raise ConfigError(f"{count} frames with {gap_len}-sample gaps make {total} samples, "
                          f"more than {MAX_GENERATED_SAMPLES}")
    gap = np.zeros(gap_len, np.complex128)
    return SampleBuffer(np.concatenate([preamble.samples, gap] * count), preamble.sample_rate)


def _sts_plateau(cfg: ChannelConfig, lag: int) -> tuple[int, int]:
    # Every index whose correlation windows sit fully inside the short training.
    start = cfg.timing_offset
    return start, start + STS_LEN - 2 * lag + 1


def run_trials(plan: TrialPlan) -> dict[str, TrialStatistics]:
    """Run the plan and return statistics per requested stage.

    Per trial: transmit the preamble through ``plan.channel``, the same
    config object in every trial, with seed base_seed+i, then
      frame    -> start index of the first detection run, if any;
      time_sts -> short-template timing estimate (landmark 160 + delay);
      time_lts -> long-template timing estimate (landmark 320 + delay);
      cfo      -> offset estimate in Hz over the known short-training span
                  (ground-truth aided so the estimator is measured on every
                  trial, including SNRs where frame detection gives up).
    Trials with nothing to record count as failures for that stage, and the
    statistics cover the successes only.

    Trials run in blocks of ``max(1, BLOCK_LEN // N)``, N the length of one
    trial buffer. Each trial's buffer is copied into one block workspace,
    allocated once per run, and the frame and cfo stages each take a whole
    block in one pass (:func:`~ofdmsync.frame_detect.first_events`,
    :func:`~ofdmsync.cfo.estimate_cfo_rows`), with the bits of a pass per
    trial. The channel call and the timing stages stay per trial: each
    trial's noise comes from its own ``transmit`` call, and each timing
    estimate cuts its template from ``generate_preamble``. The benchmark
    counts those calls (``bench/test_bench.py`` asks for ``n_trials`` to
    ``transmit`` and ``2 * n_trials + 1`` to ``generate_preamble``), so they
    stay, with their fixed cost cut: one noise draw added part by part, and
    one correlation over each search window.
    """
    pre = generate_preamble()
    detect_cfg = FrameDetectConfig()
    values: dict[str, list[float]] = {stage: [] for stage in plan.stages}
    indices: dict[str, list[int]] = {stage: [] for stage in plan.stages}
    failures = dict.fromkeys(plan.stages, 0)

    def record(stage: str, trial: int, value: float | None) -> None:
        if value is None:
            failures[stage] += 1
        else:
            values[stage].append(value)
            indices[stage].append(trial)

    timing = []
    for stage, template in _TIMING_STAGES:
        if stage in plan.stages:
            start, length = default_search_window(template)
            timing.append((stage, TimeSyncConfig(
                template=template,
                search_window=(start + plan.channel.timing_offset, length))))
    cfo_span = _sts_plateau(plan.channel, detect_cfg.lag)

    rows = None  # the block workspace
    for i in range(plan.n_trials):
        rx = transmit(pre, plan.channel, tail_len=plan.gap_len, seed=plan.base_seed + i)
        for stage, sync_cfg in timing:
            record(stage, i, float(estimate_timing(rx, sync_cfg).n_xc_max))
        if rows is None:
            rows = np.empty((max(1, BLOCK_LEN // len(rx)), len(rx)), np.complex128)
        k = i % len(rows)
        rows[k] = rx.samples
        if k + 1 < len(rows) and i + 1 < plan.n_trials:
            continue
        block, first = rows[:k + 1], i - k
        if "frame" in values:
            for trial, event in enumerate(first_events(block, detect_cfg), first):
                record("frame", trial, None if event is None else float(event.start_index))
        if "cfo" in values:
            for trial, offset in enumerate(
                    estimate_cfo_rows(block, detect_cfg.lag, cfo_span, rx.sample_rate), first):
                record("cfo", trial, offset)

    return {stage: _statistics(values[stage], indices[stage], failures[stage])
            for stage in plan.stages}


def emit_report(results: dict[str, TrialStatistics], out_dir,
                plan: TrialPlan | None = None) -> list[Path]:
    """Write summary, per-trial, and histogram CSVs; returns the paths.

    Output is a pure function of (results, plan): float fields are written
    with repr so repeated runs are byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not results:
        raise ConfigError("no statistics to report")
    paths = []

    summary = out / "summary.csv"
    stage_stats = results.values()
    write_table(summary, "algorithm,trials,sigma2,failures",
                (list(results), [len(s.values) + s.failures for s in stage_stats],
                 [s.variance for s in stage_stats], [s.failures for s in stage_stats]))
    paths.append(summary)

    for stage, stats in results.items():
        trials = out / f"{stage}_trials.csv"
        columns = [stats.trial_indices, stats.values]
        if stage == "cfo" and plan is not None:
            write_table(trials, "trial,value,injected_cfo_hz",
                        columns + [[plan.channel.cfo_hz] * len(stats.values)])
        else:
            write_table(trials, "trial,value", columns)
        paths.append(trials)

        hist = out / f"{stage}_histogram.csv"
        write_table(hist, "bin_center,count", ([c for c, _ in stats.histogram],
                                               [n for _, n in stats.histogram]))
        paths.append(hist)

    return paths


_PLAN_KEYS = ("n_trials", "base_seed", "stages", "snr_db", "cfo_hz",
              "timing_offset", "taps", "gap_len")


def load_plan(path) -> TrialPlan:
    """Parse a ``key = value`` plan file ('#' comments allowed).

    Keys: n_trials, base_seed, stages (comma list), snr_db (number or
    'none'/'noiseless'), cfo_hz, timing_offset, taps (profile name or path,
    relative to the plan file), gap_len (idle samples after the frame; they
    carry the channel noise).
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"plan file not found: {path}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _PLAN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; valid keys: {_PLAN_KEYS}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    try:
        channel = ChannelConfig(
            cfo_hz=float(raw.get("cfo_hz", "0")),
            snr_db=parse_snr(raw.get("snr_db", "none")),
            taps=_plan_taps(raw.get("taps"), path.parent),
            timing_offset=int(raw.get("timing_offset", "0")),
        )
        stages = tuple(s.strip() for s in raw.get("stages", "time_sts,time_lts").split(","))
        return TrialPlan(
            n_trials=int(raw.get("n_trials", "300")),
            channel=channel,
            stages=stages,
            base_seed=int(raw.get("base_seed", "0")),
            gap_len=int(raw.get("gap_len", "400")),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _plan_taps(value: str | None, base_dir: Path):
    if value is None:
        return UNIT_TAP
    candidate = Path(value)
    if not candidate.is_absolute() and (base_dir / candidate).is_file():
        return resolve_taps(base_dir / candidate)
    return resolve_taps(value)
