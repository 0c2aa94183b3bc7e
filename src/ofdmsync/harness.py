"""Monte Carlo evaluation of the synchronizer stages.

Runs N seeded trials of preamble -> channel -> detector, collects the
per-trial detected values (timing positions in samples, offsets in Hz),
and reports their sample mean, population variance, and histogram, with
failed detections counted separately. Reports are written as CSV so the
histograms and variance tables can be reproduced by any plotting tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .cfo import estimate_cfo
from .channel import ChannelConfig, resolve_taps, transmit
from .core import SampleBuffer
from .errors import ConfigError, EstimationError
from .frame_detect import FrameDetectConfig, detect_frames
from .preamble import PreambleSpec, generate_preamble
from .time_sync import TimeSyncConfig, default_search_window, estimate_timing

STAGES = ("frame", "time_sts", "time_lts", "cfo")


@dataclass(frozen=True)
class TrialPlan:
    """What to run: trial count, channel template, stages, and seeding.

    Trial i reuses ``channel`` with seed ``base_seed + i``. ``gap_len`` is
    the length of the idle stretch that follows each transmitted preamble;
    the received buffer keeps capturing through it, so it carries the
    channel noise, which also gives the long-template correlator room to
    search past the frame.
    """

    n_trials: int = 300
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    stages: tuple[str, ...] = ("time_sts", "time_lts")
    base_seed: int = 0
    gap_len: int = 400

    def __post_init__(self):
        if self.n_trials < 1:
            raise ConfigError("n_trials must be at least 1")
        stages = tuple(self.stages)
        for stage in stages:
            if stage not in STAGES:
                raise ConfigError(f"unknown stage {stage!r}; choose from {STAGES}")
        if not stages:
            raise ConfigError("at least one stage is required")
        if self.gap_len < 0:
            raise ConfigError("gap length cannot be negative")
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
    counts, edges = np.histogram(np.asarray(values, dtype=np.float64), bins="auto")
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
    gap = np.zeros(gap_len, np.complex128)
    return SampleBuffer(np.concatenate([preamble.samples, gap] * count), preamble.sample_rate)


def _sts_plateau(cfg: ChannelConfig, spec: PreambleSpec, lag: int) -> tuple[int, int]:
    # Every index whose correlation windows sit fully inside the short training.
    start = cfg.timing_offset
    return start, start + spec.sts_len - 2 * lag + 1


class _TrialFailure(Exception):
    """Internal: the stage produced no detection for this trial."""


def run_trials(plan: TrialPlan, spec: PreambleSpec = PreambleSpec()
               ) -> dict[str, TrialStatistics]:
    """Run the plan and return statistics per requested stage.

    Per trial: transmit the preamble through the channel (seed base_seed+i),
    then
      frame    -> start index of the first detection run, if any;
      time_sts -> short-template timing estimate (landmark 160 + delay);
      time_lts -> long-template timing estimate (landmark 320 + delay);
      cfo      -> offset estimate in Hz over the known short-training span
                  (ground-truth aided so the estimator is measured on every
                  trial, including SNRs where frame detection gives up).
    Trials with nothing to record count as failures for that stage, and the
    statistics cover the successes only.
    """
    pre = generate_preamble(spec)
    detect_cfg = FrameDetectConfig()
    results: dict[str, tuple[list[float], list[int], int]] = {
        stage: ([], [], 0) for stage in plan.stages}
    sync_cfgs = {}
    for stage, template in (("time_sts", "sts"), ("time_lts", "lts")):
        start, length = default_search_window(spec, template)
        sync_cfgs[stage] = TimeSyncConfig(
            template=template,
            search_window=(start + plan.channel.timing_offset, length))
    cfo_span = _sts_plateau(plan.channel, spec, detect_cfg.lag)

    for i in range(plan.n_trials):
        cfg = replace(plan.channel, seed=plan.base_seed + i)
        rx = transmit(pre, cfg, tail_len=plan.gap_len)
        events = None
        for stage in plan.stages:
            values, indices, failures = results[stage]
            try:
                if stage == "frame":
                    if events is None:
                        events = detect_frames(rx, detect_cfg)
                    if not events:
                        raise _TrialFailure
                    value = float(events[0].start_index)
                elif stage in sync_cfgs:
                    value = float(estimate_timing(rx, sync_cfgs[stage], spec).n_xc_max)
                else:  # cfo
                    value = estimate_cfo(rx, detect_cfg.lag, cfo_span).delta_f_hz
            except (_TrialFailure, EstimationError):
                results[stage] = (values, indices, failures + 1)
                continue
            values.append(value)
            indices.append(i)

    return {stage: _statistics(values, indices, failures)
            for stage, (values, indices, failures) in results.items()}


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
    lines = ["algorithm,trials,sigma2,failures"]
    for stage, stats in results.items():
        n = len(stats.values) + stats.failures
        lines.append(f"{stage},{n},{stats.variance!r},{stats.failures}")
    summary.write_text("\n".join(lines) + "\n")
    paths.append(summary)

    for stage, stats in results.items():
        trials = out / f"{stage}_trials.csv"
        if stage == "cfo" and plan is not None:
            header = "trial,value,injected_cfo_hz"
            rows = [f"{i},{v!r},{plan.channel.cfo_hz!r}"
                    for i, v in zip(stats.trial_indices, stats.values)]
        else:
            header = "trial,value"
            rows = [f"{i},{v!r}" for i, v in zip(stats.trial_indices, stats.values)]
        trials.write_text("\n".join([header] + rows) + "\n")
        paths.append(trials)

        hist = out / f"{stage}_histogram.csv"
        rows = [f"{center!r},{count}" for center, count in stats.histogram]
        hist.write_text("\n".join(["bin_center,count"] + rows) + "\n")
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
        snr = raw.get("snr_db", "none").lower()
        channel = ChannelConfig(
            cfo_hz=float(raw.get("cfo_hz", "0")),
            snr_db=None if snr in ("none", "noiseless") else float(snr),
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
        return ((0, 1 + 0j),)
    candidate = Path(value)
    if not candidate.is_absolute() and (base_dir / candidate).is_file():
        return resolve_taps(base_dir / candidate)
    return resolve_taps(value)
