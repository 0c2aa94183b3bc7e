"""Run one benchmark workload in this (fresh, single-threaded) process.

``run.py`` starts this script once per measurement. The script imports
ofdmsync from the checkout's ``src/``, sets up, prints ``ready`` on its own
line (the parent times process start to that line as set-up time), runs the
workload as a closed loop for ``--seconds`` and prints one JSON result line.
With ``--trace`` it first wraps the calls into each ofdmsync module (see
``spans.py``) and adds per-layer figures to the result.

Workloads:

* ``mc_four_stage``: ``run_trials`` plus ``emit_report`` on the four-stage
  plan file written by ``run.py``; one operation is one full report.
* ``capture_batch``: ``ofdmsync detect --in CAPTURE`` through ``cli.main``;
  one operation is one whole-file detection.
* ``capture_stream``: the capture, memory-mapped, fed to
  ``StreamingFrameDetector.process`` in seeded log-uniform chunks of 1 to
  4096 samples; one operation is one ``process`` call.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import hashlib
import io
import json
import math
import re
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import capture  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402

# The four-stage plan (run.py writes it with base_seed = the workload seed).
PLAN = {"n_trials": 1000, "stages": "frame, time_sts, time_lts, cfo", "snr_db": 10,
        "cfo_hz": 100e3, "timing_offset": 30, "taps": "etsi_c"}
PREAMBLE_LEN = 320
GAP_LEN = 400  # the plan's default gap
ETSI_C_SPREAD = capture.PROFILES["etsi_c"][-1][0]
SAMPLES_PER_TRIAL = PLAN["timing_offset"] + PREAMBLE_LEN + GAP_LEN + ETSI_C_SPREAD

MAX_CHUNK = 4096
# Streaming is timed in blocks of this many consecutive process calls (about
# half a million samples, 0.1 s), with a host-speed sample between blocks.
STREAM_BLOCK = 1024
EVENT_LINE = re.compile(r"frame: samples \[(\d+), (\d+)\] plateau \d+, peak metric (\S+)")
PEAK_REL_TOL = 1e-12  # the stream-vs-batch tolerance of tests/test_frame_detect.py
STRONG_SNR_DB = 12.0  # every frame at least this strong must be detected
# Harness sanity bands for the four-stage plan: truth is landmark + offset
# (160 + 30, 320 + 30), shifted by up to the channel spread.
TIMING_BANDS = {"time_sts": (190, 190 + ETSI_C_SPREAD), "time_lts": (350, 350 + ETSI_C_SPREAD)}
CFO_TOL_HZ = 2e3
MAX_STAGE_FAIL_FRAC = 0.02


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty sequence."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def chunk_bounds(seed: int, total: int) -> np.ndarray:
    """Chunk edges covering [0, total): sizes log-uniform over 1..MAX_CHUNK."""
    rng = np.random.default_rng([seed, 2])
    edges = [0]
    while edges[-1] < total:
        draw = np.floor(np.exp(rng.uniform(0.0, math.log(MAX_CHUNK + 1), size=65536)))
        sizes = np.clip(draw.astype(np.int64), 1, MAX_CHUNK)
        edges.extend((edges[-1] + np.cumsum(sizes)).tolist())
    out = np.asarray(edges, dtype=np.int64)
    out = out[out < total]
    return np.append(out, total)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timing_figures(durations, scales, samples) -> dict:
    """Figures from per-block times (ns), their host-speed scales and sample counts.

    ``rates`` are Msamples/s per block and ``op_ms_p50`` the median block
    time, both normalised to the reference host; ``*_raw`` are as measured.
    """
    norm = [d * k for d, k in zip(durations, scales)]
    return {
        "rates": [n * 1e3 / t for n, t in zip(samples, norm)],
        "rates_raw": [n * 1e3 / t for n, t in zip(samples, durations)],
        "op_ms_p50": statistics.median(norm) / 1e6,
        "op_ms_p50_raw": statistics.median(durations) / 1e6,
        "host_scale": statistics.median(scales),
    }


class Histogram:
    """Constant-memory log-spaced histogram of times in ns, with 0.1% wide bins.

    Streaming makes hundreds of thousands of calls; keeping every time would
    make the measuring process's peak RSS grow with throughput.
    """

    STEP = math.log(1.001)
    LOW_NS = 10.0

    def __init__(self, high_ns: float = 1e11):
        self.counts = np.zeros(int(math.log(high_ns / self.LOW_NS) / self.STEP) + 1, np.int64)

    def add(self, times_ns) -> None:
        bins = (np.log(np.maximum(times_ns, self.LOW_NS) / self.LOW_NS) / self.STEP).astype(np.int64)
        self.counts += np.bincount(np.minimum(bins, len(self.counts) - 1),
                                   minlength=len(self.counts))

    def percentile(self, q: float) -> float:
        """The geometric centre of the bin holding the q-th percentile (ns)."""
        cumulative = np.cumsum(self.counts)
        k = int(np.searchsorted(cumulative, q / 100 * cumulative[-1]))
        return self.LOW_NS * math.exp((k + 0.5) * self.STEP)


def report_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def read_csv_columns(path: Path) -> dict[str, list[str]]:
    header, *rows = path.read_text().splitlines()
    names = header.split(",")
    return {name: [row.split(",")[k] for row in rows] for k, name in enumerate(names)}


def check_report(out_dir: Path) -> tuple[list[str], int, int]:
    """Physical sanity of a four-stage report; returns (problems, stage failures, trial-stages)."""
    problems = []
    summary = read_csv_columns(out_dir / "summary.csv")
    stages = dict(zip(summary["algorithm"], zip(summary["trials"], summary["failures"])))
    if sorted(stages) != sorted(s.strip() for s in PLAN["stages"].split(",")):
        problems.append(f"report stages {sorted(stages)}")
    failures = sum(int(f) for _, f in stages.values())
    attempted = sum(int(n) for n, _ in stages.values())
    for stage, (n, f) in stages.items():
        if int(n) != PLAN["n_trials"] or int(f) > MAX_STAGE_FAIL_FRAC * int(n):
            problems.append(f"{stage}: {f} failures of {n} trials")
        values = [float(v) for v in read_csv_columns(out_dir / f"{stage}_trials.csv")["value"]]
        if stage in TIMING_BANDS:
            lo, hi = TIMING_BANDS[stage]
            if not lo <= statistics.median(values) <= hi:
                problems.append(f"{stage}: median {statistics.median(values)} outside [{lo}, {hi}]")
        elif stage == "cfo":
            if abs(statistics.fmean(values) - PLAN["cfo_hz"]) > CFO_TOL_HZ:
                problems.append(f"cfo: mean {statistics.fmean(values)} Hz")
        elif stage == "frame":
            lo = PLAN["timing_offset"] - capture.LAG_WINDOW_SPAN
            hi = PLAN["timing_offset"] + capture.STS_LEN + ETSI_C_SPREAD
            if not lo <= statistics.median(values) <= hi:
                problems.append(f"frame: median start {statistics.median(values)} outside [{lo}, {hi}]")
    return problems, failures, attempted


def parse_detect_output(text: str) -> list[tuple[int, int, str]]:
    return [(int(m[1]), int(m[2]), m[3]) for m in EVENT_LINE.finditer(text)]


class Workload:
    """Set-up state plus a timed loop; ``run`` returns the raw result dict."""

    ctx_label: str | None = None
    speed_kernel = "interp"

    def __init__(self, args):
        import ofdmsync
        self.args = args
        ofdmsync.generate_preamble()  # every workload's set-up includes the preamble build

    def timed_ops(self, seconds: float, op, check) -> tuple[list[int], list[float]]:
        """Time ``op`` until ``seconds`` have passed (at least once).

        ``check`` gets each result, untimed. Returns each call's time (ns)
        and the host-speed scale of the kernel samples around it.
        """
        speed = hostspeed.HostSpeed(self.speed_kernel)
        durations, scales = [], []
        before = speed.sample()
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        while not durations or time.perf_counter_ns() < deadline:
            start = time.perf_counter_ns()
            result = op()
            durations.append(time.perf_counter_ns() - start)
            check(result)
            after = speed.sample()
            scales.append(speed.scale(before, after))
            before = after
        return durations, scales

    def run(self, seconds: float) -> dict:
        raise NotImplementedError


class MonteCarlo(Workload):
    ctx_label = "channel.transmit"
    speed_kernel = "trial"

    def __init__(self, args):
        super().__init__(args)
        from ofdmsync import harness
        self.harness = harness
        self.plan = harness.load_plan(args.plan)

    def run(self, seconds):
        out_dir = self.args.work / "report"
        digests = []
        checked = {}

        def op():
            results = self.harness.run_trials(self.plan)
            self.harness.emit_report(results, out_dir, self.plan)

        def check(_):
            digests.append(report_digest(out_dir))
            if not checked:
                checked["report"] = check_report(out_dir)

        durations, scales = self.timed_ops(seconds, op, check)
        rss = peak_rss_mb()
        problems, failures, attempted = checked["report"]
        failed = sum(d != digests[0] for d in digests)
        if failed:
            problems.append(f"{failed} of {len(digests)} reports differ from the first")
        samples = PLAN["n_trials"] * SAMPLES_PER_TRIAL
        figures = timing_figures(durations, scales, [samples] * len(durations))
        return {
            **figures, "peak_rss_mb": rss,
            "ops": len(durations), "units": len(durations), "failed": failed,
            "samples": samples * len(durations), "digest": digests[0], "problems": problems,
            "extra": {"trials_per_s": [PLAN["n_trials"] * 1e3 / figures["op_ms_p50"], "1/s",
                                       len(durations)],
                      "fail_frac": [failures / attempted, "ratio", attempted]},
        }


class CaptureWorkload(Workload):
    def __init__(self, args):
        super().__init__(args)
        self.truth = json.loads(Path(args.truth).read_text())
        self.reference = [tuple(row) for row in json.loads(Path(args.reference).read_text())]

    def truth_stats(self, events) -> tuple[float, list[str]]:
        match = capture.match_events([(s, e) for s, e, _ in events], self.truth,
                                     STRONG_SNR_DB)
        planted = len(self.truth["frames"]["start"])
        problems = []
        if match["strong_missed"]:
            problems.append(f"{match['strong_missed']} frames at >= {STRONG_SNR_DB} dB missed")
        if match["false_alarms"]:
            problems.append(f"{match['false_alarms']} events away from every planted frame")
        return (match["missed"] + match["spurious"]) / planted, problems


class CaptureBatch(CaptureWorkload):
    ctx_label = "cli.main"
    speed_kernel = "memory"

    def __init__(self, args):
        super().__init__(args)
        from ofdmsync import cli
        self.cli = cli

    def run(self, seconds):
        argv = ["detect", "--in", str(self.args.capture)]
        first = None
        failed = 0

        def op():
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = self.cli.main(argv)
            return code, text.getvalue()

        def check(result):
            nonlocal first, failed
            if first is None:
                first = result[1]
            failed += result != (0, first)

        durations, scales = self.timed_ops(seconds, op, check)
        rss = peak_rss_mb()
        problems = [f"{failed} of {len(durations)} detect calls failed or differ from the first"
                    ] if failed else []
        events = parse_detect_output(first)
        expected = [(s, e, f"{p:.6f}") for s, e, p in self.reference]
        if events != expected:
            problems.append("detect output differs from batch detect_frames on the capture")
        fail_frac, truth_problems = self.truth_stats(events)
        planted = len(self.truth["frames"]["start"])
        return {
            **timing_figures(durations, scales, [self.truth["samples"]] * len(durations)),
            "peak_rss_mb": rss, "ops": len(durations), "units": len(durations),
            "failed": failed, "samples": self.truth["samples"] * len(durations),
            "digest": hashlib.sha256(first.encode()).hexdigest(),
            "problems": problems + truth_problems,
            "extra": {"fail_frac": [fail_frac, "ratio", planted]},
        }


class CaptureStream(CaptureWorkload):
    ctx_label = "frame_detect.stream_process"

    def __init__(self, args):
        super().__init__(args)
        from ofdmsync import frame_detect
        self.frame_detect = frame_detect
        cfg = frame_detect.FrameDetectConfig()
        self.context = cfg.lag + cfg.window - 1
        self.samples = np.memmap(args.capture, dtype="<c8", mode="r")
        self.bounds = chunk_bounds(args.seed, len(self.samples))

    def one_pass(self, deadline: int | None):
        """Stream the capture once, or until ``deadline``; returns (events, complete)."""
        detector = self.frame_detect.StreamingFrameDetector()
        events = []
        bounds = self.bounds
        for a, b in zip(bounds[:-1], bounds[1:]):
            chunk = self.samples[a:b]
            start = time.perf_counter_ns()
            found = detector.process(chunk)
            end = time.perf_counter_ns()
            self.tally(end - start, int(b - a))
            events.extend(found)
            if deadline is not None and end >= deadline:
                return events, False
        events.extend(detector.flush())
        return events, True

    def tally(self, ns: int, samples: int) -> None:
        """Record one call; close the block, with a host-speed sample, every STREAM_BLOCK calls."""
        self.calls += 1
        self.open_times.append(ns)
        self.open_samples += samples
        if len(self.open_times) == STREAM_BLOCK:
            self.close_block()

    def close_block(self) -> None:
        after = self.speed.sample()
        scale = self.speed.scale(self.before, after)
        times = np.frombuffer(self.open_times, dtype=np.int64)
        self.raw.add(times)
        self.normalised.add(times * scale)
        self.blocks.append((int(times.sum()), scale, self.open_samples))
        self.open_times = array.array("q")
        self.open_samples = 0
        self.before = after

    def run(self, seconds):
        self.speed = hostspeed.HostSpeed(self.speed_kernel)
        self.raw, self.normalised = Histogram(), Histogram()
        self.blocks: list[tuple[int, float, int]] = []  # ns, host-speed scale, samples
        self.calls = self.open_samples = 0
        self.open_times = array.array("q")
        self.before = self.speed.sample()
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        first, _ = self.one_pass(None)
        failed = 0
        while time.perf_counter_ns() < deadline:
            events, complete = self.one_pass(deadline)
            if complete and events != first:
                failed += 1
        rss = peak_rss_mb()
        fed = sum(b[2] for b in self.blocks) + self.open_samples
        if not self.blocks:
            self.close_block()
        block_ns, scales, block_samples = zip(*self.blocks)
        timed = int(self.normalised.counts.sum())
        figures = timing_figures(block_ns, scales, block_samples)
        figures["op_ms_p50"] = self.normalised.percentile(50) / 1e6
        figures["op_ms_p50_raw"] = self.raw.percentile(50) / 1e6

        rows = [(e.start_index, e.end_index, e.peak_metric) for e in first]
        problems = [f"{failed} streaming passes differ from the first"] if failed else []
        mismatched = stream_mismatches(rows, self.reference)
        if len(rows) != len(self.reference) or any(
                r[:2] != q[:2] for r, q in zip(rows, self.reference)):
            problems.append("streaming event bounds differ from batch detect_frames")
        fail_frac, truth_problems = self.truth_stats(rows)
        planted = len(self.truth["frames"]["start"])
        calls = self.calls
        return {
            **figures, "peak_rss_mb": rss,
            "ops": calls, "units": fed / len(self.samples), "failed": failed, "samples": fed,
            "digest": hashlib.sha256(repr(rows).encode()).hexdigest(),
            "problems": problems + truth_problems,
            "extra": {
                "chunk_latency_us_p50": [self.normalised.percentile(50) / 1e3, "us", timed],
                "chunk_latency_us_p99": [self.normalised.percentile(99) / 1e3, "us", timed],
                "fail_frac": [fail_frac, "ratio", planted],
                "batch_mismatch_frac": [mismatched / max(len(rows), 1), "ratio", len(rows)],
            },
            "context_frac": self.context * calls / fed,
        }


def stream_mismatches(stream, batch) -> int:
    """Streaming events that do not equal their batch counterpart.

    Start and end must match exactly and the peak metric to within
    ``PEAK_REL_TOL``; unpaired events on either side count as mismatches.
    """
    bad = abs(len(stream) - len(batch))
    for (s0, e0, p0), (s1, e1, p1) in zip(stream, batch):
        if (s0, e0) != (s1, e1) or abs(p0 - p1) > PEAK_REL_TOL * abs(p1):
            bad += 1
    return bad


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "blas unknown"


WORKLOADS = {"mc_four_stage": MonteCarlo, "capture_batch": CaptureBatch,
             "capture_stream": CaptureStream}


def layer_metrics(tracer: spans.Tracer, result: dict, capture_bytes: int):
    """Per-layer figures from the traced run, keyed as in BENCHMARK.json.

    Counts, busy and self times and megabytes are per unit of work (one
    report, one detect call, one pass over the capture), so they do not grow
    with the length of the run. Percentiles are over single calls. Returns
    (figures, sample count of each percentile).
    """
    summary = tracer.summary()
    units = result["units"]
    empty = {"calls": 0, "busy_ns": 0, "self_ns": 0, "durations": []}
    out, samples = {}, {}

    def calls(label):
        return summary.get(label, empty)["calls"] / units

    def seconds(label, kind="busy_ns"):
        return summary.get(label, empty)[kind] / 1e9 / units

    def micros(label, q):
        durations = summary.get(label, empty)["durations"]
        samples[f"{label}.us_p{q}"] = len(durations)
        return percentile(durations, q) / 1e3 if durations else 0.0

    for label in ("time_sync.estimate_timing", "channel.transmit",
                  "frame_detect.detect_frames", "frame_detect.stream_process"):
        out[f"{label}.calls"] = calls(label)
        out[f"{label}.busy_s"] = seconds(label)
        out[f"{label}.us_p50"] = micros(label, 50)
    out["frame_detect.stream_process.us_p99"] = micros("frame_detect.stream_process", 99)
    out["frame_detect.stream_context_frac"] = result.get("context_frac", 0.0)
    out["preamble.generate_preamble.calls"] = calls("preamble.generate_preamble")
    out["harness.run_trials.self_s"] = seconds("harness.run_trials", "self_ns")
    out["cfo.estimate_cfo.busy_s"] = seconds("cfo.estimate_cfo")
    out["cfo.estimate_cfo.us_p50"] = micros("cfo.estimate_cfo", 50)
    out["harness.emit_report.busy_s"] = seconds("harness.emit_report")
    out["iqfile.read_iq.busy_s"] = seconds("iqfile.read_iq")
    out["iqfile.read_iq.mb"] = calls("iqfile.read_iq") * capture_bytes / 1e6
    out["cli.main.self_s"] = seconds("cli.main", "self_ns")
    validated = tracer.counters[spans.VALIDATED[2]]
    out["core.SampleBuffer.samples_validated"] = validated / result["samples"]
    return out, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one ofdmsync benchmark workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--src", type=Path, required=True, help="the checkout's src directory")
    parser.add_argument("--work", type=Path, required=True, help="scratch directory for outputs")
    parser.add_argument("--plan", type=Path)
    parser.add_argument("--capture", type=Path)
    parser.add_argument("--truth", type=Path)
    parser.add_argument("--reference", type=Path)
    parser.add_argument("--trace", type=Path, default=None, metavar="SPANS",
                        help="record spans and write them to SPANS")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import ofdmsync
    if args.src.resolve() not in Path(ofdmsync.__file__).resolve().parents:
        print(f"ofdmsync imported from {ofdmsync.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace is not None:
        tracer = spans.Tracer(workload.ctx_label)
        tracer.install()
    try:
        result = workload.run(args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["numpy"] = f"{np.__version__} ({blas_name()})"
    if tracer is not None:
        capture_bytes = args.capture.stat().st_size if args.capture else 0
        result["layers"], result["layer_samples"] = layer_metrics(tracer, result, capture_bytes)
        tracer.write(args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
