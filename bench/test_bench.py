"""Tests of the benchmark itself: capture determinism, span accounting, metric names."""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import capture  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_capture_is_deterministic_per_seed(tmp_path):
    paths = [capture.write_capture(tmp_path / name, seed, slots=3)
             for name, seed in (("a", 7), ("b", 7), ("c", 8))]
    (iq_a, truth_a), (iq_b, truth_b), (iq_c, _) = paths
    assert iq_a.read_bytes() == iq_b.read_bytes()
    assert truth_a.read_text() == truth_b.read_text()
    assert iq_a.read_bytes() != iq_c.read_bytes()
    assert iq_a.stat().st_size == 8 * 3 * capture.SLOT_LEN


def test_planted_frames_stay_inside_their_slots():
    frames = capture.plan_frames(3)
    assert len(frames["start"]) == capture.SLOTS
    for k, start in enumerate(frames["start"]):
        offset = start - k * capture.SLOT_LEN
        assert capture.EDGE <= offset <= capture.SLOT_LEN - capture.EDGE - 320 - 22
    assert min(frames["snr_db"]) < 5.0 < max(frames["snr_db"])  # reaches below the knee
    assert max(abs(f) for f in frames["cfo_hz"]) <= capture.MAX_CFO_HZ


def test_match_events_tolerance():
    truth = {"max_delay": 21, "frames": {"start": [1000, 6000, 11000],
                                         "snr_db": [20.0, 3.0, 15.0]}}
    span = capture.LAG_WINDOW_SPAN
    events = [
        (1000 - span, 1100),  # earliest start that can still see frame 0
        (1000 + 150, 1200),   # a second run on frame 0: spurious
        (11000 + capture.STS_LEN + 21 - 1, 11300),  # latest start on frame 2
        (11000 + capture.STS_LEN + 21, 11400),  # one later: on no frame
        (6000 - span - 1, 6050),  # one earlier than frame 1 allows: on no frame
    ]
    match = capture.match_events(events, truth, strong_snr_db=12.0)
    assert match == {"detected": 2, "missed": 1, "spurious": 3, "false_alarms": 2,
                     "strong_missed": 0}
    assert capture.match_events([], truth, 12.0)["strong_missed"] == 2


def test_chunk_bounds_cover_the_stream():
    a = workloads.chunk_bounds(5, 300_000)
    assert np.array_equal(a, workloads.chunk_bounds(5, 300_000))
    sizes = np.diff(a)
    assert a[0] == 0 and a[-1] == 300_000
    assert sizes.min() >= 1 and sizes[:-1].max() <= workloads.MAX_CHUNK
    assert sizes.min() < 16 and sizes.max() > 1024  # spans the 1..4096 range


def test_timing_figures_normalise_by_host_speed():
    figures = workloads.timing_figures([2000, 4000, 3000], [1.0, 0.5, 1.0], [10, 10, 30])
    assert figures["rates"] == [5.0, 5.0, 10.0]
    assert figures["rates_raw"] == [5.0, 2.5, 10.0]
    assert figures["op_ms_p50"] == 2000 / 1e6 and figures["op_ms_p50_raw"] == 3000 / 1e6
    assert figures["host_scale"] == 1.0


def test_histogram_percentiles_within_a_bin():
    hist = workloads.Histogram()
    hist.add(np.array([1000] * 60 + [2000] * 39 + [50_000]))
    assert hist.percentile(50) == pytest.approx(1000, rel=1e-3)
    assert hist.percentile(90) == pytest.approx(2000, rel=1e-3)
    assert hist.percentile(100) == pytest.approx(50_000, rel=1e-3)
    assert hist.counts.sum() == 100


def test_host_speed_scale():
    for kind in hostspeed.KERNELS:
        assert hostspeed.HostSpeed(kind).sample() > 0
    speed = hostspeed.HostSpeed("interp")
    assert speed.scale(speed.ref_ns, speed.ref_ns) == 1.0
    assert speed.scale(2 * speed.ref_ns, 2 * speed.ref_ns) == 0.5  # a host running at half speed


def test_stream_mismatches():
    batch = [(10, 50, 0.9), (100, 150, 0.8)]
    assert workloads.stream_mismatches(batch, batch) == 0
    assert workloads.stream_mismatches([(10, 50, 0.9 * (1 + 1e-13)), (100, 150, 0.8)], batch) == 0
    assert workloads.stream_mismatches([(10, 50, 0.9 * (1 + 1e-11)), (100, 150, 0.8)], batch) == 1
    assert workloads.stream_mismatches([(10, 51, 0.9)], batch) == 2


def _fake_module():
    mod = types.SimpleNamespace()
    mod.leaf = lambda: sum(range(1000))
    mod.middle = lambda: [mod.leaf() for _ in range(3)]
    mod.top = lambda: (mod.middle(), mod.leaf())
    return mod


def test_self_times_partition_the_root_span(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    tracer = spans.Tracer(ctx_label="middle")
    targets = [("fake_layers", name, name) for name in ("top", "middle", "leaf")]
    assert tracer.install(targets, validated=None) == []
    mod.top()
    mod.top()
    tracer.uninstall()
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    roots = [e - s for s, e, p in zip(tracer.starts, tracer.ends, tracer.parents) if p < 0]
    assert sum(own) == sum(roots)
    summary = tracer.summary()
    assert {k: v["calls"] for k, v in summary.items()} == {"top": 2, "middle": 2, "leaf": 8}
    # top starts before the first middle call opens context 0
    assert tracer.ctxs == [-1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    assert tracer.labels[:2] == ["top", "middle"] and tracer.parents[:3] == [-1, 0, 1]


def test_missing_target_is_skipped():
    tracer = spans.Tracer()
    skipped = tracer.install([("ofdmsync.harness", "no_such_function", "gone"),
                              ("no_such_module", "f", "gone")], validated=None)
    tracer.uninstall()
    assert skipped == ["ofdmsync.harness.no_such_function", "no_such_module.f"]
    assert "gone" not in tracer.summary()


def test_traced_run_trials_accounts_for_its_wall_time(tmp_path):
    from ofdmsync import harness
    from ofdmsync.channel import ChannelConfig, resolve_taps

    plan = harness.TrialPlan(
        n_trials=4, stages=("frame", "time_sts", "time_lts", "cfo"), base_seed=3,
        channel=ChannelConfig(cfo_hz=100e3, snr_db=10, taps=resolve_taps("etsi_c"),
                              timing_offset=30))
    original = harness.run_trials
    tracer = spans.Tracer(ctx_label="channel.transmit")
    assert tracer.install() == []
    try:
        harness.run_trials(plan)
    finally:
        tracer.uninstall()
    assert harness.run_trials is original
    summary = tracer.summary()
    assert summary["preamble.generate_preamble"]["calls"] == 2 * plan.n_trials + 1
    assert summary["channel.transmit"]["calls"] == plan.n_trials
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    assert summary["harness.run_trials"]["busy_ns"] == sum(own)
    transmit_ctx = [c for label, c in zip(tracer.labels, tracer.ctxs) if label == "channel.transmit"]
    assert transmit_ctx == list(range(plan.n_trials))
    assert tracer.counters["core.SampleBuffer.samples_validated"] > 0
    tracer.write(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == len(tracer.labels)


def test_benchmark_json_shape_and_names():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    every = names + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(every) == len(set(every))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_assembled_metrics_match_benchmark_json(workload):
    layers, samples = workloads.layer_metrics(spans.Tracer(), {"units": 2, "samples": 10}, 0)
    common = {"ops": 3, "units": 2, "failed": 0, "samples": 10, "digest": "d",
              **workloads.timing_figures([2000], [1.0], [10]),
              "problems": [], "extra": {"fail_frac": [0.1, "ratio", 4]},
              "peak_rss_mb": 50.0, "numpy": "x"}
    traced = dict(common, layers=layers, layer_samples=samples, op_ms_p50=0.0022)
    result = run.assemble(workload, [(0.2, 1.0)] * run.SETUP_RUNS, common, traced)
    assert set(result["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["per_layer"]["trace_overhead_frac"] == pytest.approx(0.1)
    assert result["per_layer"]["frame_detect.stream_process.calls"] == 0
