import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdmsync import harness
from ofdmsync import (ChannelConfig, ConfigError, EstimationError, TimeSyncConfig, TrialPlan,
                      detect_frames, emit_report, estimate_cfo, estimate_timing,
                      generate_preamble, load_plan, preamble_train, run_trials, transmit,
                      variance)
from ofdmsync.channel import UNIT_TAP, resolve_taps
from ofdmsync.cli import main
from ofdmsync.core import BLOCK_LEN, MAX_GENERATED_SAMPLES
from ofdmsync.time_sync import default_search_window
from ofdmsync.iqfile import ROWS_PER_WRITE

# Frozen regression values for the seeded Monte Carlo runs below (numpy
# Generator streams are stability-guaranteed, so these reproduce bit-for-bit
# on one platform and to float accuracy elsewhere).
CFO_VAR_10DB = 4333195.787103923
CFO_VAR_0DB = 207913099.61999452

# Four-stage outcome on the etsi_c multipath channel with CFO and tail noise
# (10 dB, 100 kHz, offset 30, 200 trials, base_seed 0): stage -> (failures, sigma2).
MULTIPATH_FOUR_STAGE = {
    "frame": (2, 225.27017651260078),
    "time_sts": (0, 41.57749999999999),
    "time_lts": (0, 0.029899999999999993),
    "cfo": (0, 10452457.03330435),
}

# sha256 over the emit_report files (sorted by name; name, NUL, bytes, NUL)
# for the plan above and for a noiseless single-tap plan, written down before
# the per-trial path was optimised: every report byte must stay the same.
# Re-pinned once, when window sums took one fixed addition order: the cfo
# values moved by at most 9 ULP, every frame and timing byte stayed.
REPORT_SHA256_FOUR_STAGE = "e14075775f2d82cbb510dc76ba511a57401c71dac7fdf7316fae2d8b718ae675"
REPORT_SHA256_CLEAN = "ebace244cd1c7784f593ff8893e28e8795b0b98b7af074f92da60e09b1bf2352"
# The four-stage plan above at 0 dB, where no trial has a frame event: the frame
# stage's first block is scanned again whole after its short first pass, and
# every later block whole at once. Written down before that pass existed.
REPORT_SHA256_FOUR_STAGE_0DB = "76af72e4a2a32abe22de14b6f684e1da73e49169ee7dcf49b484e5862da043a1"
# Two etsi_a plans, written down before the stages became one table: the
# four-stage plan above on etsi_a, and a stage subset in a non-canonical order
# (cfo, time_lts, frame; 12 dB, -50 kHz, offset 7, base_seed 5).
REPORT_SHA256_ETSI_A = "cd4a8e35d04b6f10bd2dc4f0524490015caca884381db0dbcc8e4cbd539c8f3e"
REPORT_SHA256_ETSI_A_SUBSET = "a73657f928f8c309efef3a5fdf815ee306604e96e45fc8a5f60854f44063fac1"


def two_pass_variance(values):
    """Textbook population variance, summed with math.fsum."""
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values) / len(values)


# --- variance -----------------------------------------------------------------

def test_variance_constant_sequence():
    assert variance([5, 5, 5]) == 0.0


def test_variance_hand_computed():
    assert variance([1, 2, 3]) == pytest.approx(2 / 3, rel=1e-15)


def test_variance_single_sample():
    assert variance([4.2]) == 0.0


def test_variance_empty_errors():
    with pytest.raises(ConfigError):
        variance([])


def test_variance_matches_two_pass_oracle(rng):
    for _ in range(20):
        values = rng.standard_normal(rng.integers(1, 400)) * 50 + 10
        assert variance(values) == pytest.approx(two_pass_variance(values.tolist()),
                                                 rel=1e-12)


def test_variance_uses_population_denominator():
    values = [1.0, 2.0, 3.0, 4.0]
    assert variance(values) == pytest.approx(1.25)          # /N
    assert np.var(values, ddof=1) == pytest.approx(5 / 3)   # /N-1, for contrast


# --- run_trials ------------------------------------------------------------------

def test_noiseless_trials_identical_positions():
    plan = TrialPlan(n_trials=10, channel=ChannelConfig(),
                     stages=("time_sts", "time_lts"), base_seed=3)
    res = run_trials(plan)
    assert res["time_sts"].values == [160.0] * 10
    assert res["time_lts"].values == [320.0] * 10
    assert res["time_sts"].variance == 0.0
    assert res["time_lts"].variance == 0.0
    assert res["time_sts"].failures == 0


def test_noiseless_trials_with_offset_and_cfo():
    plan = TrialPlan(n_trials=4,
                     channel=ChannelConfig(cfo_hz=100e3, timing_offset=21),
                     stages=("frame", "time_sts", "time_lts", "cfo"), base_seed=0)
    res = run_trials(plan)
    assert res["time_sts"].values == [181.0] * 4
    assert res["time_lts"].values == [341.0] * 4
    # partially-covered windows cross the threshold once 12 of 16 products
    # are coherent, so the run opens 4 samples ahead of the frame
    assert res["frame"].values == [17.0] * 4
    assert res["cfo"].mean == pytest.approx(100e3, abs=1.0)
    assert res["cfo"].variance == pytest.approx(0.0, abs=1e-6)


def test_trials_deterministic():
    plan = TrialPlan(n_trials=25, channel=ChannelConfig(snr_db=5.0),
                     stages=("time_sts", "cfo"), base_seed=11)
    a = run_trials(plan)
    b = run_trials(plan)
    for stage in plan.stages:
        assert a[stage].values == b[stage].values
        assert a[stage].variance == b[stage].variance


def test_timing_regression_10db():
    plan = TrialPlan(n_trials=300, channel=ChannelConfig(snr_db=10.0),
                     stages=("time_sts", "time_lts"), base_seed=1234)
    res = run_trials(plan)
    # at this SNR the matched-filter margin is wide enough that every trial
    # lands exactly on the landmark; pinned after first computation
    assert res["time_sts"].values == [160.0] * 300
    assert res["time_lts"].values == [320.0] * 300
    assert res["time_sts"].variance == 0.0
    assert res["time_lts"].variance == 0.0


def test_timing_variance_below_one_at_20db():
    plan = TrialPlan(n_trials=300, channel=ChannelConfig(snr_db=20.0),
                     stages=("time_sts", "time_lts"), base_seed=8)
    res = run_trials(plan)
    assert res["time_sts"].variance < 1.0
    assert res["time_lts"].variance < 1.0


def test_timing_spread_0db_unimodal():
    plan = TrialPlan(n_trials=300, channel=ChannelConfig(snr_db=0.0),
                     stages=("time_sts",), base_seed=1234)
    stats = run_trials(plan)["time_sts"]
    values, counts = np.unique(stats.values, return_counts=True)
    assert values[np.argmax(counts)] == 160.0
    assert counts.max() >= 0.9 * len(stats.values)
    assert stats.variance == pytest.approx(15.3211, rel=1e-4)


def test_cfo_variance_regression_and_monotonicity():
    out = {}
    for snr in (10.0, 0.0):
        plan = TrialPlan(n_trials=300, channel=ChannelConfig(snr_db=snr, cfo_hz=0.0),
                         stages=("cfo",), base_seed=1234)
        out[snr] = run_trials(plan)["cfo"]
        assert out[snr].failures == 0
        assert math.isfinite(out[snr].variance)
    assert out[10.0].variance == pytest.approx(CFO_VAR_10DB, rel=1e-6)
    assert out[0.0].variance == pytest.approx(CFO_VAR_0DB, rel=1e-6)
    assert out[0.0].variance > out[10.0].variance


def test_multipath_four_stage_regression():
    plan = TrialPlan(n_trials=200, stages=("frame", "time_sts", "time_lts", "cfo"),
                     channel=ChannelConfig(snr_db=10.0, cfo_hz=100e3, timing_offset=30,
                                           taps=resolve_taps("etsi_c")))
    res = run_trials(plan)
    for stage, (failures, sigma2) in MULTIPATH_FOUR_STAGE.items():
        assert res[stage].failures == failures
        assert res[stage].variance == pytest.approx(sigma2, rel=1e-9)


def per_trial_reference(plan):
    """stage -> (values, trial indices, failures), one trial at a time."""
    out = {stage: ([], [], 0) for stage in plan.stages}
    offset = plan.channel.timing_offset
    for i in range(plan.n_trials):
        rx = transmit(generate_preamble(), plan.channel, tail_len=plan.gap_len,
                      seed=plan.base_seed + i)
        for stage in plan.stages:
            value = None
            if stage == "frame":
                events = detect_frames(rx)
                if events:
                    value = float(events[0].start_index)
            elif stage == "cfo":
                try:
                    value = estimate_cfo(rx, 16, (offset, offset + 129)).delta_f_hz
                except EstimationError:
                    pass
            else:
                template = stage[len("time_"):]
                start, length = default_search_window(template)
                sync = TimeSyncConfig(template=template, search_window=(start + offset, length))
                value = float(estimate_timing(rx, sync).n_xc_max)
            values, indices, failures = out[stage]
            if value is None:
                out[stage] = (values, indices, failures + 1)
            else:
                values.append(value)
                indices.append(i)
    return out


@settings(max_examples=100, deadline=None)
@given(snr_db=st.one_of(st.none(), st.floats(-5, 30)),
       taps=st.sampled_from(["unit", "etsi_a", "etsi_c"]),
       offset=st.integers(0, 80), gap_len=st.integers(0, 600),
       cfo_hz=st.floats(-300e3, 300e3),
       stages=st.lists(st.sampled_from(harness.STAGES), min_size=1, max_size=4, unique=True),
       size=st.sampled_from(["1", "B-1", "B+1", "3B"]), base_seed=st.integers(0, 2**31))
# one trial buffer longer than a kernel step: each block is one row over two steps
@example(snr_db=10.0, taps="etsi_c", offset=30, gap_len=9000, cfo_hz=100e3,
         stages=["frame", "cfo"], size="3B", base_seed=7)
# The frame stage's short first pass reads each row's first PREFIX = offset + 160
# + (largest tap delay) + 32 samples. The first block's rows 0, 1, 6 and 9 have no
# event settled there and are scanned whole; the second block, all settled, is
# scanned whole after them, and the third takes the short pass again.
@example(snr_db=8.0, taps="etsi_c", offset=30, gap_len=400, cfo_hz=100e3,
         stages=list(harness.STAGES), size="3B", base_seed=63)
# Paths every 16 samples keep the metric 16-periodic past the short training, and a
# faint last path sets the prefix: the noiseless run ends at output 347, which
# with the last path at delay 188 is the last output but one that PREFIX gives,
# so the output that closes it is the last one; at delay 186 the run goes on past
# the prefix, and the pass over it closes the run at the prefix's end instead.
@example(snr_db=None, taps=((0, 1), (16, 1), (32, 1), (48, 1), (188, 1e-3)), offset=0,
         gap_len=400, cfo_hz=0.0, stages=["frame"], size="B+1", base_seed=0)
@example(snr_db=None, taps=((0, 1), (16, 1), (32, 1), (48, 1), (186, 1e-3)), offset=0,
         gap_len=400, cfo_hz=0.0, stages=["frame"], size="B+1", base_seed=0)
# a prefix longer than a kernel step, in blocks of one row
@example(snr_db=10.0, taps="etsi_c", offset=9000, gap_len=400, cfo_hz=100e3,
         stages=list(harness.STAGES), size="B+1", base_seed=3)
def test_block_stages_equal_the_per_trial_reference(snr_db, taps, offset, gap_len, cfo_hz,
                                                    stages, size, base_seed):
    if isinstance(taps, str):
        taps = UNIT_TAP if taps == "unit" else resolve_taps(taps)
    channel = ChannelConfig(snr_db=snr_db, cfo_hz=cfo_hz, timing_offset=offset, taps=taps)
    max_delay = channel.taps[-1][0]
    if "time_lts" in stages:
        gap_len = max(gap_len, 127 - max_delay)
    block = max(1, BLOCK_LEN // (offset + 320 + gap_len + max_delay))
    n_trials = {"1": 1, "B-1": max(1, block - 1), "B+1": block + 1, "3B": 3 * block}[size]
    plan = TrialPlan(n_trials=n_trials, channel=channel, stages=tuple(stages),
                     base_seed=base_seed, gap_len=gap_len)
    got = run_trials(plan)
    want = per_trial_reference(plan)
    assert list(got) == list(want)
    for stage, (values, indices, failures) in want.items():
        assert (got[stage].values, got[stage].trial_indices, got[stage].failures) == (
            values, indices, failures)


def report_sha256(plan, out_dir):
    h = hashlib.sha256()
    for path in sorted(emit_report(run_trials(plan), out_dir, plan)):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("plan, digest", [
    (TrialPlan(n_trials=200, stages=("frame", "time_sts", "time_lts", "cfo"),
               channel=ChannelConfig(snr_db=10.0, cfo_hz=100e3, timing_offset=30,
                                     taps=resolve_taps("etsi_c"))),
     REPORT_SHA256_FOUR_STAGE),
    (TrialPlan(n_trials=50, stages=("frame", "time_sts", "time_lts", "cfo"),
               channel=ChannelConfig(cfo_hz=-75e3, timing_offset=13)),
     REPORT_SHA256_CLEAN),
    (TrialPlan(n_trials=200, stages=("frame", "time_sts", "time_lts", "cfo"),
               channel=ChannelConfig(snr_db=0.0, cfo_hz=100e3, timing_offset=30,
                                     taps=resolve_taps("etsi_c"))),
     REPORT_SHA256_FOUR_STAGE_0DB),
    (TrialPlan(n_trials=200, stages=("frame", "time_sts", "time_lts", "cfo"),
               channel=ChannelConfig(snr_db=10.0, cfo_hz=100e3, timing_offset=30,
                                     taps=resolve_taps("etsi_a"))),
     REPORT_SHA256_ETSI_A),
    (TrialPlan(n_trials=200, stages=("cfo", "time_lts", "frame"), base_seed=5,
               channel=ChannelConfig(snr_db=12.0, cfo_hz=-50e3, timing_offset=7,
                                     taps=resolve_taps("etsi_a"))),
     REPORT_SHA256_ETSI_A_SUBSET),
], ids=["etsi_c-four-stage", "clean-noiseless", "etsi_c-four-stage-0db", "etsi_a-four-stage",
        "etsi_a-stage-subset"])
def test_report_bytes_pinned(plan, digest, tmp_path):
    assert report_sha256(plan, tmp_path) == digest


# sha256 of CLI output files, written down before the CSV writers were merged
# into one: every trace and sample-file byte must stay the same. The cfo
# traces were re-pinned with the report digests above. The long cfo trace
# (70289 rows) spans more than one ROWS_PER_WRITE block.
@pytest.mark.parametrize("argv, digest", [
    (["timesync", "--template", "lts", "--snr-db", "15", "--timing-offset", "40",
      "--seed", "3", "--trace", "OUT"],
     "cdabe44b4d7f016ff1cd704a980b73e54a3c09c5b600505fe23c8c89ab58bbe1"),
    (["cfo", "--cfo-hz", "120e3", "--snr-db", "20", "--seed", "4", "--trace", "OUT"],
     "fbe87c09e9c25508eb2aa48d52f1a5bdfad1eb83197964715e8aea049e3f3312"),
    (["cfo", "--cfo-hz", "120e3", "--snr-db", "20", "--seed", "4", "--gap-len", "70000",
      "--trace", "OUT"],
     "eae6249d9375cee05215a1d506beddab168618ee37ba901a8b34a0bb4c0a1971"),
    (["channel", "--snr-db", "15", "--cfo-hz", "120e3", "--timing-offset", "40",
      "--taps", "etsi_a", "--seed", "3", "--format", "csv", "--out", "OUT"],
     "1a0b16841fb14d71a4e2b67d720ca6fc941e37d4d12d6b004d3956aa5f95b61b"),
    (["preamble", "--format", "csv", "--out", "OUT"],
     "973b1d546c848ba5386d281e3257c051f324d906d9e9b4b3598a6dc49c4b42ab"),
], ids=["timesync-trace", "cfo-trace", "cfo-trace-long", "channel-csv", "preamble-csv"])
def test_cli_output_bytes_pinned(argv, digest, tmp_path):
    out = tmp_path / "out.csv"
    assert main([str(out) if arg == "OUT" else arg for arg in argv]) == 0
    data = out.read_bytes()
    if "--gap-len" in argv:
        assert data.count(b"\n") > ROWS_PER_WRITE + 1
    assert hashlib.sha256(data).hexdigest() == digest


def test_trials_at_the_top_snr_report_a_one_bin_cfo_histogram(tmp_path, capsys):
    # the cfo values are a few ULPs apart, and no finite bin width fits
    # between them, so the histogram falls back to one bin over their range
    plan = tmp_path / "plan.cfg"
    plan.write_text("n_trials = 50\nstages = frame, time_sts, time_lts, cfo\nsnr_db = 300\n"
                    "cfo_hz = 100e3\ntiming_offset = 30\ntaps = etsi_c\n")
    assert main(["trials", "--config", str(plan), "--out", str(tmp_path / "report")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = (tmp_path / "report" / "cfo_histogram.csv").read_text().splitlines()
    values = [float(line.split(",")[1])
              for line in (tmp_path / "report" / "cfo_trials.csv").read_text().splitlines()[1:]]
    assert len(values) == 50 and min(values) < max(values)
    assert rows[0] == "bin_center,count" and len(rows) == 2
    assert rows[1] == f"{(min(values) + max(values)) / 2!r},50"


def test_frame_stage_counts_failures_when_nothing_detected():
    # at 0 dB the exact metric plateaus near 0.25, below the 0.5 threshold
    plan = TrialPlan(n_trials=20, channel=ChannelConfig(snr_db=0.0),
                     stages=("frame",), base_seed=7)
    stats = run_trials(plan)["frame"]
    assert stats.failures == 20
    assert stats.values == []
    assert math.isnan(stats.variance)


def test_plan_validation():
    with pytest.raises(ConfigError):
        TrialPlan(n_trials=0)
    with pytest.raises(ConfigError):
        TrialPlan(stages=("nope",))
    with pytest.raises(ConfigError, match="listed once"):
        TrialPlan(n_trials=5, stages=("cfo", "cfo"))
    # stages is a sequence of names: neither a number nor one name's letters
    for bad in (5, "frame", None):
        with pytest.raises(ConfigError, match="stages must be a sequence of stage names"):
            TrialPlan(stages=bad)
    with pytest.raises(ConfigError, match=r"unknown stage \['x'\]"):
        TrialPlan(stages=(["x"],))
    for bad in (5, None, {"snr_db": 10}):
        with pytest.raises(ConfigError, match="channel must be a ChannelConfig"):
            TrialPlan(channel=bad)
    with pytest.raises(ConfigError):
        TrialPlan(gap_len=-1)
    with pytest.raises(ConfigError, match="gap_len must lie in"):
        TrialPlan(gap_len=MAX_GENERATED_SAMPLES + 1)
    with pytest.raises(ConfigError, match="seed cannot be negative"):
        run_trials(TrialPlan(n_trials=1, base_seed=-1))
    # counts, seeds and lengths are integers: a float is rejected, not truncated
    for key, bad in (("n_trials", 2.5), ("gap_len", 400.7), ("gap_len", 400.0),
                     ("base_seed", 1.5)):
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            TrialPlan(**{key: bad})
    plan = TrialPlan(n_trials=np.int64(3), gap_len=np.int32(400), base_seed=np.uint16(2))
    assert (plan.n_trials, plan.gap_len, plan.base_seed) == (3, 400, 2)
    assert {type(plan.n_trials), type(plan.gap_len), type(plan.base_seed)} == {int}


@pytest.mark.parametrize("taps", ["unit", "etsi_a", "etsi_c"])
def test_plan_rejects_an_lts_window_past_the_trial_buffer(taps):
    # The long template's search window ends 127 samples past the frame's
    # last sample, which the gap and the channel's delay spread must cover.
    channel = ChannelConfig(taps=UNIT_TAP if taps == "unit" else resolve_taps(taps),
                            timing_offset=9)
    least = 127 - channel.taps[-1][0]
    with pytest.raises(ConfigError, match=f"gap_len {least - 1} .*at least {least}$"):
        TrialPlan(n_trials=1, channel=channel, stages=("time_sts", "time_lts"),
                  gap_len=least - 1)
    plan = TrialPlan(n_trials=1, channel=channel, stages=("time_lts",), gap_len=least)
    assert run_trials(plan)["time_lts"].failures == 0
    assert TrialPlan(n_trials=1, channel=channel, stages=("time_sts", "frame", "cfo"),
                     gap_len=0).gap_len == 0


def test_every_trial_gets_the_plan_channel_and_its_own_seed(monkeypatch):
    # one config object per run, so transmit's slot keeps its frame; only
    # the seed changes from trial to trial
    calls = []
    transmit = harness.transmit

    def recording(preamble, cfg, tail_len=0, *, seed=0):
        calls.append((cfg, seed))
        return transmit(preamble, cfg, tail_len, seed=seed)

    monkeypatch.setattr(harness, "transmit", recording)
    plan = TrialPlan(n_trials=6, channel=ChannelConfig(snr_db=10.0, cfo_hz=5e4),
                     stages=("cfo",), base_seed=40)
    run_trials(plan)
    assert all(cfg is plan.channel for cfg, _ in calls)
    assert [seed for _, seed in calls] == list(range(40, 46))


# --- preamble_train ---------------------------------------------------------------

def test_preamble_train_layout(preamble):
    train = preamble_train(preamble, 3, 100)
    assert len(train) == 3 * 420
    assert np.array_equal(train.samples[:320], preamble.samples)
    assert np.array_equal(train.samples[320:420], np.zeros(100))
    with pytest.raises(ConfigError, match="more than"):
        preamble_train(preamble, MAX_GENERATED_SAMPLES // 420 + 1, 100)
    for count, gap_len, message in ((0, 100, "count must lie in"), (-1, 100, "count must lie in"),
                                    (2, -1, "gap_len must lie in")):
        with pytest.raises(ConfigError, match=message):
            preamble_train(preamble, count, gap_len)
    with pytest.raises(ConfigError, match="count must be an integer"):
        preamble_train(preamble, 2.0, 100)


# --- reports and plan files ---------------------------------------------------------

def test_emit_report_files(tmp_path):
    plan = TrialPlan(n_trials=12, channel=ChannelConfig(snr_db=10.0, cfo_hz=5e4),
                     stages=("time_sts", "cfo"), base_seed=5)
    results = run_trials(plan)
    paths = emit_report(results, tmp_path / "out", plan)
    names = sorted(p.name for p in paths)
    assert names == sorted(["summary.csv", "time_sts_trials.csv",
                            "time_sts_histogram.csv", "cfo_trials.csv",
                            "cfo_histogram.csv"])
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[0] == "algorithm,trials,sigma2,failures"
    assert summary[1].startswith("time_sts,12,")
    assert summary[2].startswith("cfo,12,")
    cfo_rows = (tmp_path / "out" / "cfo_trials.csv").read_text().splitlines()
    assert cfo_rows[0] == "trial,value,injected_cfo_hz"
    assert len(cfo_rows) == 13
    assert cfo_rows[1].endswith(",50000.0")
    hist = (tmp_path / "out" / "time_sts_histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_center,count"


def test_emit_report_takes_the_statistics_of_known_stages(tmp_path):
    plan = TrialPlan(n_trials=2, stages=("time_sts",))
    stats = run_trials(plan)["time_sts"]
    for results in ({}, {"nope": stats}, {"time_sts": stats, "frames": stats}):
        with pytest.raises(ConfigError, match="results must map stages"):
            emit_report(results, tmp_path, plan)


def test_emit_report_noiseless_sigma_zero(tmp_path):
    plan = TrialPlan(n_trials=5, channel=ChannelConfig(), stages=("time_sts",))
    paths = emit_report(run_trials(plan), tmp_path, plan)
    summary = next(p for p in paths if p.name == "summary.csv").read_text()
    assert "time_sts,5,0.0,0" in summary


def test_load_plan_roundtrip(tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(
        "# comment line\n"
        "n_trials = 42\n"
        "base_seed = 9\n"
        "stages = time_sts, cfo\n"
        "snr_db = 10\n"
        "cfo_hz = 100e3\n"
        "timing_offset = 12\n"
        "gap_len = 500\n")
    plan = load_plan(cfg)
    assert plan.n_trials == 42
    assert plan.base_seed == 9
    assert plan.stages == ("time_sts", "cfo")
    assert plan.channel.snr_db == 10.0
    assert plan.channel.cfo_hz == 100e3
    assert plan.channel.timing_offset == 12
    assert plan.gap_len == 500


def test_load_plan_noiseless_and_defaults(tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("snr_db = none\n")
    plan = load_plan(cfg)
    assert plan.channel.snr_db is None
    assert plan.n_trials == 300
    assert plan.stages == ("time_sts", "time_lts")


def test_a_plan_of_comments_only_loads_the_default_plan(tmp_path):
    # a key a plan leaves out keeps its config's default
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("# nothing set\n\n   # indented\n")
    assert load_plan(cfg) == TrialPlan()


def test_load_plan_taps_profile(tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("taps = etsi_a\nn_trials = 1\n")
    plan = load_plan(cfg)
    assert len(plan.channel.taps) > 1


def test_load_plan_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_plan(tmp_path / "missing.cfg")
    bad = tmp_path / "bad.cfg"
    for key in ("frobnicate = 3\n", "gap_fill = zeros\n"):
        bad.write_text(key)
        with pytest.raises(ConfigError, match="unknown key"):
            load_plan(bad)
    bad.write_text("n_trials = 5\nn_trials = 6\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_plan(bad)
    bad.write_text("n_trials five\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_plan(bad)
    bad.write_text("base_seed = -1\n")
    with pytest.raises(ConfigError, match="seed cannot be negative"):
        load_plan(bad)
    bad.write_text("stages = cfo, frame, cfo\n")
    with pytest.raises(ConfigError, match="listed once"):
        load_plan(bad)
    for key in ("timing_offset", "gap_len"):
        bad.write_text(f"{key} = {10**15}\n")
        with pytest.raises(ConfigError, match=f"{key} must lie in"):
            load_plan(bad)
