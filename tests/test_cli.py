import contextlib
import inspect
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ofdmsync
from ofdmsync import (ChannelConfig, ConfigError, FrameDetectConfig, TimeSyncConfig, TrialPlan,
                      cli, frame_detect, load_plan, read_iq, run_trials)
from ofdmsync.channel import resolve_taps
from ofdmsync.cli import main
from ofdmsync.core import BLOCK_LEN, MAX_GENERATED_SAMPLES
from ofdmsync.harness import PLAN_READERS

from metric_reference import compute_metrics

SUBCOMMANDS = ("preamble", "channel", "detect", "timesync", "cfo", "trials")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- generic behavior ----------------------------------------------------------

@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_help_exits_zero(sub, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([sub, "--help"])
    assert excinfo.value.code == 0
    assert "--" in capsys.readouterr().out


def test_parsed_defaults_build_the_default_configs():
    # each flag's default is its config field's, so a bare command runs the default configs
    parser = cli.build_parser()
    args = parser.parse_args(["detect"])
    assert FrameDetectConfig(lag=args.lag, threshold=args.threshold, min_plateau=args.min_plateau,
                             metric_mode=args.metric_mode) == FrameDetectConfig()
    assert cli._channel_config(args) == ChannelConfig()
    assert args.gap_len == TrialPlan().gap_len
    assert args.seed == TrialPlan().base_seed
    assert TimeSyncConfig(template=parser.parse_args(["timesync"]).template) == TimeSyncConfig()
    assert FrameDetectConfig(lag=parser.parse_args(["cfo"]).lag) == FrameDetectConfig()


_SIZE = {"1e3": "must be an integer, got '1e3'", "x": "must be an integer, got 'x'",
         "-1": "must lie in [0, 16777216], got -1",
         str(10**15): "must lie in [0, 16777216], got 1000000000000000",
         "none": "must be an integer, got 'none'"}


# Each plan key that has a flag: the flag, texts that both read to one value,
# and texts that both reject, with the message that follows "<plan>:<line>:
# <key>" and "argument <flag>:". A tap reference's message is a whole
# sentence, so the plan shows it after "<plan>:<line>:" alone.
@pytest.mark.parametrize("key, flag, good, bad", [
    ("gap_len", "--gap-len", ("127", "400", str(2**24)), _SIZE),
    ("base_seed", "--seed", ("0", "7", str(10**15)),
     {text: f"must be an integer, got '{text}'" for text in ("1e3", "x", "1.5", "none")}),
    ("snr_db", "--snr-db", ("none", "Noiseless", "-1", "10", "1e1"),
     {"x": "must be a number or 'none', got 'x'", "": "must be a number or 'none', got ''"}),
    ("cfo_hz", "--cfo-hz", ("1e3", "-1", str(10**15)),
     {text: f"must be a number, got '{text}'" for text in ("x", "none", "")}),
    ("taps", "--taps", ("etsi_a", "etsi_c"),
     {"": "a tap reference (plan key taps, flag --taps) must be a file path or a built-in "
          "name ('etsi_a', 'etsi_c'), got an empty one"}),
    ("timing_offset", "--timing-offset", ("0", "30", str(2**24)), _SIZE),
], ids=["gap_len", "base_seed", "snr_db", "cfo_hz", "taps", "timing_offset"])
def test_plan_keys_and_their_flags_read_text_alike(tmp_path, capsys, key, flag, good, bad):
    plan = tmp_path / "plan.cfg"
    parser = cli.build_parser()
    dest = flag[2:].replace("-", "_")
    for text in good:
        plan.write_text(f"{key} = {text}\n")
        loaded = load_plan(plan)
        value = getattr(loaded.channel if hasattr(ChannelConfig, key) else loaded, key)
        assert getattr(parser.parse_args(["channel", f"{flag}={text}"]), dest) == value, text
    for text, message in bad.items():
        plan.write_text(f"{key} = {text}\n")
        with pytest.raises(ConfigError) as excinfo:
            load_plan(plan)
        lead = "" if key == "taps" else f"{key} "
        assert str(excinfo.value) == f"{plan}:1: {lead}{message}"
        with pytest.raises(SystemExit) as exited:
            parser.parse_args(["channel", f"{flag}={text}"])
        assert exited.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")


def test_every_plan_key_with_a_flag_is_read_alike():
    # a new plan key either gets a row above or is one that no flag sets
    covered = {"gap_len", "base_seed", "snr_db", "cfo_hz", "taps", "timing_offset"}
    assert set(PLAN_READERS) - covered == {"n_trials", "stages"}


def test_lag_and_window_defaults_are_the_configs():
    # the functions that take a lag or window on their own default to the config's
    cfg = FrameDetectConfig()
    assert _defaults(frame_detect.autocorrelation) == {"lag": cfg.lag, "window": cfg.window}
    assert _defaults(ofdmsync.plateau_from_event) == {"lag": cfg.lag}


def _defaults(function):
    return {name: parameter.default
            for name, parameter in inspect.signature(function).parameters.items()
            if parameter.default is not inspect.Parameter.empty}


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["preamble", "--frobnicate"])
    assert excinfo.value.code == 2


# --- preamble --------------------------------------------------------------------

def test_preamble_iq_output(tmp_path, capsys):
    out = tmp_path / "p.iq"
    code, stdout, _ = run(capsys, "preamble", "--out", str(out))
    assert code == 0
    assert "320 samples" in stdout
    assert "average power 1.000000000" in stdout  # float64 waveform, 1e-9 contract
    buf = read_iq(out)
    assert len(buf) == 320
    assert buf.average_power == pytest.approx(1.0, abs=1e-6)  # float32 on disk


def test_preamble_csv_has_header_plus_320_rows(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code, _, _ = run(capsys, "preamble", "--out", str(out), "--format", "csv")
    assert code == 0
    assert len(out.read_text().splitlines()) == 321


def test_preamble_repeated_runs_identical(tmp_path, capsys):
    a, b = tmp_path / "a.iq", tmp_path / "b.iq"
    run(capsys, "preamble", "--out", str(a))
    run(capsys, "preamble", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# --- channel / detect / timesync / cfo ----------------------------------------------

def test_channel_then_detect_file_pipeline(tmp_path, capsys):
    rx = tmp_path / "rx.iq"
    code, stdout, _ = run(capsys, "channel", "--out", str(rx), "--snr-db", "20",
                          "--cfo-hz", "100e3", "--timing-offset", "50", "--seed", "8")
    assert code == 0
    assert "impaired" in stdout
    code, stdout, _ = run(capsys, "detect", "--in", str(rx))
    assert code == 0
    assert "frame:" in stdout


def test_detect_trace_and_pulse_train(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    # l1_approx also fires on the gaps' noise, far below the unit power it is built for
    for mode, numerator, frames in (("exact", "r_abs2", 3), ("l1_approx", "r_l1", 6)):
        code, stdout, _ = run(capsys, "detect", "--frames", "3", "--snr-db", "20",
                              "--seed", "5", "--metric-mode", mode, "--trace", str(trace))
        assert code == 0
        assert stdout.count("frame:") == frames
        lines = trace.read_text().splitlines()
        assert lines[0] == f"n,{numerator},p_squared,metric,above_threshold"
        assert len(lines) == 2530
        # every row's metric is reproduced from the two operands it was formed from
        for n, line in enumerate(lines[1:]):
            index, num, p_squared, metric, above = line.split(",")
            assert int(index) == n
            assert float(metric) == float(num) / (float(p_squared) + 1e-30), line
            assert above == str(int(float(metric) > 0.5))


def _trace_rows(buf, mode):
    """The rows, without the header, that ``detect --trace`` writes for ``buf``."""
    if len(buf) < 32:  # no room for one lag + window span
        return []
    numerator, p_squared, metric = compute_metrics(buf, FrameDetectConfig(metric_mode=mode))
    return [f"{n},{a!r},{b!r},{c!r},{int(c > 0.5)}" for n, (a, b, c) in enumerate(
        zip(numerator.tolist(), p_squared.tolist(), metric.tolist()))]


@pytest.mark.parametrize("mode", ["exact", "l1_approx"])
def test_detect_trace_runs_the_kernel_once_per_step(tmp_path, capsys, monkeypatch, mode):
    # 12 920 samples: two kernel steps, which give both the trace and the events
    path, trace = tmp_path / "long.iq", tmp_path / "trace.csv"
    assert run(capsys, "channel", "--snr-db", "20", "--timing-offset", "12200",
               "--out", str(path))[0] == 0
    assert len(read_iq(path)) == 12_920
    calls = []
    kernel = frame_detect._metric_kernel

    def counted(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(frame_detect, "_metric_kernel", counted)
    plain = run(capsys, "detect", "--in", str(path), "--metric-mode", mode)
    assert len(calls) == 2
    calls.clear()
    traced = run(capsys, "detect", "--in", str(path), "--metric-mode", mode, "--trace", str(trace))
    assert len(calls) == 2
    assert traced == plain and plain[0] == 0
    assert trace.read_text().splitlines()[1:] == _trace_rows(read_iq(path), mode)


@pytest.mark.parametrize("sub, header", [
    ("detect", "n,r_abs2,p_squared,metric,above_threshold"), ("cfo", "n,r_abs,r_phase"),
], ids=["detect", "cfo"])
def test_trace_of_a_too_short_buffer_keeps_the_exit_code(tmp_path, capsys, sub, header):
    # 20 samples: no room for one lag + window span, so nothing can be detected
    path, trace = tmp_path / "short.iq", tmp_path / "trace.csv"
    path.write_bytes(np.ones(40, "<f4").tobytes())
    assert run(capsys, sub, "--in", str(path))[0] == 1
    code, stdout, _ = run(capsys, sub, "--in", str(path), "--trace", str(trace))
    assert code == 1
    assert "no frame detected" in stdout
    assert trace.read_text() == header + "\n"


def test_detect_noise_only_exits_one(tmp_path, capsys):
    # a channel run with no frame: write pure noise via numpy and read it back
    from ofdmsync import SampleBuffer, write_iq
    rng = np.random.default_rng(1)
    noise = SampleBuffer((rng.standard_normal(4000) + 1j * rng.standard_normal(4000))
                         / np.sqrt(2))
    path = tmp_path / "noise.iq"
    write_iq(noise, path)
    code, stdout, _ = run(capsys, "detect", "--in", str(path))
    assert code == 1
    assert "no frame" in stdout


def _iq_file(path, samples):
    """Write complex samples as interleaved float32 words; returns the word array."""
    words = np.empty(2 * len(samples), "<f4")
    words[0::2], words[1::2] = np.real(samples), np.imag(samples)
    path.write_bytes(words.tobytes())
    return words


def _event_lines(events):
    return "".join(f"frame: samples [{e.start_index}, {e.end_index}] plateau "
                   f"{e.end_index - e.start_index + 1}, peak metric {e.peak_metric:.6f}\n"
                   for e in events)


def test_non_finite_sample_in_a_later_block_prints_no_events(tmp_path, capsys):
    # a frame in block 0 would be detected before the NaN's block is read
    bad = 2 * BLOCK_LEN + 7
    samples = np.zeros(3 * BLOCK_LEN, complex)
    samples[100:420] = ofdmsync.generate_preamble().samples
    path = tmp_path / "late_nan.iq"
    words = _iq_file(path, samples)
    assert run(capsys, "detect", "--in", str(path))[0] == 0
    words[2 * bad + 1] = np.nan
    path.write_bytes(words.tobytes())
    code, stdout, stderr = run(capsys, "detect", "--in", str(path))
    assert (code, stdout) == (3, "")
    assert f"sample {bad} is not finite" in stderr and "Traceback" not in stderr
    # the trace holds the rows of the kernel steps before the bad block
    trace = tmp_path / "trace.csv"
    code, stdout, stderr = run(capsys, "detect", "--in", str(path), "--trace", str(trace))
    assert (code, stdout) == (3, "")
    assert f"sample {bad} is not finite" in stderr
    rows = trace.read_text().splitlines()[1:]
    assert len(rows) == 2 * BLOCK_LEN - 31
    assert rows == _trace_rows(samples.astype(np.complex64), "exact")[:len(rows)]
    path.write_bytes(words[:2 * bad].tobytes() + b"\0" * 5)  # a torn last sample
    code, stdout, stderr = run(capsys, "detect", "--in", str(path))
    assert (code, stdout) == (3, "")
    assert f"trailing 5 bytes start at offset {8 * bad}" in stderr


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([0, 1, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1])
       | st.integers(BLOCK_LEN + 300, 3 * BLOCK_LEN),
       at_edges=st.lists(st.tuples(st.integers(1, 2), st.integers(-250, 50)), max_size=2),
       anywhere=st.lists(st.integers(0, 3 * BLOCK_LEN), max_size=2),
       noise=st.sampled_from([0.0, 0.05, 0.3]), seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from(("exact", "l1_approx")), traced=st.booleans())
@example(n=3 * BLOCK_LEN, at_edges=[(1, -100), (2, -60)], anywhere=[7000], noise=0.05,
         seed=1, mode="exact", traced=True)
def test_streamed_detect_prints_the_batch_events(n, at_edges, anywhere, noise, seed, mode,
                                                 traced):
    # (k, offset) puts a frame at offset from the k-th block edge of the file
    # (the last one, if it has fewer), so that its plateau may span the edge;
    # frames past the end are clipped
    rng = np.random.default_rng(seed)
    samples = noise * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    frame = ofdmsync.generate_preamble().samples
    edges = [min(k, max(n // BLOCK_LEN, 1)) * BLOCK_LEN + offset for k, offset in at_edges]
    for at in edges + anywhere:
        samples[at:at + len(frame)] += frame[:max(n - at, 0)]
    with tempfile.TemporaryDirectory() as tmp:
        path, trace = Path(tmp) / "in.iq", Path(tmp) / "trace.csv"
        _iq_file(path, samples)
        buf = read_iq(path)
        events = ofdmsync.detect_frames(buf, FrameDetectConfig(metric_mode=mode))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["detect", "--in", str(path), "--metric-mode", mode]
                        + (["--trace", str(trace)] if traced else []))
        if traced:  # the file's blocks cut the kernel steps elsewhere than one buffer does
            assert trace.read_text().splitlines()[1:] == _trace_rows(buf, mode)
    assert stdout.getvalue() == (_event_lines(events) or "no frame detected\n")
    assert code == (0 if events else 1)


# Prints this process's peak RSS (KiB) and minor page faults after importing
# the CLI and, given arguments, running it. An exec'd process inherits the
# peak of the one that spawned it, so the work runs in a fork of this small
# process instead.
_RUSAGE = """
import os, resource, sys
if os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
import ofdmsync.cli
if sys.argv[1:]:
    ofdmsync.cli.main(sys.argv[1:])
usage = resource.getrusage(resource.RUSAGE_SELF)
print(usage.ru_maxrss, usage.ru_minflt)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("pieces, traced", [(64, False), (8, True)], ids=["4M", "512K-trace"])
def test_streamed_detect_memory_does_not_grow_with_the_file(tmp_path, pieces, traced):
    # 4M samples: reading the whole file would hold 32 MB of words plus 64 MB
    # of complex128. 512K samples with --trace: a whole-file trace pass would
    # hold 4 MB of words, 8 MB of complex128 and 12 MB of metric arrays.
    rng = np.random.default_rng(2)
    piece = (rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)).astype("<c8")
    path = tmp_path / "long.iq"
    with path.open("wb") as f:
        for _ in range(pieces):
            f.write(piece.tobytes())
    env = {**os.environ, "PYTHONPATH": str(Path(ofdmsync.__file__).parents[1])}

    def usage(*argv):
        proc = subprocess.run([sys.executable, "-c", _RUSAGE, *argv], env=env,
                              capture_output=True, text=True, check=True)
        return np.array(proc.stdout.split()[-2:], dtype=int)

    trace = ["--trace", str(tmp_path / "trace.csv")] if traced else []
    peak_kib, faults = usage("detect", "--in", str(path), *trace) - usage()
    assert peak_kib < 16 * 1024
    # about 250 untraced and 350 traced here: the detector allocates its
    # workspace once, and the trace writes its rows in batches under glibc's
    # mmap threshold, so faults do not grow with the block count (per-call
    # temporaries past that threshold, mapped afresh on every call, once cost
    # about 95k; 65536-row batches of trace text about 17k on 512K samples)
    assert faults < 1000


def test_timesync_landmark(capsys):
    code, stdout, _ = run(capsys, "timesync", "--template", "lts")
    assert code == 0
    assert "n_xc_max 320" in stdout
    assert "error +0" in stdout
    code, stdout, _ = run(capsys, "timesync", "--template", "sts",
                          "--timing-offset", "25")
    assert code == 0
    assert "n_xc_max 185" in stdout
    assert "error +0" in stdout


@pytest.mark.parametrize("frame_start", [0, 30, 200])
@pytest.mark.parametrize("template", ["sts", "lts"])
def test_timesync_searches_around_the_frame_start_of_any_input(tmp_path, capsys, template,
                                                                 frame_start):
    # run_trials, generated timesync and timesync --in place the search window
    # by one rule, so a frame starting at --timing-offset gives one peak in all three
    flags = ["--snr-db", "15", "--cfo-hz", "120e3", "--taps", "etsi_c",
             "--timing-offset", str(frame_start)]
    channel = ChannelConfig(snr_db=15.0, cfo_hz=120e3, taps=resolve_taps("etsi_c"),
                            timing_offset=frame_start)
    stage = f"time_{template}"
    for seed in (1, 5, 9):
        plan = TrialPlan(n_trials=1, channel=channel, stages=(stage,), base_seed=seed,
                         gap_len=400)
        want = f"n_xc_max {int(run_trials(plan)[stage].values[0])},"
        rx = tmp_path / f"rx{seed}.iq"
        assert run(capsys, "channel", *flags, "--seed", str(seed), "--out", str(rx))[0] == 0
        for source in (flags + ["--seed", str(seed)],
                       ["--in", str(rx), "--timing-offset", str(frame_start)]):
            code, stdout, _ = run(capsys, "timesync", "--template", template, *source)
            assert code == 0 and want in stdout, (source, stdout)


def test_cfo_estimate_and_correct(tmp_path, capsys):
    fixed = tmp_path / "fixed.iq"
    code, stdout, _ = run(capsys, "cfo", "--cfo-hz", "200e3", "--out", str(fixed))
    assert code == 0
    assert "cfo:" in stdout
    assert "200000.0" in stdout
    assert fixed.is_file()


def test_cfo_without_frame_exits_one(tmp_path, capsys):
    from ofdmsync import SampleBuffer, write_iq
    rng = np.random.default_rng(2)
    noise = SampleBuffer((rng.standard_normal(3000) + 1j * rng.standard_normal(3000)))
    path = tmp_path / "noise.iq"
    write_iq(noise, path)
    code, stdout, _ = run(capsys, "cfo", "--in", str(path))
    assert code == 1


# Raw float32 words written to IN: 100 samples (too short for the timing search
# window), 400 samples whose sample 150 has a NaN imaginary part, and 400 zero
# samples (no power to set an SNR against). HUGE_TAP is a tap file whose gain
# overflows float32.
SHORT_IQ = np.ones(200, "<f4")
NAN_IQ = np.where(np.arange(800) == 301, np.nan, 1.0).astype("<f4")
ZERO_IQ = np.zeros(800, "<f4")
HUGE_TAP = b"0 1e39 0\n"
NAN_TAP = b"0 1 0\n3 nan 0\n"
EMPTY_TAPS_PLAN = b"n_trials = 3\ntaps =\n"
# An 820-sample capture whose frame starts at sample 97, and a plan and a tap
# file whose second line is not UTF-8.
FRAME_IQ = ofdmsync.transmit(ofdmsync.generate_preamble(),
                             ChannelConfig(snr_db=20, timing_offset=97),
                             tail_len=403).samples.astype("<c8").view("<f4")
NON_UTF8_PLAN = b"n_trials = 3\n\xff\n"
NON_UTF8_TAPS = b"0 1 0\n\xff\n"
SMALL_PLAN = b"n_trials = 3\n"


@pytest.mark.parametrize("argv, words, expected", [
    (["timesync", "--in", "IN"], SHORT_IQ, 2),
    (["detect", "--frames", "0"], None, 2),
    (["channel", "--gap-len", "-1"], None, 2),
    (["detect", "--in", "IN"], NAN_IQ, 3),
    (["channel", "--snr-db", "3083"], None, 2),
    (["detect", "--timing-offset", str(10**15)], None, 2),
    (["detect", "--frames", "60000"], None, 2),
    (["timesync", "--gap-len", str(10**15)], None, 2),
    (["channel", "--taps", "IN", "--out", "big.iq"], HUGE_TAP, 3),
    (["channel", "--in", "IN", "--snr-db", "10", "--out", "o.iq"], ZERO_IQ, 2),
    (["channel", "--taps", "IN", "--out", "nan.iq"], NAN_TAP, 2),
    (["timesync", "--window", "266:128", "--shift-window"], None, 2),
    (["detect", "--sample-rate", "1e6"], None, 2),
    (["timesync", "--sample-rate", "1e6"], None, 2),
    (["detect", "--in", "IN", "--snr-db", "40"], ZERO_IQ, 2),
    (["cfo", "--in", "IN", "--seed", "7"], ZERO_IQ, 2),
    (["timesync", "--in", "IN", "--gap-len", "9", "--template", "sts"], ZERO_IQ, 2),
    (["detect", "--in=", "--seed", "4"], None, 2),
    (["timesync", "--in", ""], None, 2),
    (["cfo", "--in="], None, 2),
    (["channel", "--in=", "--out", "o.iq"], None, 2),
    (["detect", "--lag", "99999999999999999999"], None, 2),
    (["cfo", "--lag", "99999999999999999999"], None, 2),
    (["channel", "--taps", "", "--out", "o.iq"], None, 2),
    (["trials", "--config", "IN", "--out", "report"], EMPTY_TAPS_PLAN, 2),
    (["cfo", "--cfo-hz", "100e3", "--snr-db", "30", "--sample-rate", "10e6"], None, 2),
    (["channel", "--sample-rate", "10e6", "--out", "o.iq"], None, 2),
    (["detect", "--in", "IN", "--trace", "IN"], FRAME_IQ, 2),
    (["trials", "--config", "IN", "--out", "report"], NON_UTF8_PLAN, 2),
    (["channel", "--taps", "IN", "--out", "o.iq"], NON_UTF8_TAPS, 2),
    (["cfo", "--format", "csv"], None, 2),
    (["preamble", "--out="], None, 2),
    (["channel", "--out="], None, 2),
    (["cfo", "--out="], None, 2),
    (["trials", "--config", "IN", "--out="], SMALL_PLAN, 2),
    (["detect", "--trace="], None, 2),
    (["timesync", "--trace="], None, 2),
    (["cfo", "--trace="], None, 2),
    (["trials", "--config="], None, 2),
], ids=["short-timesync", "zero-frames", "negative-gap", "nan-input", "overflowing-snr",
        "huge-offset", "huge-train", "huge-gap", "float32-overflow-output", "zero-power-input",
        "non-finite-tap", "shift-window", "detect-sample-rate", "timesync-sample-rate",
        "detect-in-snr", "cfo-in-seed", "timesync-in-gap", "detect-empty-in",
        "timesync-empty-in", "cfo-empty-in", "channel-empty-in", "detect-huge-lag",
        "cfo-huge-lag", "channel-empty-taps", "plan-empty-taps", "cfo-rate-without-in",
        "channel-rate-without-in", "detect-trace-onto-in", "non-utf8-plan", "non-utf8-taps",
        "cfo-format-without-out", "preamble-empty-out", "channel-empty-out", "cfo-empty-out",
        "trials-empty-out", "detect-empty-trace", "timesync-empty-trace", "cfo-empty-trace",
        "trials-empty-config"])
def test_exit_code_contract_without_traceback(tmp_path, argv, words, expected):
    if words is not None:
        (tmp_path / "IN").write_bytes(bytes(words))
    # the child does not inherit pytest's filterwarnings; a numpy RuntimeWarning fails it
    env = {**os.environ, "PYTHONPATH": str(Path(ofdmsync.__file__).parents[1]),
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    proc = subprocess.run([sys.executable, "-m", "ofdmsync.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if argv == ["detect", "--frames", "0"]:  # the bound itself, not an error in showing it
        assert "argument --frames: must lie in [1, 16777216], got 0" in proc.stderr
    if words is NAN_IQ:
        assert "sample 150 is not finite" in proc.stderr
    if words is HUGE_TAP:
        assert "sample 0 is not finite" in proc.stderr
        assert not (tmp_path / "big.iq").exists()
    if words is ZERO_IQ and argv[0] != "channel":  # rejected before the file is read
        assert f"cannot be used with it: {argv[3]}" in proc.stderr
    elif words is ZERO_IQ:
        assert "cannot set an SNR on a zero-power signal" in proc.stderr
        assert not (tmp_path / "o.iq").exists()
    if "--in" in argv and "" in argv or "--in=" in argv:  # an empty path is not taken as no --in
        assert "argument --in: expected a file path, got an empty one" in proc.stderr
        assert proc.stdout == "" and not (tmp_path / "o.iq").exists()
    if words is NAN_TAP:
        assert "tap gain at delay 3 must be finite" in proc.stderr
        assert "sample buffer" not in proc.stderr
        assert not (tmp_path / "nan.iq").exists()
    if "--taps" in argv and "" in argv or words is EMPTY_TAPS_PLAN:  # not read as the directory
        assert "tap reference (plan key taps, flag --taps)" in proc.stderr
        assert "got an empty one" in proc.stderr and "Is a directory" not in proc.stderr
        assert not (tmp_path / "o.iq").exists() and not (tmp_path / "report").exists()
    if "99999999999999999999" in argv:  # no workspace is sized from it
        assert "lag must lie in [1, 16777216], got 99999999999999999999" in proc.stderr
    if argv[0] in ("cfo", "channel") and "--sample-rate" in argv and "--in" not in argv:
        # the rate of a generated frame is fixed, so the flag would change nothing
        assert "--sample-rate gives the rate of the samples that --in reads" in proc.stderr
        assert proc.stdout == "" and not (tmp_path / "o.iq").exists()
    if words is FRAME_IQ:  # refused before the trace truncates the samples
        assert "--trace IN names the --in file" in proc.stderr
        assert (tmp_path / "IN").read_bytes() == bytes(words) and proc.stdout == ""
    if words is NON_UTF8_PLAN or words is NON_UTF8_TAPS:
        assert "IN: not UTF-8 text (invalid start byte at byte " in proc.stderr
        assert not (tmp_path / "o.iq").exists() and not (tmp_path / "report").exists()
    if argv[0] == "cfo" and "--format" in argv:  # refused before the frame is generated
        assert "--format sets the format of the file that --out writes" in proc.stderr
        assert proc.stdout == ""
    empty = [arg[:-1] for arg in argv if arg in ("--out=", "--trace=", "--config=")]
    if empty:  # neither the current directory nor "write no file"
        assert f"argument {empty[0]}: expected a file path, got an empty one" in proc.stderr
        assert proc.stdout == ""
        assert [path.name for path in tmp_path.iterdir()] == ([] if words is None else ["IN"])


def test_with_in_the_flags_of_generated_samples_are_usage_errors(tmp_path, capsys):
    # a flag that only sets up generated samples would be silently ignored next
    # to --in; timesync --in reads --timing-offset, and channel --in every flag
    rx, out = tmp_path / "rx.iq", tmp_path / "out.iq"
    flags = {"--snr-db": "40", "--cfo-hz": "1e5", "--taps": "etsi_a", "--seed": "7",
             "--gap-len": "9", "--timing-offset": "30", "--frames": "2"}
    assert run(capsys, "channel", "--snr-db", "20", "--timing-offset", "30",
               "--out", str(rx))[0] == 0
    for sub, read in (("detect", ()), ("cfo", ()), ("timesync", ("--timing-offset",))):
        assert run(capsys, sub, "--in", str(rx))[0] == 0
        for flag, value in flags.items():
            if flag == "--frames" and sub != "detect":
                continue
            code, stdout, stderr = run(capsys, sub, "--in", str(rx), flag, value)
            if flag in read:
                assert code == 0
            else:
                assert (code, stdout) == (2, ""), (sub, flag)
                assert stderr == ("error: --in reads the samples from a file; these flags set "
                                  f"up generated samples and cannot be used with it: {flag}\n")
    args = [arg for flag, value in flags.items() if flag != "--frames" for arg in (flag, value)]
    assert run(capsys, "channel", "--in", str(rx), "--out", str(out), *args)[0] == 0


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_detect_rejects_a_pipe_instead_of_reading_it_as_empty():
    # a pipe's size reads as 0, so it cannot be length-checked before reading
    env = {**os.environ, "PYTHONPATH": str(Path(ofdmsync.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "ofdmsync.cli", "detect", "--in", "/dev/stdin"],
                          input=bytes(800), env=env, capture_output=True)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert b"not a regular file" in proc.stderr and b"Traceback" not in proc.stderr


def test_bad_taps_reference_is_config_error(capsys):
    code, _, err = run(capsys, "detect", "--taps", "no/such/profile.taps")
    assert code in (2, 3)  # unreadable path surfaces as config or I/O error
    assert "error" in err


# --- trials ---------------------------------------------------------------------------

PLAN = """\
n_trials = 20
base_seed = 77
stages = time_sts, time_lts
snr_db = 10
"""


def test_trials_summary_rows(tmp_path, capsys):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(PLAN)
    out = tmp_path / "report"
    code, stdout, _ = run(capsys, "trials", "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert "time_sts:" in stdout and "time_lts:" in stdout
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 3  # header + one row per stage


def test_trials_noiseless_sigma_zero(tmp_path, capsys):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("n_trials = 5\nsnr_db = none\nstages = time_sts\n")
    out = tmp_path / "report"
    code, stdout, _ = run(capsys, "trials", "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert "time_sts,5,0.0,0" in (out / "summary.csv").read_text()


def test_trials_missing_config_exits_two(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code, _, err = run(capsys, "trials", "--config", str(missing), "--out",
                       str(tmp_path / "r"))
    assert code == 2
    assert str(missing) in err


def test_trials_negative_base_seed_exits_two_before_any_trial(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(PLAN.replace("base_seed = 77", "base_seed = -1"))
    ran = []
    monkeypatch.setattr(cli, "run_trials", ran.append)
    code, _, err = run(capsys, "trials", "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert code == 2
    assert "seed cannot be negative" in err
    assert ran == [] and not (tmp_path / "r").exists()


def test_trials_lts_window_past_the_buffer_exits_two_before_any_trial(tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("n_trials = 3\nstages = time_lts\ngap_len = 0\n")
    env = {**os.environ, "PYTHONPATH": str(Path(ofdmsync.__file__).parents[1]),
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    proc = subprocess.run([sys.executable, "-m", "ofdmsync.cli", "trials", "--config", str(cfg),
                           "--out", "r"], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert str(cfg) in proc.stderr and "gap_len must be at least 127" in proc.stderr
    assert not (tmp_path / "r").exists()


def test_trials_byte_identical_reruns(tmp_path, capsys):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(PLAN)
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        assert run(capsys, "trials", "--config", str(cfg), "--out", str(d))[0] == 0
    for name in ("summary.csv", "time_sts_trials.csv", "time_lts_trials.csv",
                 "time_sts_histogram.csv", "time_lts_histogram.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


# --- exit-code fuzzing -------------------------------------------------------------

def _number(draw, low, high, edges=(), least=None):
    """An integer argument as text: mostly in [low, high], sometimes an edge value.

    With ``least``, the flag's least valid value, only values in [least, high].
    """
    if least is not None:
        low, edges = least, [edge for edge in edges if least <= edge <= high]
    return str(draw(st.sampled_from(edges) | st.integers(low, high) if edges
                    else st.integers(low, high)))


def _size(draw, low, high, edges=(), huge_from=MAX_GENERATED_SAMPLES + 1, least=None):
    """A length or count as text: small, or from ``huge_from`` up to 10**15.

    Sizes in between would allocate hundreds of megabytes, so they are not drawn.
    With ``least``, only the small ones, as :func:`_number` draws them.
    """
    if least is not None or draw(st.booleans()):
        return _number(draw, low, high, edges, least)
    return str(draw(st.integers(huge_from, 10**15)))


def _real(draw, low, high, valid=False):
    """A float argument as text, from [low, high] or, unless ``valid``, anywhere
    (nan and inf included)."""
    return repr(draw(st.floats(low, high) if valid else st.floats(low, high) | st.floats()))


def _malformed(draw, text: str, real: bool = False) -> str:
    """``text``, or now and then text that is no number: '1e3' where an int is
    read, 'x', the empty string, and 'inf' where a float (``real``) is read."""
    if draw(st.integers(0, 7)):
        return text
    return draw(st.sampled_from(("x", "", "inf") if real else ("1e3", "x", "")))


def _fuzz_argv(draw, tmp: Path) -> list[str]:
    """A random command line for one receiver stage, with its input files in ``tmp``.

    Lengths and counts are either small, which keeps each run cheap, or too
    large to generate, which must be rejected before anything is allocated.
    Now and then a numeric value is malformed text (:func:`_malformed`).
    Values are joined to their flags with ``=`` so that argparse reads
    ``-1e-05`` as a value, not a flag. A ``--lag`` of 10**20 for ``detect``
    or ``cfo`` comes with every other flag valid, so that the command reaches
    the detector's config, which must reject it before it sizes a workspace.
    """
    sub = draw(st.sampled_from(("detect", "timesync", "cfo", "channel")))
    lag = _number(draw, -1, 600, (0, 1, 16, 10**20)) if sub in ("detect", "cfo") else None
    valid = lag == str(10**20)

    def least(value):
        return value if valid else None

    def text(value, real=False):
        return value if valid else _malformed(draw, value, real)

    argv = [sub]
    from_file = draw(st.booleans())
    if from_file:
        path = tmp / "in.iq"
        n = draw(st.integers(1 if valid else 0, 400))  # a sample, so the detector runs
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        words = rng.standard_normal(2 * n).astype("<f4").tobytes()
        if draw(st.booleans()):  # a capture that holds a frame
            frame = ofdmsync.generate_preamble().samples[:n]
            lead = draw(st.integers(0, max(n - len(frame), 0)))
            samples = np.zeros(n, complex)
            samples[lead:lead + len(frame)] = frame
            interleaved = np.empty(2 * n, "<f4")
            interleaved[0::2], interleaved[1::2] = samples.real, samples.imag
            words = interleaved.tobytes()
        if not valid and draw(st.booleans()):  # a torn final sample
            words += bytes(draw(st.integers(1, 7)))
        path.write_bytes(words)
        argv.append(f"--in={path}")
        if sub in ("cfo", "channel") and draw(st.booleans()):  # the commands that take a rate
            argv.append("--sample-rate=" + text(_real(draw, 1e3, 1e9, valid), real=True))
    else:
        argv.append("--gap-len=" + text(_size(draw, -3, 1200, (0, -1), least=least(0))))
        argv.append("--timing-offset=" + text(_size(draw, -3, 1200, (0, -1), least=least(0))))
    if not from_file or sub == "channel":  # the other commands reject these next to --in
        if draw(st.booleans()):
            snr = st.sampled_from(("none", "noiseless")) | st.floats(-30, 60).map(repr)
            argv.append("--snr-db=" + text(draw(snr if valid else snr | st.floats().map(repr)),
                                           real=True))
        if draw(st.booleans()):
            argv.append("--cfo-hz=" + text(_real(draw, -7e5, 7e5, valid), real=True))
        if draw(st.booleans()):
            taps = ("etsi_a", "etsi_c") if valid else ("etsi_a", "etsi_c", str(tmp / "no.taps"))
            argv.append("--taps=" + draw(st.sampled_from(taps)))
        argv.append("--seed=" + text(_number(draw, -2, 2**64, (0, -1), least(0))))
    if sub == "detect":
        if not from_file:
            # from MAX // 320 + 1 frames up, even a gapless train is too long
            argv.append("--frames=" + text(_size(draw, -1, 4, (0,), least=least(1),
                                                 huge_from=MAX_GENERATED_SAMPLES // 320 + 1)))
        threshold = (repr(draw(st.floats(0, 1, exclude_min=True, exclude_max=True))) if valid
                     else _real(draw, -0.5, 1.5))
        argv += ["--lag=" + text(lag),
                 "--min-plateau=" + text(_number(draw, -1, 600, (0, 1, 32, 10**20), least(1))),
                 "--threshold=" + text(threshold, real=True),
                 "--metric-mode=" + draw(st.sampled_from(("exact", "l1_approx")))]
    elif sub == "timesync":
        argv.append("--template=" + draw(st.sampled_from(("sts", "lts"))))
        if draw(st.booleans()):
            argv.append(f"--window={_number(draw, -50, 1500)}:{_number(draw, -2, 1500)}")
    elif sub == "cfo":
        argv.append("--lag=" + text(lag))
        if draw(st.booleans()):
            argv.append(f"--out={tmp / 'fixed.iq'}")
    else:
        argv += [f"--out={tmp / 'rx.iq'}", "--format=" + draw(st.sampled_from(("iq", "csv")))]
    if sub != "channel" and draw(st.booleans()):
        argv.append(f"--trace={tmp / 'trace.csv'}")
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_arguments_keep_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = _fuzz_argv(data.draw, Path(tmp))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    # a usage error shows the reader's message, not argparse's "invalid <type> value"
    # nor an error raised while the message was being made
    usage = re.search(r"error: argument --[\w-]+: (.*)", stderr.getvalue())
    assert usage is None or usage[1].startswith(("must ", "expected ")), (argv, stderr.getvalue())
