import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ofdmsync
from ofdmsync import FrameDetectConfig, cli, read_iq
from ofdmsync.cli import main
from ofdmsync.core import BLOCK_LEN, MAX_GENERATED_SAMPLES

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
       mode=st.sampled_from(("exact", "l1_approx")))
@example(n=3 * BLOCK_LEN, at_edges=[(1, -100), (2, -60)], anywhere=[7000], noise=0.05,
         seed=1, mode="exact")
def test_streamed_detect_prints_the_batch_events(n, at_edges, anywhere, noise, seed, mode):
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
        path = Path(tmp) / "in.iq"
        _iq_file(path, samples)
        events = ofdmsync.detect_frames(read_iq(path), FrameDetectConfig(metric_mode=mode))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["detect", "--in", str(path), "--metric-mode", mode])
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
def test_streamed_detect_memory_does_not_grow_with_the_file(tmp_path):
    # 4M samples: reading the whole file would hold 32 MB of words plus 64 MB
    # of complex128
    rng = np.random.default_rng(2)
    piece = (rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)).astype("<c8")
    path = tmp_path / "long.iq"
    with path.open("wb") as f:
        for _ in range(64):
            f.write(piece.tobytes())
    env = {**os.environ, "PYTHONPATH": str(Path(ofdmsync.__file__).parents[1])}

    def usage(*argv):
        proc = subprocess.run([sys.executable, "-c", _RUSAGE, *argv], env=env,
                              capture_output=True, text=True, check=True)
        return np.array(proc.stdout.split()[-2:], dtype=int)

    peak_kib, faults = usage("detect", "--in", str(path)) - usage()
    assert peak_kib < 16 * 1024
    # about 480 here: the detector allocates its workspace once, so faults do
    # not grow with the block count (per-call temporaries past glibc's mmap
    # threshold, mapped afresh on every call, once cost about 95k)
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
], ids=["short-timesync", "zero-frames", "negative-gap", "nan-input", "overflowing-snr",
        "huge-offset", "huge-train", "huge-gap", "float32-overflow-output", "zero-power-input",
        "non-finite-tap"])
def test_exit_code_contract_without_traceback(tmp_path, argv, words, expected):
    if words is not None:
        (tmp_path / "IN").write_bytes(bytes(words))
    env = {**os.environ, "PYTHONPATH": str(Path(ofdmsync.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "ofdmsync.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if words is NAN_IQ:
        assert "sample 150 is not finite" in proc.stderr
    if words is HUGE_TAP:
        assert "sample 0 is not finite" in proc.stderr
        assert not (tmp_path / "big.iq").exists()
    if words is ZERO_IQ:
        assert "cannot set an SNR on a zero-power signal" in proc.stderr
        assert not (tmp_path / "o.iq").exists()
    if words is NAN_TAP:
        assert "tap gain at delay 3 must be finite" in proc.stderr
        assert "sample buffer" not in proc.stderr
        assert not (tmp_path / "nan.iq").exists()


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
    env = {**os.environ, "PYTHONPATH": str(Path(ofdmsync.__file__).parents[1])}
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

def _number(draw, low, high, edges=()):
    """An integer argument as text: mostly in [low, high], sometimes an edge value."""
    return str(draw(st.sampled_from(edges) | st.integers(low, high) if edges
                    else st.integers(low, high)))


def _size(draw, low, high, edges=(), huge_from=MAX_GENERATED_SAMPLES + 1):
    """A length or count as text: small, or from ``huge_from`` up to 10**15.

    Sizes in between would allocate hundreds of megabytes, so they are not drawn.
    """
    if draw(st.booleans()):
        return _number(draw, low, high, edges)
    return str(draw(st.integers(huge_from, 10**15)))


def _real(draw, low, high):
    """A float argument as text, from [low, high] or anywhere (nan and inf included)."""
    return repr(draw(st.floats(low, high) | st.floats()))


def _fuzz_argv(draw, tmp: Path) -> list[str]:
    """A random command line for one receiver stage, with its input files in ``tmp``.

    Lengths and counts are either small, which keeps each run cheap, or too
    large to generate, which must be rejected before anything is allocated.
    Values are joined to their flags with ``=`` so that argparse reads
    ``-1e-05`` as a value, not a flag.
    """
    sub = draw(st.sampled_from(("detect", "timesync", "cfo", "channel")))
    argv = [sub]
    if draw(st.booleans()):
        path = tmp / "in.iq"
        n = draw(st.integers(0, 400))
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
        if draw(st.booleans()):  # a torn final sample
            words += bytes(draw(st.integers(1, 7)))
        path.write_bytes(words)
        argv.append(f"--in={path}")
        if draw(st.booleans()):
            argv.append("--sample-rate=" + _real(draw, 1e3, 1e9))
    else:
        argv.append("--gap-len=" + _size(draw, -3, 1200, (0, -1)))
        argv.append("--timing-offset=" + _size(draw, -3, 1200, (0, -1)))
    if draw(st.booleans()):
        argv.append("--snr-db=" + draw(st.sampled_from(("none", "noiseless"))
                                       | st.floats(-30, 60).map(repr) | st.floats().map(repr)))
    if draw(st.booleans()):
        argv.append("--cfo-hz=" + _real(draw, -7e5, 7e5))
    if draw(st.booleans()):
        argv.append("--taps=" + draw(st.sampled_from(("etsi_a", "etsi_c", str(tmp / "no.taps")))))
    argv.append("--seed=" + _number(draw, -2, 2**64, (0, -1)))
    if sub == "detect":
        if not any(arg.startswith("--in=") for arg in argv):
            # from MAX // 320 + 1 frames up, even a gapless train is too long
            argv.append("--frames=" + _size(draw, -1, 4, (0,),
                                            huge_from=MAX_GENERATED_SAMPLES // 320 + 1))
        argv += ["--lag=" + _number(draw, -1, 600, (0, 1, 16)),
                 "--min-plateau=" + _number(draw, -1, 600, (0, 1, 32)),
                 "--threshold=" + _real(draw, -0.5, 1.5),
                 "--metric-mode=" + draw(st.sampled_from(("exact", "l1_approx")))]
    elif sub == "timesync":
        argv.append("--template=" + draw(st.sampled_from(("sts", "lts"))))
        if draw(st.booleans()):
            argv.append(f"--window={_number(draw, -50, 1500)}:{_number(draw, -2, 1500)}")
            if draw(st.booleans()):
                argv.append("--shift-window")
    elif sub == "cfo":
        argv.append("--lag=" + _number(draw, -1, 600, (0, 1, 16)))
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
