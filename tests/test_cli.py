import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ofdmsync
from ofdmsync import read_iq
from ofdmsync.cli import main

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
    code, stdout, _ = run(capsys, "detect", "--frames", "3", "--snr-db", "20",
                          "--seed", "5", "--trace", str(trace))
    assert code == 0
    assert stdout.count("frame:") == 3
    header = trace.read_text().splitlines()[0]
    assert header == "n,r_abs2,p_squared,metric,above_threshold"


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
# window), and 400 samples whose sample 150 has a NaN imaginary part.
SHORT_IQ = np.ones(200, "<f4")
NAN_IQ = np.where(np.arange(800) == 301, np.nan, 1.0).astype("<f4")


@pytest.mark.parametrize("argv, words, expected", [
    (["timesync", "--in", "IN"], SHORT_IQ, 2),
    (["detect", "--frames", "0"], None, 2),
    (["channel", "--gap-len", "-1"], None, 2),
    (["detect", "--in", "IN"], NAN_IQ, 3),
    (["channel", "--snr-db", "3083"], None, 2),
], ids=["short-timesync", "zero-frames", "negative-gap", "nan-input", "overflowing-snr"])
def test_exit_code_contract_without_traceback(tmp_path, argv, words, expected):
    if words is not None:
        (tmp_path / "IN").write_bytes(words.tobytes())
    env = {**os.environ, "PYTHONPATH": str(Path(ofdmsync.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "ofdmsync.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if words is NAN_IQ:
        assert "sample 150 is not finite" in proc.stderr


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


def _real(draw, low, high):
    """A float argument as text, from [low, high] or anywhere (nan and inf included)."""
    return repr(draw(st.floats(low, high) | st.floats()))


def _fuzz_argv(draw, tmp: Path) -> list[str]:
    """A random command line for one receiver stage, with its input files in ``tmp``.

    Lengths and counts stay small enough to keep each run cheap; inputs
    that would allocate gigabytes are not drawn. Values are joined to their
    flags with ``=`` so that argparse reads ``-1e-05`` as a value, not a flag.
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
        argv.append("--gap-len=" + _number(draw, -3, 1200, (0, -1)))
        argv.append("--timing-offset=" + _number(draw, -3, 1200, (0, -1)))
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
            argv.append("--frames=" + _number(draw, -1, 4, (0,)))
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
