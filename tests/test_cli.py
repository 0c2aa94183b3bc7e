import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
], ids=["short-timesync", "zero-frames", "negative-gap", "nan-input"])
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
