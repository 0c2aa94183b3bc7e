import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsync import (ConfigError, SampleBuffer, SizingError, TimeSyncConfig, cross_correlate,
                      estimate_timing, training_template)
from ofdmsync.core import shown
from ofdmsync.preamble import SHORT_PERIOD
from ofdmsync.time_sync import default_expected_peak, default_search_window

from conftest import random_buffer


def direct_cross_correlation(x, template):
    out = np.zeros(len(x) - len(template) + 1)
    for n in range(len(out)):
        acc = 0.0 + 0.0j
        for m, c in enumerate(template):
            acc += np.conj(c) * x[n + m]
        out[n] = abs(acc)
    return out


def shifted(buf, d):
    return SampleBuffer(np.concatenate([np.zeros(d), buf.samples, np.zeros(200)]),
                        buf.sample_rate)


# --- cross_correlate ---------------------------------------------------------

def test_template_alignment_gives_energy_peak(rng):
    template = (rng.standard_normal(32) + 1j * rng.standard_normal(32))
    mag = cross_correlate(template, template)
    energy = np.sum(np.abs(template) ** 2)
    assert mag[0] == pytest.approx(energy, rel=1e-12)
    assert np.argmax(mag) == 0


def test_zero_signal_zero_correlation():
    mag = cross_correlate(np.zeros(100), np.ones(16))
    assert np.array_equal(mag, np.zeros(85))


def test_matches_direct_oracle(rng):
    x = random_buffer(rng, 300).samples
    template = (rng.standard_normal(24) + 1j * rng.standard_normal(24))
    got = cross_correlate(x, template)
    want = direct_cross_correlation(x, template)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(want)


def test_template_longer_than_signal():
    with pytest.raises(SizingError):
        cross_correlate(np.ones(10), np.ones(16))


# --- peak geometry on the clean preamble --------------------------------------

def test_sts_template_ten_equal_peaks(preamble):
    template = training_template("sts")
    mag = cross_correlate(preamble, template)
    energy = np.sum(np.abs(template) ** 2)
    peaks = np.flatnonzero(np.isclose(mag, energy, rtol=1e-9))
    assert peaks.tolist() == list(range(0, 160, 16))


def test_lts_template_two_peaks_and_weaker_ghost(preamble):
    template = training_template("lts")
    mag = cross_correlate(preamble, template)
    energy = np.sum(np.abs(template) ** 2)
    peaks = np.flatnonzero(np.isclose(mag, energy, rtol=1e-9))
    assert peaks.tolist() == [192, 256]
    # the partial correlation over the cyclic prefix is there but smaller
    outside = np.delete(mag, peaks)
    assert outside.max() < 0.8 * energy


def test_lts_peak_is_stronger_than_sts_peak(preamble):
    sts_peak = cross_correlate(preamble, training_template("sts")).max()
    lts_peak = cross_correlate(preamble, training_template("lts")).max()
    assert lts_peak > sts_peak


# --- estimate_timing -----------------------------------------------------------

def test_noiseless_landmarks(preamble):
    padded = shifted(preamble, 0)
    for template in ("sts", "lts"):
        est = estimate_timing(padded, TimeSyncConfig(template=template))
        assert est.n_xc_max == default_expected_peak(template)
        assert est.peak_magnitude > 0


@pytest.mark.parametrize("d", [0, 7, 33, 100])
@pytest.mark.parametrize("template", ["sts", "lts"])
def test_shift_equivariance_is_exact(preamble, template, d):
    start, length = default_search_window(template)
    assert default_search_window(template, d) == (start + d, length)
    est = estimate_timing(
        shifted(preamble, d),
        TimeSyncConfig(template=template, search_window=(start + d, length)))
    assert est.n_xc_max == default_expected_peak(template) + d


def test_gain_invariance_of_argmax(preamble, rng):
    noisy = shifted(preamble, 10)
    noisy = SampleBuffer(noisy.samples + 0.05 * (rng.standard_normal(len(noisy))
                                                 + 1j * rng.standard_normal(len(noisy))))
    cfg = TimeSyncConfig(template="lts", search_window=(266, 128))
    base = estimate_timing(noisy, cfg)
    for alpha in (0.01, 5.0, 1000.0):
        scaled = SampleBuffer(alpha * noisy.samples)
        assert estimate_timing(scaled, cfg).n_xc_max == base.n_xc_max


def test_full_window_position_is_shift_stable(preamble):
    # argmax relative to the frame does not move as zeros are prepended
    for template, relative in (("sts", 16), ("lts", 256)):
        sym = len(training_template(template))
        for d in (0, 11, 60):
            buf = shifted(preamble, d)
            full = (0, len(buf) - sym + 1)
            est = estimate_timing(buf, TimeSyncConfig(template=template,
                                                      search_window=full))
            assert est.n_xc_max - d == relative


def test_window_outside_buffer(preamble):
    with pytest.raises(SizingError):
        estimate_timing(preamble, TimeSyncConfig(template="lts"))


def test_tie_break_lowest_index(preamble):
    # full-window STS search: all ten alignments are bitwise equal; lowest wins
    buf = shifted(preamble, 0)
    sym = SHORT_PERIOD
    full = (0, len(buf) - sym + 1)
    est = estimate_timing(buf, TimeSyncConfig(template="sts", search_window=full))
    assert est.n_xc_max == sym  # alignment 0 + template length


# --- windowed correlation equals the full correlation -------------------------

def _bits(value: float) -> str:
    return float(value).hex()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_windowed_estimate_matches_full_correlation(preamble, data):
    template = data.draw(st.sampled_from(("sts", "lts")), label="template")
    sym = len(training_template(template))
    n = data.draw(st.integers(sym, 900), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = data.draw(st.floats(0, 2), label="noise") * (rng.standard_normal(n)
                                                       + 1j * rng.standard_normal(n))
    offset = data.draw(st.integers(0, n), label="frame_offset")
    frame = preamble.samples[: n - offset]
    x[offset: offset + len(frame)] += frame
    n_out = n - sym + 1
    start = data.draw(st.sampled_from((0, n_out - 1)) | st.integers(0, n_out - 1),
                      label="start")
    length = data.draw(st.sampled_from((n_out - start,)) | st.integers(1, n_out - start),
                       label="length")
    signal = SampleBuffer(x) if data.draw(st.booleans(), label="buffer") else x

    est = estimate_timing(signal, TimeSyncConfig(template=template,
                                                 search_window=(start, length)))
    full = cross_correlate(x, training_template(template))[start:start + length]
    local = int(np.argmax(full))
    assert est.n_xc_max == start + local + sym
    assert _bits(est.peak_magnitude) == _bits(full[local])


@pytest.mark.parametrize("template", ["sts", "lts"])
@pytest.mark.parametrize("n, start_of, length", [
    (400, lambda n_out: -1, 10),
    (400, lambda n_out: n_out - 5, 6),
    (400, lambda n_out: 0, 1000),
    (400, lambda n_out: n_out, 1),
    (400, lambda n_out: 10**5000, 2),  # shown by its bit count: Python will not write it
])
def test_window_out_of_range_message(template, n, start_of, length):
    sym = len(training_template(template))
    n_out = n - sym + 1
    start = start_of(n_out)
    cfg = TimeSyncConfig(template=template, search_window=(start, length))
    message = (f"search window [{shown(start)}, {shown(start + length)}) outside correlator output "
               f"of length {n_out}")
    with pytest.raises(SizingError, match=re.escape(message)):
        estimate_timing(np.zeros(n, complex), cfg)


@pytest.mark.parametrize("template", ["sts", "lts"])
def test_signal_shorter_than_template_message(template):
    sym = len(training_template(template))
    message = f"signal of {sym - 1} samples is shorter than the {sym}-sample template"
    for window in (None, (0, 1)):
        cfg = TimeSyncConfig(template=template, search_window=window)
        with pytest.raises(SizingError, match=re.escape(message)):
            estimate_timing(np.ones(sym - 1, complex), cfg)


def test_time_sync_config_validation():
    with pytest.raises(ConfigError):
        TimeSyncConfig(template="xts")
    with pytest.raises(ConfigError, match="length must be positive"):
        TimeSyncConfig(search_window=(0, 0))
    for window in ((5,), (5, 64, 1), 5):
        with pytest.raises(ConfigError, match="search window must be a pair of integers"):
            TimeSyncConfig(search_window=window)
    # window bounds are integers: a float is rejected, not truncated
    for window in ((266.5, 128), (266, 128.0)):
        with pytest.raises(ConfigError, match="search window bound must be an integer"):
            TimeSyncConfig(search_window=window)
    cfg = TimeSyncConfig(search_window=(np.int64(266), np.int32(128)))
    assert cfg.search_window == (266, 128)
    assert {type(v) for v in cfg.search_window} == {int}
