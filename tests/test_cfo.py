import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsync import (CfoEstimate, ChannelConfig, ConfigError, EstimationError, SampleBuffer,
                      SizingError, apply_cfo, autocorrelation, correct_cfo, detect_frames,
                      estimate_cfo, plateau_from_event, transmit)
from ofdmsync.cfo import estimate_cfo_rows

from conftest import random_buffer

PURE_STS_SPAN = (0, 129)  # indices whose correlation windows sit inside the STS
AMBIGUITY_HZ = 625e3      # 1 / (2 * 16 * 50 ns)


# --- estimate_cfo --------------------------------------------------------------

def test_zero_offset_estimates_zero(preamble):
    est = estimate_cfo(preamble, 16, PURE_STS_SPAN)
    assert abs(est.delta_f_hz) < 1e-6
    assert est.plateau_span == PURE_STS_SPAN


@pytest.mark.parametrize("f", [100e3, 200e3])
def test_known_offsets_recovered_within_1hz(preamble, f):
    rx = apply_cfo(preamble, f)
    est = estimate_cfo(rx, 16, PURE_STS_SPAN)
    assert abs(est.delta_f_hz - f) < 1.0
    # autocorrelation phase is -2*pi*f*L*Ts: -0.16*pi at 100 kHz
    expected_phase = -2 * np.pi * f * 16 / 20e6
    assert est.phase_rad == pytest.approx(expected_phase, abs=1e-9)


def test_estimate_within_range_invariant(preamble):
    for f in (-600e3, -310e3, 55e3, 624e3):
        est = estimate_cfo(apply_cfo(preamble, f), 16, PURE_STS_SPAN)
        assert abs(est.delta_f_hz - f) < 1.0
        assert abs(est.delta_f_hz) <= AMBIGUITY_HZ


def test_estimate_wraps_past_ambiguity_bound(preamble):
    delta = 2e3
    est = estimate_cfo(apply_cfo(preamble, AMBIGUITY_HZ + delta), 16, PURE_STS_SPAN)
    assert est.delta_f_hz == pytest.approx(-AMBIGUITY_HZ + delta, abs=1.0)


def test_estimate_scale_invariance(preamble):
    rx = apply_cfo(preamble, 150e3)
    base = estimate_cfo(rx, 16, PURE_STS_SPAN).delta_f_hz
    scaled = SampleBuffer(37.5 * rx.samples, rx.sample_rate)
    assert estimate_cfo(scaled, 16, PURE_STS_SPAN).delta_f_hz == pytest.approx(base, abs=1e-9)


def test_estimate_errors():
    zeros = SampleBuffer(np.zeros(400))
    with pytest.raises(EstimationError):
        estimate_cfo(zeros, 16, (0, 50))
    with pytest.raises(SizingError):
        estimate_cfo(zeros, 16, (50, 50))       # empty span
    with pytest.raises(SizingError):
        estimate_cfo(zeros, 16, (380, 395))     # runs past the buffer
    # a fractional bound is rejected, not truncated; a bad shape or lag is named
    rows = zeros.samples[np.newaxis]
    for lag, plateau, error, message in (
            (16, (0.9, 100.7), ConfigError, "plateau bound must be an integer"),
            (16, (5,), ConfigError, "plateau must be a pair of integers"),
            (-3, (0, 50), SizingError, "lag must be positive"),
            (0, (0, 50), SizingError, "lag must be positive"),
            # an int too long for Python to write is shown by its bit count
            (16, (10**5000, 10**5000 + 5), SizingError,
             r"plateau \(an int of 16610 bits, an int of 16610 bits\) with lag 16 exceeds"),
            (16, (0, 10**5000), SizingError, r"plateau \(0, an int of 16610 bits\)"),
            (10**5000, (0, 50), SizingError, "with lag an int of 16610 bits exceeds")):
        with pytest.raises(error, match=message):
            estimate_cfo(zeros, lag, plateau)
        with pytest.raises(error, match=message):
            estimate_cfo_rows(rows, lag, plateau, zeros.sample_rate)


def test_rows_give_none_on_zero_rows_and_estimate_cfo_bits_elsewhere(preamble):
    # zero rows have a mean of exactly 0 and no phase; the rest go through the
    # same phase -> Hz conversion as a one-row estimate
    noisy = [transmit(preamble, ChannelConfig(cfo_hz=f, snr_db=snr, timing_offset=5),
                      tail_len=40, seed=seed).samples
             for f, snr, seed in [(-310e3, 0.0, 1), (0.0, 10.0, 2), (99e3, -5.0, 3),
                                  (600e3, 30.0, 4), (1.5e3, 300.0, 5)]]
    zero = np.zeros(len(noisy[0]), np.complex128)
    rows = np.stack([zero, noisy[0], noisy[1], zero, zero, noisy[2], noisy[3], zero, noisy[4]])
    span = (5, 134)
    got = estimate_cfo_rows(rows, 16, span, 20e6)
    assert [value is None for value in got] == [not row.any() for row in rows]
    for row, value in zip(rows, got):
        buf = SampleBuffer(row)
        if row.any():
            want = estimate_cfo(buf, 16, span).delta_f_hz
            assert np.float64(value).tobytes() == np.float64(want).tobytes()
        else:
            with pytest.raises(EstimationError):
                estimate_cfo(buf, 16, span)


def reference_cfo(x, lag, plateau, sample_rate):
    """(delta_f_hz, phase_rad, mean) from the mean of :func:`autocorrelation` over
    ``plateau``, one buffer at a time: no code shared with the estimators' row pass.
    The phase is libm's atan2, as the estimators take it."""
    start, stop = plateau
    mean = autocorrelation(x[start:stop - 1 + 2 * lag], lag, lag).mean()
    phase = math.atan2(mean.imag, mean.real)
    return -phase / (2 * np.pi * lag * (1.0 / sample_rate)), phase, mean


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=200, deadline=None)
@given(lag=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), snr_db=st.floats(-5, 300),
       cfo_hz=st.floats(-1e6, 1e6), sample_rate=st.sampled_from([1e6, 20e6, 61.44e6]),
       start=st.integers(0, 300), length=st.integers(1, 300), tail=st.integers(0, 50))
def test_estimates_equal_the_reference_arithmetic(lag, seed, snr_db, cfo_hz, sample_rate,
                                                  start, length, tail):
    # a lag-periodic signal turned by the offset, plus noise from -5 to 300 dB
    gen = np.random.default_rng(seed)
    n = start + length - 1 + 2 * lag + tail
    periodic = np.resize(np.exp(2j * np.pi * gen.uniform(size=lag)), n)
    noise = (gen.standard_normal(n) + 1j * gen.standard_normal(n)) / np.sqrt(2)
    x = periodic * np.exp(2j * np.pi * cfo_hz / sample_rate * np.arange(n))
    x += 10 ** (-snr_db / 20) * noise
    span = (start, start + length)
    rows = np.stack([x, np.zeros(n), np.conj(x)])
    want = [reference_cfo(row, lag, span, sample_rate) for row in rows]
    est = estimate_cfo(SampleBuffer(x, sample_rate), lag, span)
    assert est.plateau_span == span
    assert same_bits(est.delta_f_hz, want[0][0]) and same_bits(est.phase_rad, want[0][1])
    assert want[1][2] == 0
    with pytest.raises(EstimationError):
        estimate_cfo(SampleBuffer(rows[1], sample_rate), lag, span)
    got = estimate_cfo_rows(rows, lag, span, sample_rate)
    assert got[1] is None
    assert same_bits(got[0], want[0][0]) and same_bits(got[2], want[2][0])


# --- correct_cfo ----------------------------------------------------------------

def test_correct_zero_is_identity(preamble):
    out = correct_cfo(preamble, 0.0)
    assert np.array_equal(out.samples, preamble.samples)


def test_correct_inverts_apply(rng):
    buf = random_buffer(rng, 400)
    back = correct_cfo(apply_cfo(buf, 180e3), 180e3)
    assert np.max(np.abs(back.samples - buf.samples)) < 1e-9


@pytest.mark.parametrize("n", [0, 1, 8192, 28192])
@pytest.mark.parametrize("delta_f_hz", [0.0, -0.0, 99e3, -625e3, 5e-300])
def test_correct_matches_one_expression(rng, n, delta_f_hz):
    # x * exp(-j*2*pi*f*n*Ts) as one expression: the de-rotation as documented
    buf = random_buffer(rng, n)
    k = np.arange(n)
    want = buf.samples * np.exp(-2j * np.pi * delta_f_hz * k / buf.sample_rate)
    for _ in range(2):  # the second call may reuse a cached rotation
        got = correct_cfo(buf, delta_f_hz).samples
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_correct_preserves_magnitudes(rng):
    buf = random_buffer(rng, 256)
    out = correct_cfo(buf, 99e3)
    assert np.max(np.abs(np.abs(out.samples) - np.abs(buf.samples))) < 1e-12


# --- closed loop ----------------------------------------------------------------

@pytest.mark.parametrize("f", [0.0, 100e3, 200e3])
def test_estimate_then_correct_residual(preamble, f):
    rx = apply_cfo(preamble, f)
    est = estimate_cfo(rx, 16, PURE_STS_SPAN)
    fixed = correct_cfo(rx, est.delta_f_hz)
    residual = estimate_cfo(fixed, 16, PURE_STS_SPAN)
    assert abs(residual.delta_f_hz) < 1.0


def test_sign_convention_end_to_end(preamble):
    # +f injected by the channel comes back as +f from the estimator, and the
    # corrector's negative exponent undoes the channel rotation
    f = 120e3
    rx = transmit(preamble, ChannelConfig(cfo_hz=f))
    est = estimate_cfo(rx, 16, PURE_STS_SPAN)
    assert est.delta_f_hz == pytest.approx(f, abs=1.0)
    assert est.phase_rad < 0  # Eq-10-style negative rotation of the lag product
    fixed = correct_cfo(rx, est.delta_f_hz)
    assert np.max(np.abs(fixed.samples - preamble.samples)) < 1e-6


def test_roundtrip_sweep_within_unambiguous_range(preamble):
    for f in np.linspace(-620e3, 620e3, 25):
        est = estimate_cfo(apply_cfo(preamble, f), 16, PURE_STS_SPAN)
        assert abs(est.delta_f_hz - f) < 1.0


# --- plateau plumbing -------------------------------------------------------------

def test_plateau_from_event_trims_guard_contamination(preamble):
    rx = apply_cfo(preamble, 200e3)
    events = detect_frames(rx)
    assert len(events) == 1
    span = plateau_from_event(events[0], 16)
    assert span[0] == events[0].start_index
    assert span[1] <= PURE_STS_SPAN[1]  # right edge pulled inside the STS
    est = estimate_cfo(rx, 16, span)
    assert abs(est.delta_f_hz - 200e3) < 1.0


def test_estimate_cfo_names_the_buffer_type_it_takes(preamble):
    # an array is no buffer: a TypeError that says so, not an AttributeError
    for bad in (preamble.samples, list(preamble.samples), None):
        with pytest.raises(TypeError, match=f"^estimate_cfo takes a SampleBuffer, "
                                            f"got {type(bad).__name__}$"):
            estimate_cfo(bad, 16, PURE_STS_SPAN)


def test_plateau_from_event_never_empty():
    from ofdmsync import FrameEvent
    span = plateau_from_event(FrameEvent(10, 12, 1.0), 16)
    assert span == (10, 11)
    # the lag is checked as estimate_cfo checks it, so no float span comes back
    with pytest.raises(ConfigError, match="lag must be an integer, got 1.5"):
        plateau_from_event(FrameEvent(0, 100, 1.0), 1.5)
    with pytest.raises(SizingError, match="lag must be positive, got 0"):
        plateau_from_event(FrameEvent(0, 100, 1.0), 0)
    span = plateau_from_event(FrameEvent(0, 100, 1.0), np.int64(16))
    assert span == (0, 70) and {type(bound) for bound in span} == {int}
