import numpy as np
import pytest

from ofdmsync import (FrameDetectConfig, SampleBuffer, SizingError, add_awgn,
                      autocorrelation, detect_frames, detection_metric,
                      preamble_train, signal_power)
from ofdmsync.frame_detect import (StreamingFrameDetector, compute_metrics,
                                   sliding_sum)

from conftest import random_buffer


def direct_autocorrelation(x, lag, window):
    """Brute-force double loop, independent of the sliding-sum path."""
    out = np.zeros(len(x) - lag - window + 1, np.complex128)
    for n in range(len(out)):
        acc = 0.0 + 0.0j
        for m in range(window):
            acc += x[n + m] * np.conj(x[n + m + lag])
        out[n] = acc
    return out


def direct_power(x, lag, window):
    out = np.zeros(len(x) - lag - window + 1)
    for n in range(len(out)):
        out[n] = sum(abs(x[n + m + lag]) ** 2 for m in range(window))
    return out


# --- correlator sums ---------------------------------------------------------

def test_autocorrelation_zeros():
    R = autocorrelation(np.zeros(100), 16, 16)
    assert len(R) == 100 - 32 + 1
    assert np.array_equal(R, np.zeros(len(R)))


def test_power_zeros_and_constant():
    assert np.array_equal(signal_power(np.zeros(64), 16, 16), np.zeros(33))
    P = signal_power(np.ones(64), 16, 16)
    assert np.allclose(P, 16.0, atol=1e-12)


def test_sliding_matches_direct_summation(rng):
    buf = random_buffer(rng, 600).samples
    for lag, window in ((16, 16), (16, 32), (7, 5)):
        R = autocorrelation(buf, lag, window)
        R_direct = direct_autocorrelation(buf, lag, window)
        scale = np.max(np.abs(R_direct))
        assert np.max(np.abs(R - R_direct)) <= 1e-9 * scale
        P = signal_power(buf, lag, window)
        P_direct = direct_power(buf, lag, window)
        assert np.max(np.abs(P - P_direct)) <= 1e-9 * np.max(P_direct)


def test_sliding_sum_window_errors():
    with pytest.raises(SizingError):
        sliding_sum(np.ones(4), 5)
    with pytest.raises(SizingError):
        autocorrelation(np.ones(20), 16, 16)


def test_sts_plateau_is_period_energy(preamble):
    # with both windows inside the STS, |R[n]| is one period's energy, flat
    p = preamble.samples
    R = autocorrelation(p, 16, 16)
    period_energy = np.sum(np.abs(p[:16]) ** 2)
    assert np.max(np.abs(np.abs(R[:129]) - period_energy)) < 1e-9 * period_energy


# --- metric ------------------------------------------------------------------

def test_metric_perfect_correlation():
    R = np.array([3.0 + 0j, 5.0 + 0j])
    P = np.array([3.0, 5.0])
    M = detection_metric(R, P, "exact")
    assert np.allclose(M, 1.0, atol=1e-12)


def test_metric_arithmetic_example():
    # R = 3 + 4j: exact numerator 25, l1 numerator 7
    R = np.array([3 + 4j])
    P = np.array([1.0])
    assert detection_metric(R, P, "exact")[0] == pytest.approx(25.0)
    assert detection_metric(R, P, "l1_approx")[0] == pytest.approx(7.0)


def test_metric_silence_is_zero_not_nan():
    M = detection_metric(np.zeros(4, complex), np.zeros(4), "exact")
    assert np.array_equal(M, np.zeros(4))


def test_norm_inequality_property(rng):
    # |R| <= |Re R| + |Im R| <= sqrt(2) |R| for 1e5 random values
    z = rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)
    mag = np.abs(z)
    l1 = np.abs(z.real) + np.abs(z.imag)
    assert np.all(mag <= l1)
    assert np.all(l1 <= np.sqrt(2) * mag)


def test_exact_metric_gain_invariance(rng):
    buf = random_buffer(rng, 500).samples
    _, _, M = compute_metrics(buf, FrameDetectConfig())
    for alpha in (0.01, 3.7, 250.0, -2.0):
        _, _, M2 = compute_metrics(alpha * buf, FrameDetectConfig())
        assert np.max(np.abs(M2 - M)) <= 1e-9


# --- detect_frames -----------------------------------------------------------

def test_detect_zeros_no_events():
    assert detect_frames(np.zeros(1000)) == []


def test_detect_short_buffer_no_events():
    assert detect_frames(np.ones(10)) == []


def test_detect_noiseless_preamble(preamble):
    events = detect_frames(preamble)
    assert len(events) == 1
    event = events[0]
    assert event.start_index < 160
    assert event.end_index - event.start_index + 1 >= 32
    assert event.peak_metric == pytest.approx(1.0, abs=1e-9)


def test_modes_agree_on_unit_power_preamble(preamble):
    exact = detect_frames(preamble, FrameDetectConfig(metric_mode="exact"))
    l1 = detect_frames(preamble, FrameDetectConfig(metric_mode="l1_approx"))
    assert len(exact) == len(l1) == 1
    assert exact[0].start_index == l1[0].start_index


def test_l1_mode_is_gain_sensitive(preamble):
    # documented property: scaling the signal changes l1 decisions but not exact ones
    scaled = SampleBuffer(4.0 * preamble.samples)
    assert len(detect_frames(scaled, FrameDetectConfig(metric_mode="exact"))) == 1
    assert detect_frames(scaled, FrameDetectConfig(metric_mode="l1_approx")) == []


def test_min_plateau_suppresses_short_runs(preamble):
    # keep only the first 40 STS samples: the metric run is too short for 64
    stub = np.concatenate([preamble.samples[:40], np.zeros(400)])
    short_cfg = FrameDetectConfig(min_plateau=64)
    assert detect_frames(stub, short_cfg) == []
    events = detect_frames(preamble, FrameDetectConfig(min_plateau=32))
    assert all(e.end_index - e.start_index + 1 >= 32 for e in events)


def test_pulse_train_k_events(preamble):
    # five preambles with 400-sample gaps at 20 dB: five distinct detections
    train = preamble_train(preamble, 5, 400)
    rx = add_awgn(train, 20.0, seed=99)
    events = detect_frames(rx)
    assert len(events) == 5
    starts = [e.start_index for e in events]
    spacing = np.diff(starts)
    assert np.all(np.abs(spacing - 720) <= 8)


def test_no_false_alarms_on_pure_noise():
    # unit-power complex noise, default threshold: no events on >= 95/100 seeds
    alarms = 0
    for seed in range(100):
        gen = np.random.default_rng(seed)
        noise = (gen.standard_normal(10_000) + 1j * gen.standard_normal(10_000)) / np.sqrt(2)
        if detect_frames(noise):
            alarms += 1
    assert alarms <= 5


# --- streaming variant -------------------------------------------------------

@pytest.mark.parametrize("chunk_len", [1, 7, 64, 333, 5000])
def test_streaming_matches_batch(preamble, chunk_len):
    parts = [np.zeros(200)]
    gen = np.random.default_rng(3)
    for _ in range(3):
        parts += [preamble.samples, 0.05 * (gen.standard_normal(350)
                                            + 1j * gen.standard_normal(350))]
    stream = np.concatenate(parts)
    batch = detect_frames(stream)
    assert len(batch) == 3

    detector = StreamingFrameDetector(FrameDetectConfig())
    got = []
    for i in range(0, len(stream), chunk_len):
        got += detector.process(stream[i:i + chunk_len])
    got += detector.flush()
    assert [(e.start_index, e.end_index) for e in got] == \
        [(e.start_index, e.end_index) for e in batch]
    for a, b in zip(got, batch):
        assert a.peak_metric == pytest.approx(b.peak_metric, rel=1e-12)
