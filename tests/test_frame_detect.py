import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ofdmsync

from ofdmsync import harness
from ofdmsync import (ChannelConfig, ConfigError, FrameDetectConfig, FrameEvent, SampleBuffer,
                      SizingError, autocorrelation, detect_frames, preamble_train, transmit)
from ofdmsync.core import MAX_GENERATED_SAMPLES
from ofdmsync.frame_detect import (_ONE_TREE_MAX, BLOCK_LEN, METRIC_MODES,
                                   StreamingFrameDetector, _metric_kernel, _tree_sums,
                                   detect_blocks, first_events)

from conftest import random_buffer
from metric_reference import compute_metrics


def direct_autocorrelation(x, lag, window):
    """Brute-force double loop, independent of the sliding-sum path."""
    out = np.zeros(len(x) - lag - window + 1, np.complex128)
    for n in range(len(out)):
        acc = 0.0 + 0.0j
        for m in range(window):
            acc += x[n + m] * np.conj(x[n + m + lag])
        out[n] = acc
    return out


def scan_runs(metric, threshold, min_plateau):
    """Per-sample run scan: every maximal run above threshold of at least min_plateau."""
    events, start = [], None
    for n, value in enumerate(list(metric) + [-np.inf]):
        if value > threshold:
            if start is None:
                start, peak = n, value
            peak = max(peak, value)
        elif start is not None:
            if n - start >= min_plateau:
                events.append((start, n - 1, float(peak)))
            start = None
    return events


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


def spread(gen, n):
    """n complex values with uniform phases and log-magnitudes uniform in [-20, 20]."""
    return np.exp(gen.uniform(-20, 20, n) + 1j * gen.uniform(-np.pi, np.pi, n))


def test_power_zeros_and_constant():
    _, p_squared, _ = compute_metrics(np.zeros(64))
    assert np.array_equal(p_squared, np.zeros(33))
    _, p_squared, _ = compute_metrics(np.ones(64))
    assert np.allclose(p_squared, 1.0, atol=1e-12)  # P is the window average, 16 / 16


def test_sliding_matches_direct_summation(rng):
    buf = random_buffer(rng, 600).samples
    for lag, window in ((16, 16), (16, 32), (7, 5)):
        R = autocorrelation(buf, lag, window)
        R_direct = direct_autocorrelation(buf, lag, window)
        scale = np.max(np.abs(R_direct))
        assert np.max(np.abs(R - R_direct)) <= 1e-9 * scale
        _, p_squared, _ = compute_metrics(buf, FrameDetectConfig(lag=lag, window=window))
        P = np.sqrt(p_squared) * window
        P_direct = direct_power(buf, lag, window)
        assert np.max(np.abs(P - P_direct)) <= 1e-9 * np.max(P_direct)


def test_sliding_sum_window_errors():
    with pytest.raises(SizingError):
        autocorrelation(np.ones(20), 16, 16)
    for lag, window, message in ((0, 16, "lag must be positive, got 0"),
                                 (-5, 16, "lag must be positive, got -5"),
                                 (16, 0, "window must be positive, got 0")):
        with pytest.raises(SizingError, match=f"^{re.escape(message)}$"):
            autocorrelation(np.ones(64), lag, window)
    with pytest.raises(ConfigError, match="lag must be an integer"):
        autocorrelation(np.ones(64), 16.0, 16)
    # an int too long for Python to write is shown by its bit count
    with pytest.raises(SizingError, match="lag[+]window=an int of 16610 bits$"):
        autocorrelation(np.ones(40), 10**5000, 16)
    with pytest.raises(SizingError, match="^lag must be positive, got an int of 16610 bits$"):
        autocorrelation(np.ones(40), -10**5000, 16)


def test_sts_plateau_is_period_energy(preamble):
    # with both windows inside the STS, |R[n]| is one period's energy, flat
    p = preamble.samples
    R = autocorrelation(p, 16, 16)
    period_energy = np.sum(np.abs(p[:16]) ** 2)
    assert np.max(np.abs(np.abs(R[:129]) - period_energy)) < 1e-9 * period_energy


# --- metric ------------------------------------------------------------------

def test_metric_perfect_correlation(rng):
    # a period-16 signal: R[n] equals P[n] in every window
    period = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    _, _, M = compute_metrics(np.tile(period, 4))
    assert np.allclose(M, 1.0, atol=1e-12)


def test_metric_arithmetic_example():
    # lag 1, window 1: R = (3 + 4j) * conj(1) and P = |1|^2, so the exact
    # numerator is 25 and the l1 numerator 7
    for mode, numerator in (("exact", 25.0), ("l1_approx", 7.0)):
        cfg = FrameDetectConfig(lag=1, window=1, metric_mode=mode)
        got = compute_metrics([3 + 4j, 1], cfg)
        assert [a.tolist() for a in got] == [[numerator], [1.0], [numerator]]


def test_frame_detect_config_validation():
    for kwargs in ({"lag": 0}, {"window": 0}, {"min_plateau": 0}, {"threshold": 1.0},
                   {"metric_mode": "l2"}):
        with pytest.raises(ConfigError):
            FrameDetectConfig(**kwargs)
    # sizes are bounded, so no workspace is sized from a huge one
    for name in ("lag", "window", "min_plateau"):
        for bad in (0, -1, MAX_GENERATED_SAMPLES + 1, 10**20, 10**5000):
            with pytest.raises(ConfigError, match=f"{name} must lie in \\[1, "):
                FrameDetectConfig(**{name: bad})
    # sizes are integers: a float is rejected here, not left to numpy or rounded
    for name, bad in (("lag", 16.0), ("window", 16.0), ("min_plateau", 32.5),
                      ("min_plateau", np.float64(32.0))):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            FrameDetectConfig(**{name: bad})
    # the threshold is a real number: a string or None is rejected, not left to `<`
    for bad in ("0.5", None):
        with pytest.raises(ConfigError, match="threshold must be a real number"):
            FrameDetectConfig(threshold=bad)
    # the bad value's text is bounded, and an int too long to write is shown by its bit count
    with pytest.raises(ConfigError, match="got an int of 16610 bits$"):
        FrameDetectConfig(threshold=10**5000)
    with pytest.raises(ConfigError, match=r"got 'xxx[x]*\.\.\.$") as excinfo:
        FrameDetectConfig(threshold="x" * 500)
    assert len(str(excinfo.value).split("got ")[1]) == 60
    cfg = FrameDetectConfig(lag=np.int64(16), window=np.int32(16), min_plateau=np.uint8(32))
    assert (cfg.lag, cfg.window, cfg.min_plateau) == (16, 16, 32)
    assert {type(cfg.lag), type(cfg.window), type(cfg.min_plateau)} == {int}
    assert cfg == FrameDetectConfig()


def test_metric_silence_is_zero_not_nan():
    for mode in METRIC_MODES:
        _, _, M = compute_metrics(np.zeros(35), FrameDetectConfig(metric_mode=mode))
        assert np.array_equal(M, np.zeros(4))


def test_norm_inequality_property(rng):
    # |R| <= |Re R| + |Im R| <= sqrt(2) |R| for 1e5 random window sums
    buf = rng.standard_normal(100_031) + 1j * rng.standard_normal(100_031)
    r_abs2, _, _ = compute_metrics(buf, FrameDetectConfig(metric_mode="exact"))
    l1, _, _ = compute_metrics(buf, FrameDetectConfig(metric_mode="l1_approx"))
    mag = np.sqrt(r_abs2)
    assert np.all(mag <= l1)
    assert np.all(l1 <= np.sqrt(2) * mag)


def test_exact_metric_gain_invariance(rng):
    buf = random_buffer(rng, 500).samples
    _, _, M = compute_metrics(buf, FrameDetectConfig())
    for alpha in (0.01, 3.7, 250.0, -2.0):
        _, _, M2 = compute_metrics(alpha * buf, FrameDetectConfig())
        assert np.max(np.abs(M2 - M)) <= 1e-9


# --- the metric kernel against the arithmetic it replaces ---------------------

def reference_sliding_sum(values, window):
    """The fixed tree order with a new array for every pass."""
    n_out = len(values) - window + 1
    out, offset, sums, width = None, 0, values, 1
    while True:
        if window & width:
            part = sums[offset:offset + n_out]
            out = part if out is None else out + part
            offset += width
        if 2 * width > window:
            return out
        sums = sums[:-width] + sums[width:]
        width *= 2


def test_sliding_sum_equals_the_reference_tree_order():
    # every window to 130 (eight binary digits), on one and two outputs, a few
    # hundred and more than one kernel step's; the longer ones hold infinities
    # of both signs and NaNs, whose windows must give what the reference gives
    gen = np.random.default_rng(130)
    for window in range(1, 131):
        for length in (window, window + 1, window + 300, BLOCK_LEN + 3):
            for values in (spread(gen, length), spread(gen, length).real):
                if length > window + 1:
                    values[gen.integers(0, length, 3)] = (np.inf, -np.inf, np.nan)
                with np.errstate(invalid="ignore"):
                    want = reference_sliding_sum(values, window)
                    got = _tree_sums(values.copy(), window,
                                     np.empty(length - window + 1, values.dtype))
                assert got.dtype == values.dtype
                np.testing.assert_array_equal(got, want, err_msg=f"{window}, {length}")


def reference_metrics(x, cfg):
    """(R window sums, numerator, p_squared, metric) with one temporary per step."""
    products = np.multiply(x[:len(x) - cfg.lag], np.conj(x[cfg.lag:]))
    sums = reference_sliding_sum(products, cfg.window)
    R = sums / cfg.window
    P = reference_sliding_sum(np.abs(x[cfg.lag:]) ** 2, cfg.window) / cfg.window
    if cfg.metric_mode == "exact":
        numerator = R.real**2 + R.imag**2
    else:
        numerator = np.abs(R.real) + np.abs(R.imag)
    p_squared = P**2
    return sums, numerator, p_squared, numerator / (p_squared + 1e-30)


def at_the_one_tree_bound(test):
    """@examples of one kernel step of _ONE_TREE_MAX lag products, the most
    that the one-tree layout takes, one more, and a full step, for odd,
    power-of-two and other windows, both metric modes, and |x| near 1, 1e155
    (R overflows) and 1e-160 (P is subnormal, P^2 zero)."""
    for window in (1, 2, 10, 16, 48, 64):
        for products in (_ONE_TREE_MAX, _ONE_TREE_MAX + 1, BLOCK_LEN + window - 1):
            for metric_mode in METRIC_MODES:
                for exponent in (0.0, 155.0, -160.0):
                    test = example(lag=16, window=window, extra=products - window + 1,
                                   metric_mode=metric_mode, exponent=exponent, seed=window,
                                   zeros=[])(test)
    return test


@settings(max_examples=300, deadline=None)
@given(lag=st.integers(1, 64), window=st.integers(1, 64), extra=st.integers(1, 300),
       metric_mode=st.sampled_from(METRIC_MODES), exponent=st.floats(-150, 150),
       seed=st.integers(0, 2**32 - 1),
       zeros=st.lists(st.tuples(st.integers(0, 400), st.integers(1, 120)), max_size=3))
# |x| near 1e155: the products, and so R itself, overflow
@example(lag=1, window=4, extra=40, metric_mode="exact", exponent=155.0, seed=1, zeros=[])
@example(lag=16, window=10, extra=60, metric_mode="l1_approx", exponent=155.0, seed=2,
         zeros=[(30, 20)])
@example(lag=16, window=16, extra=50, metric_mode="exact", exponent=-160.0, seed=3, zeros=[])
# one product: numpy rounds a one-sample complex multiply written in place differently
@example(lag=2, window=1, extra=1, metric_mode="exact", exponent=0.0, seed=0, zeros=[])
# both scalings of R and P, against the reference's divide: power-of-two windows
# (one multiply by the exact reciprocal) and another one, at subnormal P and overflow
@example(lag=16, window=1, extra=40, metric_mode="exact", exponent=-160.0, seed=4, zeros=[])
@example(lag=16, window=1, extra=40, metric_mode="exact", exponent=155.0, seed=5, zeros=[])
@example(lag=3, window=2, extra=40, metric_mode="l1_approx", exponent=-160.0, seed=6, zeros=[])
@example(lag=3, window=2, extra=40, metric_mode="exact", exponent=155.0, seed=7, zeros=[])
@example(lag=16, window=64, extra=80, metric_mode="exact", exponent=-160.0, seed=8, zeros=[])
@example(lag=16, window=64, extra=80, metric_mode="l1_approx", exponent=155.0, seed=9,
         zeros=[(40, 30)])
@example(lag=16, window=48, extra=80, metric_mode="exact", exponent=-160.0, seed=10, zeros=[])
@at_the_one_tree_bound
def test_kernel_bits_equal_the_reference_arithmetic(lag, window, extra, metric_mode, exponent,
                                                     seed, zeros):
    gen = np.random.default_rng(seed)
    n = lag + window - 1 + extra
    x = 10.0**exponent * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
    for at, length in zeros:
        x[at:at + length] = 0
    cfg = FrameDetectConfig(lag=lag, window=window, metric_mode=metric_mode)
    with np.errstate(all="ignore"):
        sums, *want = reference_metrics(x, cfg)
        got = compute_metrics(x, cfg)
        assert autocorrelation(x, lag, window).tobytes() == sums.tobytes()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("window", [16, 48])
@pytest.mark.parametrize("n", [300, 3000])
def test_kernel_scales_subnormal_window_sums_as_the_reference_divides(n, window):
    # |x| near 1e-160: the n lag products and powers are subnormal, and |R|^2
    # and P^2 underflow to 0, so only R and P themselves show how they were
    # scaled. The kernel returns neither: read them from the arena, where R
    # starts at 3n (one tree) or 2n (two trees), and P at 4n in the one-tree
    # layout (the two-tree layout overwrites P with its square)
    cfg = FrameDetectConfig(window=window)
    gen = np.random.default_rng(n + window)
    x = 1e-160 * (gen.standard_normal(n + cfg.lag) + 1j * gen.standard_normal(n + cfg.lag))
    k = n - window + 1
    arena = np.empty(4 * n + 3 * k, complex)
    _metric_kernel(x, cfg, arena)
    one_tree = n <= _ONE_TREE_MAX
    R = arena[3 * n:3 * n + k] if one_tree else arena[2 * n:2 * n + k]
    products = np.multiply(x[:n], np.conj(x[cfg.lag:]))
    assert R.tobytes() == (reference_sliding_sum(products, window) / window).tobytes()
    if one_tree:
        want = reference_sliding_sum(np.abs(x[cfg.lag:]) ** 2, window) / window
        assert np.all(want < np.finfo(float).tiny)
        assert arena[4 * n:4 * n + k].real.tobytes() == want.tobytes()


@pytest.mark.parametrize("products", [_ONE_TREE_MAX, _ONE_TREE_MAX + 1])
def test_a_stream_near_overflow_warns_on_neither_kernel_layout(products):
    # |x| = 1.1e77, so P^2 is 1.46e308 and |R|^2 at most that: every square
    # stays finite, and no sum of the one-tree layout, whose straddling sums
    # add lag products to powers, may raise a warning the two-tree one does not
    cfg = FrameDetectConfig()
    x = 1.1e77 * np.exp(2j * np.pi * np.random.default_rng(products).random(products + cfg.lag))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = compute_metrics(x, cfg)
        _, *want = reference_metrics(x, cfg)
    assert np.all(got[1] > 1e308) and np.isfinite(got[2]).all()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("metric_mode", METRIC_MODES)
@pytest.mark.parametrize("n_out", [BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, 2 * BLOCK_LEN])
def test_metrics_at_step_multiples_equal_the_reference_arithmetic(rng, n_out, metric_mode):
    # one step short of, exactly, one past and exactly two steps of outputs
    cfg = FrameDetectConfig(metric_mode=metric_mode)
    x = spread(rng, n_out + cfg.lag + cfg.window - 1)
    _, *want = reference_metrics(x, cfg)
    for a, b in zip(compute_metrics(x, cfg), want):
        assert len(a) == n_out and a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), window=st.sampled_from([3, 5, 7, 10, 12, 24, 33, 63]),
       metric_mode=st.sampled_from(METRIC_MODES),
       sizes=st.lists(st.tuples(st.integers(1, 3 * BLOCK_LEN),
                                st.integers(BLOCK_LEN, 3 * BLOCK_LEN)), min_size=1, max_size=4))
def test_streaming_with_a_window_that_is_not_a_power_of_two(seed, window, metric_mode, sizes):
    # period-16 bursts across the edges of detect_frames' steps; each pair of
    # chunk sizes covers at least BLOCK_LEN samples, so a pass is a few calls
    gen = np.random.default_rng(seed)
    n = 3 * BLOCK_LEN + 1000
    x = 0.2 * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
    for at in (BLOCK_LEN - 90, 2 * BLOCK_LEN - 150, 2 * BLOCK_LEN + 3000):
        x[at:at + 192] = np.tile(np.exp(2j * np.pi * gen.uniform(size=16)), 12)
    cfg = FrameDetectConfig(window=window, min_plateau=8, metric_mode=metric_mode)
    batch = detect_frames(x, cfg)
    assert len(batch) >= 3
    calls, flushed = _stream(x, [size for pair in sizes for size in pair], cfg)
    assert [e for found in calls for e in found] + flushed == batch


def test_workspace_grows_to_one_step_and_no_further():
    cfg = FrameDetectConfig(window=10)
    cap = BLOCK_LEN + cfg.lag + cfg.window - 1
    detector = StreamingFrameDetector(cfg)
    workspaces = set()  # allocated once: one array for every call
    for size in (1, 40, 5000, 3 * BLOCK_LEN + 7, 100, 20 * BLOCK_LEN):
        detector.process(np.ones(size))
        assert detector._size <= cap
        assert 0 <= detector._first <= detector._held <= detector._size
        workspaces.add(id(detector._workspace))
    assert detector._size == cap and len(workspaces) == 1


# Prints the peak RSS (KiB) before and after one process call on a single
# 4M-sample chunk. It runs in a fork of a small process: an exec'd process
# inherits the peak of the one that spawned it.
_ONE_CHUNK_PEAK = """
import os, resource, sys
if os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
import numpy as np
from ofdmsync import StreamingFrameDetector
x = np.empty(1 << 22, np.complex128)
rng = np.random.default_rng(1)
for at in range(0, len(x), 1 << 16):
    x[at:at + (1 << 16)] = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
StreamingFrameDetector().process(x)
print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_one_long_chunk_runs_in_bounded_memory():
    # the chunk is 64 MB; whole-chunk temporaries would add hundreds of MB
    env = {**os.environ, "PYTHONPATH": str(Path(ofdmsync.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _ONE_CHUNK_PEAK], env=env,
                          capture_output=True, text=True, check=True)
    before, after = map(int, proc.stdout.split())
    assert after - before < 4 * 1024


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
    rx = transmit(train, ChannelConfig(snr_db=20.0), seed=99)
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


def test_first_events_keep_runs_that_touch_a_row_boundary_apart(preamble):
    # Rows of one continuous 16-periodic signal: row 0's run is still open at
    # its last valid metric index, and row 1 opens with a run at index 0. Laid
    # end to end the metric never dips, so only the zeroed straddling indices
    # keep the two runs apart. Row 2 is silent and has no event.
    row_len = 96
    periodic = np.tile(preamble.samples[:16], 2 * row_len // 16)
    rows = np.concatenate([periodic, np.zeros(row_len)]).reshape(3, row_len)
    last = row_len - 32  # the last metric index whose windows stay in the row
    want = [FrameEvent(0, last, pytest.approx(1.0)), FrameEvent(0, last, pytest.approx(1.0)), None]
    assert first_events(rows) == want
    assert [next(iter(detect_frames(row)), None) for row in rows] == first_events(rows)
    assert detect_frames(periodic)[0].end_index == 2 * row_len - 32  # one run without the cut


@settings(max_examples=60, deadline=None)
@given(n_rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       row_len=st.one_of(st.integers(32, 400), st.integers(BLOCK_LEN - 200, 2 * BLOCK_LEN)),
       bursts=st.lists(st.tuples(st.integers(0, 2 * BLOCK_LEN), st.integers(1, 300)),
                       max_size=12),
       prefix=st.integers(0, 2 * BLOCK_LEN + 9))
def test_first_events_equal_each_rows_detect_frames(preamble, n_rows, row_len, seed, bursts,
                                                    prefix):
    # Noise with periodic bursts anywhere in the block, so runs open and close
    # near row ends, near the kernel's step boundaries and near the end of the
    # trial harness's short first pass over each row's first ``prefix``
    # metric outputs.
    gen = np.random.default_rng(seed)
    flat = 0.3 * (gen.standard_normal(n_rows * row_len) + 1j * gen.standard_normal(n_rows * row_len))
    period = preamble.samples[:16]
    for at, length in bursts:
        burst = np.tile(period, length // 16 + 1)[:length]
        flat[at:at + length] = burst[:len(flat[at:at + length])]
    rows = flat.reshape(n_rows, row_len)
    want = [next(iter(detect_frames(row)), None) for row in rows]
    assert first_events(rows) == want
    assert harness._first_events(rows, prefix) == want


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 30), pick=st.integers(0, 29), steps=st.integers(2, 3),
       extra=st.integers(0, 400), seed=st.integers(0, 2**32 - 1),
       edge=st.tuples(st.integers(0, 200), st.integers(0, 200)),
       bursts=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                                 st.integers(1, 300)), max_size=12))
# the edge burst runs from row 4 into row 5 across the second step's start
@example(m=5, pick=0, steps=2, extra=0, seed=1, edge=(120, 150), bursts=[])
def test_first_events_over_steps_that_start_inside_a_straddle(preamble, m, pick, steps, extra,
                                                              seed, edge, bursts):
    # A first pass over p samples of each row, with BLOCK_LEN = m * p - e and
    # 0 < e < lag + window - 1: the second kernel step starts e samples before
    # row m, inside the indices that straddle rows m - 1 and m, and the pass
    # spans two or three steps. A 16-periodic burst runs from the end of row
    # m - 1's pass into the start of row m's, so only zeroing the straddle on
    # both sides of the step edge keeps their runs apart; more bursts sit
    # anywhere in the rows.
    cfg = FrameDetectConfig()
    context = cfg.lag + cfg.window - 1
    fits = [e for e in range(1, context) if (BLOCK_LEN + e) % m == 0]
    p = (BLOCK_LEN + fits[pick % len(fits)]) // m
    n_rows = steps * m + 1
    gen = np.random.default_rng(seed)
    rows = 0.3 * (gen.standard_normal((n_rows, p + extra))
                  + 1j * gen.standard_normal((n_rows, p + extra)))
    period = preamble.samples[:16]
    for row, at, length in bursts:
        piece = rows[row % n_rows, at % (p + extra):][:length]
        piece[:] = np.tile(period, length // 16 + 1)[:len(piece)]
    before, after = edge
    burst = np.tile(period, (before + after) // 16 + 1)
    rows[m - 1, p - before:p] = burst[:before]
    rows[m, :after] = burst[before:before + after]
    short = rows[:, :p]
    assert first_events(short) == [next(iter(detect_frames(row)), None) for row in short]
    want = [next(iter(detect_frames(row)), None) for row in rows]
    assert harness._first_events(rows, p - context) == want
    assert first_events(rows) == want


@pytest.mark.parametrize("cut", [-2, -1, 0, 1, 40])
def test_a_prefix_event_stands_only_when_the_prefix_gives_the_output_that_closes_it(cut):
    # Row 0 holds a run that ends at output 199; row 1 the same run 40 samples
    # later, and row 2 none. The first pass takes PREFIX = 201 + cut outputs,
    # which run to 200 + cut: at cut 0 and past it output 200, which closes
    # row 0's run, is one of them, and the event stands. Below it, the pass
    # ends the run at its last output, which at cut -1 is the run's own end by
    # chance, and only the scan of the whole row settles its bounds and peak.
    cfg = FrameDetectConfig()
    rows = np.zeros((3, 600), np.complex128)
    rows[0, 100:216] = rows[1, 140:256] = _tone(8)[:116]
    want = [next(iter(detect_frames(row, cfg)), None) for row in rows]
    assert want[0].end_index == 199 and want[1].end_index == 239 and want[2] is None
    prefix = 201 + cut
    assert [harness._settled(event, prefix) for event in want] == [cut >= 0, cut >= 40, False]
    assert harness._first_events(rows, prefix) == want
    samples = prefix + cfg.lag + cfg.window - 1  # the samples that give PREFIX outputs
    assert first_events(rows[:, :samples], cfg)[0].end_index == min(199, 200 + cut)


@pytest.mark.parametrize("row_len", [1, 31, 32])
def test_first_events_of_rows_too_short_for_a_run(row_len):
    rows = np.ones((3, row_len), np.complex128)
    assert first_events(rows) == [next(iter(detect_frames(row)), None) for row in rows]


def _noisy_burst():
    """A 16-periodic burst with a little noise, padded with zeros: one run, one peak index."""
    gen = np.random.default_rng(5)
    burst = np.tile(np.exp(2j * np.pi * gen.uniform(size=16)), 6)
    burst += 0.1 * (gen.standard_normal(96) + 1j * gen.standard_normal(96))
    return np.concatenate([np.zeros(40), burst, np.zeros(40)])


# the last output of the kernel's first step, and the first output of its second
@pytest.mark.parametrize("edge", [BLOCK_LEN - 1, BLOCK_LEN])
@pytest.mark.parametrize("feature", ["start", "end", "peak"])
def test_a_run_that_starts_ends_or_peaks_on_a_step_edge(feature, edge):
    # Four rows of 3000 samples: the kernel's first step over the block ends
    # inside row 2, where the burst puts its run's start, end or peak on the
    # edge. min_plateau is the run's length, so one lost output loses it.
    burst = _noisy_burst()
    metric = reference_metrics(burst, FrameDetectConfig())[3]
    [(start, end, _)] = scan_runs(metric, 0.5, 1)
    cfg = FrameDetectConfig(min_plateau=end - start + 1)
    index = {"start": start, "end": end,
             "peak": start + int(np.argmax(metric[start:end + 1]))}[feature]
    rows = np.zeros((4, 3000), np.complex128)
    flat = rows.reshape(-1)
    flat[edge - index:edge - index + len(burst)] = burst
    at = edge - index + start - 2 * 3000  # the run's start in row 2
    [want] = scan_runs(reference_metrics(rows[2], cfg)[3], cfg.threshold, cfg.min_plateau)
    assert want == (at, at + end - start, float(metric.max()))
    per_row = [next(iter(detect_frames(row, cfg)), None) for row in rows]
    assert per_row == [None, None, FrameEvent(*want), None]
    assert first_events(rows, cfg) == per_row
    # the detector's first step over the flat block ends on the same edge
    assert detect_frames(flat, cfg) == [FrameEvent(want[0] + 6000, want[1] + 6000, want[2])]


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
    assert got == batch
    assert {type(event) for event in got + batch} == {FrameEvent}


# Complex values whose magnitudes are integers (np.abs rounds through hypot
# otherwise), so that |x|^2 and every product x[n] * conj(x[n + lag]) are exact.
EXACT_VALUES = np.array([0, 1, -1, 2, -2, 1j, -1j, 2j, -2j, 3 + 4j, 4 - 3j, -3 - 4j, -4 + 3j])


@st.composite
def exact_signals(draw):
    """Noise overwritten by pieces of a period-16 tone at random gains, from EXACT_VALUES."""
    n = draw(st.integers(0, 1500))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = draw(st.sampled_from((0, 1, 2))) * gen.choice(EXACT_VALUES[:7], n)
    tone = np.tile(gen.choice(EXACT_VALUES, 16), 10)
    for _ in range(draw(st.integers(0, 4))):
        length = draw(st.integers(1, len(tone)))
        at = draw(st.integers(0, max(n - length, 0)))
        piece = tone[:min(length, n - at)]
        x[at:at + len(piece)] = draw(st.sampled_from((1, 4, 30))) * piece
    return x


@settings(max_examples=200, deadline=None)
@given(x=exact_signals(), scale=st.floats(1e-3, 1e3), min_plateau=st.integers(1, 100),
       metric_mode=st.sampled_from(("exact", "l1_approx")))
def test_detect_frames_equals_a_per_sample_run_scan(x, scale, min_plateau, metric_mode):
    x = scale * x
    cfg = FrameDetectConfig(min_plateau=min_plateau, metric_mode=metric_mode)
    got = [(e.start_index, e.end_index, e.peak_metric) for e in detect_frames(x, cfg)]
    if len(x) < cfg.lag + cfg.window:
        assert got == []
        return
    _, _, metric = compute_metrics(x, cfg)
    assert got == scan_runs(metric, cfg.threshold, min_plateau)


def _chunks(x, sizes):
    """``x`` cut into consecutive chunks, cycling through ``sizes``."""
    chunks, at = [], 0
    while at < len(x):
        size = sizes[len(chunks) % len(sizes)]
        chunks.append(x[at:at + size])
        at += size
    return chunks


def _stream(x, sizes, cfg=FrameDetectConfig()):
    """Events per process call, cycling through chunk ``sizes``, and the events of flush."""
    detector = StreamingFrameDetector(cfg)
    return [detector.process(chunk) for chunk in _chunks(x, sizes)], detector.flush()


@st.composite
def spread_signals(draw):
    """Noise (or silence) from ``spread``, overwritten by pieces of a period-16 tone.

    The tone's values come from ``spread`` too, and each piece has a gain in
    e^-20 .. e^20, so window sums mix magnitudes many orders apart.
    """
    n = draw(st.integers(0, 1500))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = draw(st.sampled_from((0, 1))) * spread(gen, n)
    tone = np.tile(spread(gen, 16), 10)
    for _ in range(draw(st.integers(0, 4))):
        length = draw(st.integers(1, len(tone)))
        at = draw(st.integers(0, max(n - length, 0)))
        piece = tone[:min(length, n - at)]
        x[at:at + len(piece)] = np.exp(draw(st.floats(-20, 20))) * piece
    return x


@settings(max_examples=200, deadline=None)
@given(x=spread_signals(), min_plateau=st.integers(1, 100), data=st.data())
def test_any_chunking_finds_the_batch_events(x, min_plateau, data):
    cfg = FrameDetectConfig(min_plateau=min_plateau)
    sizes = data.draw(st.lists(st.integers(1, max(len(x), 1)), min_size=1, max_size=60))
    calls, flushed = _stream(x, sizes, cfg)
    assert [e for found in calls for e in found] + flushed == detect_frames(x, cfg)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), loud_len=st.integers(1000, 20_000),
       loud_gain=st.floats(1, 6).map(lambda e: 10**e), amplitude=st.floats(1e-3, 1e3),
       lead=st.integers(32, 2000))
def test_a_loud_stretch_does_not_move_a_later_frame(preamble, seed, loud_len, loud_gain,
                                                    amplitude, lead):
    # lead >= lag + window zeros: every window that starts after the loud
    # stretch holds frame samples only
    gen = np.random.default_rng(seed)
    noise = [1, 1j] @ gen.standard_normal((2, 520 + loud_len))
    frame = np.concatenate([np.zeros(lead), amplitude * (
        np.concatenate([preamble.samples, np.zeros(200)]) + 0.1 * noise[:520])])
    loud = amplitude * loud_gain * noise[520:]
    alone = detect_frames(frame)
    after = [FrameEvent(e.start_index - loud_len, e.end_index - loud_len, e.peak_metric)
             for e in detect_frames(np.concatenate([loud, frame]))
             if e.start_index >= loud_len]
    assert alone and after == alone


def test_metrics_of_overlapping_segments_equal_the_whole_buffer(rng):
    # longer than 2 * BLOCK_LEN, and than the ~16,400 samples from which
    # numpy may evaluate `a * temporary` in place with swapped operands
    n = max(2 * BLOCK_LEN, 1 << 15) + 5000
    x = spread(rng, n)
    for at in (BLOCK_LEN - 100, 20_000, 2 * BLOCK_LEN + 10):  # frames across block edges
        x[at:at + 160] = np.tile(spread(rng, 16), 10)
    for mode in METRIC_MODES:
        cfg = FrameDetectConfig(metric_mode=mode)
        context = cfg.lag + cfg.window - 1
        whole = compute_metrics(x, cfg)
        for start, stop in ((0, n), (1, n - 1), (100, 5000), (7, BLOCK_LEN + 7),
                            (BLOCK_LEN, n), (12_345, 12_345 + 20_000)):
            for part, full in zip(compute_metrics(x[start:stop], cfg), whole):
                assert np.array_equal(part, full[start:stop - context])
    # one pass, a per-sample run scan and steps of 5000 samples give the same events
    cfg = FrameDetectConfig()
    events = detect_frames(x, cfg)
    assert [(e.start_index, e.end_index, e.peak_metric) for e in events] == scan_runs(
        compute_metrics(x, cfg)[2], cfg.threshold, cfg.min_plateau)
    assert detect_blocks(x[at:at + 5000] for at in range(0, n, 5000)) == events
    assert any(e.start_index < BLOCK_LEN <= e.end_index for e in events)


def _tone(periods):
    return np.tile(EXACT_VALUES[[1, 9, 6, 3] * 4], periods)


def test_run_crossing_chunk_edges_is_reported_once():
    x = np.concatenate([np.zeros(200), _tone(10), np.zeros(300)])
    [event] = detect_frames(x)
    calls, flushed = _stream(x, [7])
    assert event.end_index // 7 - event.start_index // 7 > 10
    assert [e for found in calls for e in found] == [event]
    assert flushed == []


def test_run_open_at_end_of_stream_is_closed_by_flush():
    x = np.concatenate([np.zeros(100), _tone(10)])
    [event] = detect_frames(x)
    assert event.end_index == len(x) - 32  # the last metric index
    calls, flushed = _stream(x, [9])
    assert all(found == [] for found in calls)
    assert flushed == [event]


def test_short_run_split_across_chunks_is_dropped():
    x = np.concatenate([_tone(2), np.zeros(400)])
    [short] = detect_frames(x, FrameDetectConfig(min_plateau=1))
    length = short.end_index - short.start_index + 1
    assert 1 < length < 32
    for size in (1, 3, length // 2):
        calls, flushed = _stream(x, [size], FrameDetectConfig(min_plateau=length + 1))
        assert [e for found in calls for e in found] + flushed == []
        calls, flushed = _stream(x, [size], FrameDetectConfig(min_plateau=length))
        assert [e for found in calls for e in found] + flushed == [short]


# --- the kernel skip: each call's events ---------------------------------------

class EveryCallReference:
    """A detector that scans every metric output at the end of each call.

    It keeps the whole stream, recomputes its metric with :func:`compute_metrics`
    on every call and walks the outputs it has not seen one by one, so each
    call returns the events that close in it, as a detector that runs the
    kernel on every call does.
    """

    def __init__(self, cfg):
        self.cfg, self.x, self.seen, self.run = cfg, np.zeros(0, np.complex128), 0, None

    def process(self, chunk):
        self.x = np.concatenate([self.x, np.asarray(chunk, np.complex128).reshape(-1)])
        if len(self.x) < self.cfg.lag + self.cfg.window:
            return []
        metric = compute_metrics(self.x, self.cfg)[2]
        events = []
        for n in range(self.seen, len(metric)):
            value = metric[n]
            if value > self.cfg.threshold:
                start, peak = (n, value) if self.run is None else (self.run[0], self.run[2])
                self.run = (start, n, max(peak, value))
            elif self.run is not None:
                events += self.flush()
        self.seen = len(metric)
        return events

    def flush(self):
        if self.run is None:
            return []
        (start, end, peak), self.run = self.run, None
        if end - start + 1 < self.cfg.min_plateau:
            return []
        return [FrameEvent(start, end, float(peak))]


def _per_call(detector, chunks, flush_after=()):
    """Each process call's events, then a flush's after every call numbered in ``flush_after``
    and after the last one."""
    out = []
    for k, chunk in enumerate(chunks):
        out.append(detector.process(chunk))
        if k in flush_after:
            out.append(detector.flush())
    return out + [detector.flush()]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 1200),
       sizes=st.lists(st.integers(1, 80), min_size=1, max_size=30),
       min_plateau=st.integers(1, 64), metric_mode=st.sampled_from(METRIC_MODES),
       window=st.sampled_from([3, 5, 7, 10, 12, 16, 24, 33]),
       bursts=st.lists(st.tuples(st.integers(0, 1200), st.integers(1, 200),
                                 st.floats(0.3, 3.0)), max_size=5),
       flush_after=st.sets(st.integers(0, 60), max_size=2))
def test_each_call_returns_the_every_call_reference_events(seed, n, sizes, min_plateau,
                                                            metric_mode, window, bursts,
                                                            flush_after):
    # period-16 bursts at any offset, so runs open and close across chunk edges
    # and across the calls on which the kernel is skipped
    gen = np.random.default_rng(seed)
    x = 0.3 * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
    period = np.exp(2j * np.pi * gen.uniform(size=16))
    for at, length, gain in bursts:
        piece = gain * np.tile(period, length // 16 + 1)[:len(x[at:at + length])]
        x[at:at + len(piece)] = piece
    cfg = FrameDetectConfig(window=window, min_plateau=min_plateau, metric_mode=metric_mode)
    chunks = _chunks(x, sizes)
    got = _per_call(StreamingFrameDetector(cfg), chunks, flush_after)
    assert got == _per_call(EveryCallReference(cfg), chunks, flush_after)


def test_a_run_of_exactly_min_plateau_at_the_end_is_reported_by_flush():
    x = np.concatenate([np.zeros(100), _tone(4)])
    [event] = detect_frames(x, FrameDetectConfig(min_plateau=1))
    cfg = FrameDetectConfig(min_plateau=event.end_index - event.start_index + 1)
    assert event.end_index == len(x) - 32  # the run reaches the last output
    calls = _per_call(StreamingFrameDetector(cfg), _chunks(x, [1]))
    assert all(found == [] for found in calls[:-1])
    assert calls[-1] == [event] == detect_frames(x, cfg)


def test_a_detector_reused_after_flush_gives_the_reference_events():
    # the first flush closes a run that the second part carries on
    a = np.concatenate([np.zeros(60), _tone(3)])
    b = np.concatenate([_tone(5), np.zeros(90), _tone(1), np.zeros(40)])
    for min_plateau in (1, 20, 40, 64):
        cfg = FrameDetectConfig(min_plateau=min_plateau)
        for size in (1, 5, 33, 1000):
            first = _chunks(a, [size])
            chunks, flush_after = first + _chunks(b, [size]), {len(first) - 1}
            assert _per_call(StreamingFrameDetector(cfg), chunks, flush_after) == _per_call(
                EveryCallReference(cfg), chunks, flush_after)


def test_held_samples_never_grow_the_workspace_past_one_step():
    # with min_plateau above BLOCK_LEN the kernel must still run on a full workspace
    cfg = FrameDetectConfig(min_plateau=3 * BLOCK_LEN)
    cap = BLOCK_LEN + cfg.lag + cfg.window - 1
    x = np.concatenate([np.zeros(100), _tone(5 * BLOCK_LEN // 16), np.zeros(15 * BLOCK_LEN)])
    detector = StreamingFrameDetector(cfg)
    events = []
    for value in x[:100]:
        events += detector.process([value])
        assert detector._size <= cap
        assert 0 <= detector._first <= detector._held <= detector._size
    events += detector.process(x[100:])  # 20 * BLOCK_LEN samples
    assert detector._size <= cap
    assert 0 <= detector._first <= detector._held <= detector._size
    events += detector.flush()
    assert len(events) == 1 and events == detect_frames(x, cfg)


def _noise_with_tone(n, tone_at, tone_stop, seed):
    gen = np.random.default_rng(seed)
    x = 0.3 * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
    x[tone_at:tone_stop] = np.tile(np.exp(2j * np.pi * gen.uniform(size=16)),
                                   BLOCK_LEN)[:tone_stop - tone_at]
    return x


def _recording_detector(cfg):
    """A detector, and the list its steps append their (n, numerator, p_squared, metric) to."""
    detector, rows = StreamingFrameDetector(cfg), []
    detector._on_step = lambda n, *arrays: rows.append((n, *(a.copy() for a in arrays)))
    return detector, rows


def _assert_batch_bits(x, cfg, events, rows):
    """The events are detect_frames', and the step rows, end to end, compute_metrics'."""
    assert events == detect_frames(x, cfg)
    starts = [row[0] for row in rows]
    assert starts == [0, *np.cumsum([len(row[3]) for row in rows[:-1]]).tolist()]
    for got, want in zip((np.concatenate(column) for column in list(zip(*rows))[1:]),
                         compute_metrics(x, cfg)):
        assert got.tobytes() == want.tobytes()


def test_held_samples_move_to_the_front_while_a_run_is_open():
    # a run from about sample 3000 keeps every call stepping; the third chunk
    # would run past the workspace end, so the context moves to the front first
    cfg = FrameDetectConfig()
    context = cfg.lag + cfg.window - 1
    x = _noise_with_tone(16_000, 3000, 12_000, seed=11)
    detector, rows = _recording_detector(cfg)
    events = detector.process(x[:4000]) + detector.process(x[4000:8000])
    assert detector._run is not None and detector._held == 8000
    events += detector.process(x[8000:12_000])
    assert (detector._first, detector._held) == (4000, 4000 + context)  # moved, then stepped
    events += detector.process(x[12_000:]) + detector.flush()
    assert len(events) == 1 and events[0].start_index < 8000 < events[0].end_index
    _assert_batch_bits(x, cfg, events, rows)


def test_held_samples_move_to_the_front_with_unstepped_samples():
    # with min_plateau 200 the 50-sample chunks are held unstepped; the third
    # of them would run past the workspace end, so 131 held samples move, the
    # first samples of a tone among them
    cfg = FrameDetectConfig(min_plateau=200)
    context = cfg.lag + cfg.window - 1
    x = _noise_with_tone(9000, 8120, 8700, seed=12)
    detector, rows = _recording_detector(cfg)
    events = detector.process(x[:8100])
    for at in (8100, 8150):
        events += detector.process(x[at:at + 50])
    assert (detector._first, detector._held) == (8100 - context, 8200)
    events += detector.process(x[8200:8250])
    assert (detector._first, detector._held) == (0, 8250 - 8100 + context)  # moved, not stepped
    for at in range(8250, 9000, 50):
        events += detector.process(x[at:at + 50])
    events += detector.flush()
    assert len(events) == 1 and 8069 < events[0].start_index < 8200
    _assert_batch_bits(x, cfg, events, rows)


def test_any_numeric_chunk_gives_the_complex128_events():
    gen = np.random.default_rng(7)
    x = 0.3 * (gen.standard_normal(3000) + 1j * gen.standard_normal(3000))
    for at in (200, 1500, 2700):
        x[at:at + 160] = np.tile(np.exp(2j * np.pi * gen.uniform(size=16)), 10)
    x64 = x.astype(np.complex64)
    cases = [(x64, x64.astype(np.complex128)), (x.real, x.real + 0j),
             (x.real.astype(np.float32), x.real.astype(np.float32) + 0j),
             (x.tolist(), x), (np.round(4 * x.real).astype(np.int16), np.round(4 * x.real) + 0j)]
    for sizes in ([1], [7, 64, 1000], [5000]):
        for chunk_source, complex_source in cases:
            want = _per_call(StreamingFrameDetector(), _chunks(complex_source, sizes))
            assert sum(map(len, want)) == 3
            assert _per_call(StreamingFrameDetector(), _chunks(chunk_source, sizes)) == want


# --- short stretches: a step skips the interior ones --------------------------

def _run_of(x):
    """The one run in ``x`` and the config whose min_plateau is exactly its length."""
    [event] = detect_frames(x, FrameDetectConfig(min_plateau=1))
    return event, FrameDetectConfig(min_plateau=event.end_index - event.start_index + 1)


@pytest.mark.parametrize("cut", ["first_output_of_the_next_step", "last_output_of_this_step"])
def test_a_run_of_min_plateau_split_into_a_short_edge_stretch_is_reported(cut):
    # The first call's step ends inside the run. Either the next step opens
    # with one output that carries the open run up to min_plateau, or this
    # step ends with one output that opens the run the next call completes.
    # Both stretches are shorter than min_plateau but lie on a step's edge.
    x = np.concatenate([np.zeros(100), _tone(3), np.zeros(100)])
    event, cfg = _run_of(x)
    context = cfg.lag + cfg.window - 1
    last = event.end_index - 1 if cut == "first_output_of_the_next_step" else event.start_index
    chunks = [x[:last + 1 + context], x[last + 1 + context:]]  # step one ends at output `last`
    assert last + 1 >= cfg.min_plateau  # so the first call runs its step
    calls = _per_call(StreamingFrameDetector(cfg), chunks)
    assert calls == _per_call(EveryCallReference(cfg), chunks)
    assert calls == [[], [event], []]


def test_interior_blips_next_to_a_run_of_exactly_min_plateau():
    blip = np.concatenate([_tone(2), np.zeros(60)])
    x = np.concatenate([np.zeros(100), *[blip] * 20, _tone(3), np.zeros(60), *[blip] * 20,
                        np.zeros(100)])
    middle = np.concatenate([np.zeros(100), _tone(3), np.zeros(100)])
    _, cfg = _run_of(middle)
    runs = detect_frames(x, FrameDetectConfig(min_plateau=1))
    lengths = [e.end_index - e.start_index + 1 for e in runs]
    assert len(runs) == 41 and lengths.count(cfg.min_plateau) == 1
    assert max(n for n in lengths if n != cfg.min_plateau) < cfg.min_plateau
    [want] = [e for e in runs if e.end_index - e.start_index + 1 == cfg.min_plateau]
    for sizes in ([len(x)], [500], [97, 13], [1]):
        chunks = _chunks(x, sizes)
        calls = _per_call(StreamingFrameDetector(cfg), chunks)
        assert calls == _per_call(EveryCallReference(cfg), chunks)
        assert [e for found in calls for e in found] == [want]


# --- the run-scan gate: steps with too few outputs above the threshold ---------

def _step_metric(x, cfg, first, last):
    """The metric outputs ``first`` to ``last`` of ``x``, as a step that covers them sees them."""
    return compute_metrics(x, cfg)[2][first:last + 1]


def test_a_run_that_opens_in_a_steps_last_few_outputs_stays_open():
    # Step one ends three outputs into the run: fewer than min_plateau above
    # the threshold, but the last one is, so the run must stay open.
    x = np.concatenate([np.zeros(100), _tone(6), np.zeros(100)])
    cfg = FrameDetectConfig()
    [event] = detect_frames(x, cfg)
    context = cfg.lag + cfg.window - 1
    last = event.start_index + 2
    metric = _step_metric(x, cfg, 0, last)
    assert metric[-1] > cfg.threshold and np.count_nonzero(metric > cfg.threshold) == 3
    assert last + 1 >= cfg.min_plateau  # so the first call runs its step
    chunks = [x[:last + 1 + context], x[last + 1 + context:]]
    calls = _per_call(StreamingFrameDetector(cfg), chunks)
    assert calls == _per_call(EveryCallReference(cfg), chunks) == [[], [event], []]


def test_an_open_run_closes_in_a_step_with_few_outputs_above():
    # Step one ends three outputs before the run does, so step two holds three
    # outputs above the threshold, fewer than min_plateau, and must close it.
    x = np.concatenate([np.zeros(100), _tone(6), np.zeros(100)])
    cfg = FrameDetectConfig()
    [event] = detect_frames(x, cfg)
    context = cfg.lag + cfg.window - 1
    cut = event.end_index - 2  # the first output of step two
    metric = _step_metric(x, cfg, cut, len(x) - context - 1)
    assert not metric[-1] > cfg.threshold
    assert np.count_nonzero(metric > cfg.threshold) == 3 < cfg.min_plateau
    chunks = [x[:cut + context], x[cut + context:]]
    calls = _per_call(StreamingFrameDetector(cfg), chunks)
    assert calls == _per_call(EveryCallReference(cfg), chunks) == [[], [event], []]


def test_short_stretches_that_add_up_to_min_plateau_give_no_event():
    # twenty blips in one step: together at least min_plateau outputs above
    # the threshold, each stretch shorter, and the step's last output below
    blip = np.concatenate([_tone(2), np.zeros(60)])
    x = np.concatenate([np.zeros(100), *[blip] * 20, np.zeros(100)])
    lengths = [e.end_index - e.start_index + 1
               for e in detect_frames(x, FrameDetectConfig(min_plateau=1))]
    cfg = FrameDetectConfig(min_plateau=max(lengths) + 1)
    assert len(lengths) == 20 and sum(lengths) >= cfg.min_plateau
    for sizes in ([len(x)], [500], [97, 13], [1]):
        chunks = _chunks(x, sizes)
        calls = _per_call(StreamingFrameDetector(cfg), chunks)
        assert calls == _per_call(EveryCallReference(cfg), chunks)
        assert all(found == [] for found in calls)


def test_a_step_whose_metric_holds_nan():
    # |x| = 1e160 overflows |x|^2 and the lag products, so the metric is
    # inf / inf there; NaN is not above the threshold, so it ends a run
    x = np.concatenate([np.zeros(100), _tone(6), np.full(40, 1e160), _tone(3),
                        np.zeros(50), np.full(20, 1e160), np.zeros(100), _tone(6), np.zeros(60)])
    with np.errstate(all="ignore"):
        metric = compute_metrics(x)[2]
        assert np.isnan(metric).any()
        for min_plateau in (1, 20, 32):
            cfg = FrameDetectConfig(min_plateau=min_plateau)
            want = scan_runs(metric, cfg.threshold, min_plateau)
            assert [(e.start_index, e.end_index, e.peak_metric)
                    for e in detect_frames(x, cfg)] == want
            for sizes in ([len(x)], [200], [64, 7], [1]):
                chunks = _chunks(x, sizes)
                calls = _per_call(StreamingFrameDetector(cfg), chunks)
                assert calls == _per_call(EveryCallReference(cfg), chunks)


def test_first_events_across_steps_with_few_outputs_above():
    # Four rows of 3000 samples. Row 0 holds a blip too short for an event;
    # in row 2 the kernel's first step ends three outputs into a run, which
    # the second step carries on; row 3 holds another short blip. So the
    # first step has fewer than min_plateau outputs above the threshold, and
    # its last one is above.
    cfg = FrameDetectConfig()
    rows = np.zeros((4, 3000), np.complex128)
    flat = rows.reshape(-1)
    flat[100:132] = flat[9500:9532] = _tone(2)
    burst = np.concatenate([np.zeros(40), _tone(6)])
    [run] = detect_frames(burst, cfg)
    at = BLOCK_LEN - 3 - run.start_index  # the run's start is output BLOCK_LEN - 3
    flat[at:at + len(burst)] = burst
    above = _step_metric(flat, cfg, 0, BLOCK_LEN - 1) > cfg.threshold
    assert above[-1] and 3 < np.count_nonzero(above) < cfg.min_plateau
    per_row = [next(iter(detect_frames(row, cfg)), None) for row in rows]
    assert [e is None for e in per_row] == [True, True, False, True]
    assert first_events(rows, cfg) == per_row


def test_first_events_with_a_row_edge_just_past_a_step_edge():
    # Three rows of 4100 samples: row 2 starts 8 outputs past the first
    # step's last output, so the indices that straddle rows 1 and 2 begin in
    # the first step and end in the second. A 16-periodic burst covers the
    # last 300 samples of row 1 and the first 300 of row 2, so the metric
    # never dips across the edge: only zeroing the second step's share of
    # those indices keeps row 2's run apart from row 1's.
    cfg = FrameDetectConfig()
    row_len = 4100
    assert 0 < 2 * row_len - BLOCK_LEN < cfg.lag + cfg.window - 1
    rows = np.zeros((3, row_len), np.complex128)
    rows.reshape(-1)[2 * row_len - 300:2 * row_len + 300] = _tone(38)[:600]
    per_row = [next(iter(detect_frames(row, cfg)), None) for row in rows]
    last = row_len - cfg.lag - cfg.window  # the last metric index within a row
    assert per_row[0] is None and per_row[1].end_index == last and per_row[2].start_index == 0
    assert first_events(rows, cfg) == per_row
