import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from ofdmsync import (ChannelConfig, ConfigError, SampleBuffer, SizingError,
                      StreamingFrameDetector, apply_cfo, autocorrelation, correct_cfo,
                      cross_correlate, detect_frames, estimate_timing, inverse_dft)
from ofdmsync.core import all_finite, as_positive, as_real, as_samples


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
def test_all_finite_accepts_finite_and_empty_arrays(dtype):
    assert all_finite(np.zeros(0, dtype))
    assert all_finite(np.array([0, -1, np.finfo(dtype).max, np.finfo(dtype).min], dtype))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype,imaginary", [(np.float32, False), (np.float64, False),
                                             (np.complex64, False), (np.complex64, True),
                                             (np.complex128, False), (np.complex128, True)])
def test_all_finite_finds_a_non_finite_part_anywhere(dtype, imaginary, bad):
    for at in (0, 5, 9):
        values = np.ones(10, dtype)
        values[at] = complex(1, bad) if imaginary else bad
        assert not all_finite(values)
        assert all_finite(values[::2]) == (at % 2 == 1)  # strided views too


def test_sample_buffer_rejects_a_non_finite_part_of_a_strided_view():
    samples = np.ones(20, np.complex128)
    samples[7] = complex(1, np.inf)
    assert len(SampleBuffer(samples[::2])) == 10
    with pytest.raises(ConfigError, match="non-finite"):
        SampleBuffer(samples[1::2])


@pytest.mark.parametrize("rate, shown", [
    (0, "0"), (-1.0, "-1.0"), (float("inf"), "inf"), (float("nan"), "nan"), (None, "None"),
    ("x", "'x'"), (1j, "1j"), (10**5000, "an int of 16610 bits")],
    ids=["zero", "negative", "inf", "nan", "none", "string", "complex", "huge-int"])
def test_sample_buffer_rejects_a_rate_that_is_not_a_positive_finite_number(rate, shown):
    # a string, a complex or an int past float64's range is a config error,
    # not the TypeError or OverflowError of the comparison that finds it
    with pytest.raises(ConfigError, match=f"sample rate must be positive and finite, got "
                                          f"{re.escape(shown)}$"):
        SampleBuffer(np.ones(3), sample_rate=rate)
    assert SampleBuffer(np.ones(3), sample_rate=np.int64(5)).sample_rate == 5.0


def test_all_finite_copies_no_strided_complex_view():
    samples = np.ones(200_000, np.complex128)
    tracemalloc.start()
    try:
        assert all_finite(samples[::2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # a copy of the view would take 1.6 MB


def test_sample_buffers_compare_and_hash_by_identity():
    samples = np.arange(4, dtype=np.complex128)
    a, b = SampleBuffer(samples), SampleBuffer(samples)
    assert a == a and a != b
    assert len({a, b, a}) == 2


# --- the gates for outside values -------------------------------------------------

def _every_sample_taker(value):
    """Each public name that takes samples, called on ``value``."""
    return [lambda: SampleBuffer(value), lambda: detect_frames(value),
            lambda: StreamingFrameDetector().process(value), lambda: autocorrelation(value),
            lambda: cross_correlate(value, np.ones(4)), lambda: estimate_timing(value)]


@pytest.mark.parametrize("value, text", [
    ([10**5000], "a list holding an int too long to write"), (b"ab", "b'ab'"),
    ([[1, 2], [3]], "[[1, 2], [3]]"), (np.array([1, 10**400], object), "array([1,")],
    ids=["huge-int", "bytes", "ragged", "object-array"])
def test_samples_numpy_cannot_convert_are_a_config_error(value, text):
    for call in _every_sample_taker(value):
        with pytest.raises(ConfigError, match=f"^samples must convert to complex128, got "
                                              f"{re.escape(text)}"):
            call()
    with pytest.raises(ConfigError, match="^samples must convert to complex128"):
        inverse_dft([10**5000] * 4)
    with pytest.raises(SizingError, match="^inverse_dft expects a 1-D vector$"):
        inverse_dft(np.ones((2, 4)))


def test_as_samples_converts_without_a_copy_where_it_can():
    samples = np.arange(6, dtype=np.complex128)
    assert np.shares_memory(as_samples(samples), samples)
    assert np.shares_memory(as_samples(SampleBuffer(samples)), samples)
    assert as_samples([1, 2j]).tolist() == [1, 2j]
    assert as_samples(np.ones((2, 3), np.float32)).shape == (6,)


def test_as_real_returns_the_value_itself():
    # an np.float32 keeps its type and so its bits: a channel's rotation
    # is computed from the value it was given
    for value in (np.float32(0.1), np.int64(3), 2.5, -7, True):
        assert as_real("x", value) is value
    assert as_real("x", 0.5, "lie in (0, 1)", lambda v: 0 < v < 1) == 0.5
    for bad, text in ((math.nan, "nan"), (-math.inf, "-inf"), (10**400, "an int of 1329 bits"),
                      (None, "None"), ("1", "'1'"), (1j, "1j"), (np.ones(1), "array([1.])")):
        with pytest.raises(ConfigError, match=f"^x must be a finite real number, got "
                                              f"{re.escape(text)}$"):
            as_real("x", bad)
    with pytest.raises(ConfigError, match=r"^x must lie in \(0, 1\), got 1$"):
        as_real("x", 1, "lie in (0, 1)", lambda v: 0 < v < 1)


def test_a_cfo_is_one_finite_real_number_wherever_it_enters():
    buffer = SampleBuffer(np.ones(8))
    for bad, text in ((10**5000, "an int of 16610 bits"), (math.nan, "nan"), (None, "None")):
        for call in (lambda: apply_cfo(buffer, bad), lambda: ChannelConfig(cfo_hz=bad)):
            with pytest.raises(ConfigError,
                               match=f"^cfo_hz must be a finite real number, got {text}$"):
                call()
    with pytest.raises(ConfigError, match="^cfo_hz must be a finite real number, got an int"):
        correct_cfo(buffer, 10**5000)
    # a finite offset too large for float64 to keep a phase of, Python's int or
    # numpy's float32, is the rotation's own error, not an overflow
    for bad, text in ((10**308, "an int of 1024 bits"), (np.float32(3e38), "np.float32(3e+38)")):
        with pytest.raises(ConfigError, match=f"^cfo_hz {re.escape(text)} turns .* 2[*][*]52$"):
            apply_cfo(buffer, bad)


def test_a_cfo_whose_phase_overflows_before_the_division_names_itself():
    # Far past the CLI's sample-rate bound, 2*pi*cfo_hz*n overflows while the
    # cycle count stays under 2**52. The rotation says so, naming the offset
    # and the rate, with no numpy warning; a narrower type overflows sooner.
    buffer = SampleBuffer(np.ones(400), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, bad, text in ((apply_cfo, 1e308, "1e+308"), (correct_cfo, 1e308, "-1e+308"),
                                (apply_cfo, np.float32(3e38), "np.float32(3e+38)"),
                                (apply_cfo, 10**308, "an int of 1024 bits")):
            with pytest.raises(ConfigError, match=f"^cfo_hz {re.escape(text)} over 400 samples "
                                                  r"overflows 2[*]pi[*]cfo_hz[*]n, formed before "
                                                  r"the division by the sample rate 1e\+300 Hz$"):
                call(buffer, bad)
        # short of the overflow, the rotation keeps the bits of its one expression
        n = np.arange(400)
        want = np.exp(2j * np.pi * 1e304 * n / 1e300)
        got = apply_cfo(buffer, 1e304).samples
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_as_positive_is_every_lag_and_window_rule():
    assert as_positive("lag", np.int64(16)) == 16 and type(as_positive("lag", np.int64(16))) is int
    for bad, text in ((0, "0"), (-3, "-3"), (-10**5000, "an int of 16610 bits")):
        with pytest.raises(SizingError, match=f"^lag must be positive, got {text}$"):
            as_positive("lag", bad)
    with pytest.raises(ConfigError, match="^window must be an integer, got 2.0$"):
        as_positive("window", 2.0)
