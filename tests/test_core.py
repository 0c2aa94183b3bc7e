import re
import tracemalloc

import numpy as np
import pytest

from ofdmsync import ConfigError, SampleBuffer
from ofdmsync.core import all_finite


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
