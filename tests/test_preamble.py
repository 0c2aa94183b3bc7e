import hashlib

import numpy as np
import pytest

from ofdmsync import SizingError
from ofdmsync.preamble import (GUARD_LEN, LONG_REPEATS, LONG_SYMBOL_LEN,
                               LONG_TRAINING_FREQ, PREAMBLE_LEN, SHORT_PERIOD,
                               SHORT_REPEATS, SHORT_TRAINING_FREQ, STS_LEN,
                               generate_lts, generate_preamble, generate_sts,
                               inverse_dft)

# sha256 of generate_preamble().samples.tobytes(). Any change to how the
# preamble is built must keep these bytes.
PREAMBLE_SHA256 = "28301a44a8ebe69dd33afac94a07939d9832c8839cd663876f9719e8ff303099"


def direct_inverse_dft(freq):
    """O(N^2) direct-summation oracle: x[n] = (1/N) sum_k X[k] e^{j2pi k n/N}."""
    freq = np.asarray(freq, dtype=np.complex128)
    n = len(freq)
    out = np.zeros(n, np.complex128)
    for i in range(n):
        acc = 0.0 + 0.0j
        for k in range(n):
            acc += freq[k] * np.exp(2j * np.pi * k * i / n)
        out[i] = acc / n
    return out


# --- inverse_dft -----------------------------------------------------------

def test_inverse_dft_zero_vector():
    assert np.array_equal(inverse_dft(np.zeros(64)), np.zeros(64))


def test_inverse_dft_impulse_bin0():
    out = inverse_dft(np.eye(64)[0])
    assert np.allclose(out, np.full(64, 1 / 64), atol=1e-15)


def test_inverse_dft_matches_direct_summation(rng):
    for n in (8, 16, 64):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = inverse_dft(x)
        want = direct_inverse_dft(x)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(np.max(np.abs(want)), 1.0)


def test_inverse_dft_roundtrip(rng):
    for n in (8, 16, 64):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = np.fft.fft(inverse_dft(x))
        assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))


@pytest.mark.parametrize("n", [0, 3, 12, 63])
def test_inverse_dft_rejects_non_power_of_two(n):
    with pytest.raises(SizingError):
        inverse_dft(np.zeros(n))


# --- training sequence structure -------------------------------------------

def test_frequency_definitions_tone_counts():
    assert np.count_nonzero(SHORT_TRAINING_FREQ) == 12
    assert np.count_nonzero(LONG_TRAINING_FREQ) == 52


def test_sts_length_and_exact_periodicity():
    sts = generate_sts().samples
    assert len(sts) == 160
    assert np.array_equal(sts[:144], sts[16:160])  # bitwise, by construction
    assert np.mean(np.abs(sts) ** 2) > 0


def test_lts_structure():
    lts = generate_lts().samples
    assert len(lts) == 160
    assert np.array_equal(lts[32:96], lts[96:160])  # two identical symbols
    assert np.array_equal(lts[0:32], lts[128:160])  # CP equals symbol tail


def test_preamble_concatenation(preamble):
    p = preamble.samples
    assert len(p) == 320
    assert np.array_equal(p[:144], p[16:160])       # STS periodicity survives scaling
    assert np.array_equal(p[192:256], p[256:320])   # LTS halves
    assert np.array_equal(p[160:192], p[288:320])   # CP property
    assert preamble.average_power == pytest.approx(1.0, abs=1e-12)
    assert preamble.duration == pytest.approx(16e-6, rel=1e-12)


def test_preamble_is_sts_then_lts(preamble):
    sts = generate_sts().samples
    lts = generate_lts().samples
    raw = np.concatenate([sts, lts])
    scaled = raw / np.sqrt(np.mean(np.abs(raw) ** 2))
    assert np.array_equal(preamble.samples, scaled)


def test_default_lengths_sum_to_320():
    assert SHORT_REPEATS * SHORT_PERIOD + GUARD_LEN + LONG_REPEATS * LONG_SYMBOL_LEN == 320
    assert STS_LEN == 160
    assert PREAMBLE_LEN == 320


def test_preamble_bytes_pinned():
    digest = hashlib.sha256(generate_preamble().samples.tobytes()).hexdigest()
    assert digest == PREAMBLE_SHA256


# --- one shared build ----------------------------------------------------------

def test_preamble_samples_are_read_only():
    samples = generate_preamble().samples
    with pytest.raises(ValueError):
        samples[0] = 0
    with pytest.raises(ValueError):
        samples *= 2


def test_every_call_shares_one_build():
    a = generate_preamble()
    b = generate_preamble()
    assert b is a
    assert a.sample_rate == 20e6


def test_cached_preamble_equals_a_fresh_build():
    raw = np.concatenate([generate_sts().samples, generate_lts().samples])
    fresh = raw / np.sqrt(np.mean(np.abs(raw) ** 2))
    for _ in range(2):  # the first call may build, the second is served from the cache
        cached = generate_preamble().samples
        assert np.array_equal(cached.view(np.uint64), fresh.view(np.uint64))


def test_training_freq_cannot_be_edited_in_place():
    for freq in (SHORT_TRAINING_FREQ, LONG_TRAINING_FREQ):
        with pytest.raises(ValueError):
            freq[6] = -freq[6]
        with pytest.raises(ValueError):
            freq *= 2
