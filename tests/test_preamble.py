import numpy as np
import pytest

from ofdmsync import ConfigError, PreambleSpec, SizingError
from ofdmsync.preamble import (LONG_TRAINING_FREQ, SHORT_TRAINING_FREQ,
                               generate_lts, generate_preamble, generate_sts,
                               inverse_dft)


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


def test_sts_length_and_exact_periodicity(spec):
    sts = generate_sts(spec).samples
    assert len(sts) == 160
    assert np.array_equal(sts[:144], sts[16:160])  # bitwise, by construction
    assert np.mean(np.abs(sts) ** 2) > 0


def test_lts_structure(spec):
    lts = generate_lts(spec).samples
    assert len(lts) == 160
    assert np.array_equal(lts[32:96], lts[96:160])  # two identical symbols
    assert np.array_equal(lts[0:32], lts[128:160])  # CP equals symbol tail


def test_preamble_concatenation(spec, preamble):
    p = preamble.samples
    assert len(p) == 320
    assert np.array_equal(p[:144], p[16:160])       # STS periodicity survives scaling
    assert np.array_equal(p[192:256], p[256:320])   # LTS halves
    assert np.array_equal(p[160:192], p[288:320])   # CP property
    assert preamble.average_power == pytest.approx(1.0, abs=1e-12)
    assert preamble.duration == pytest.approx(16e-6, rel=1e-12)


def test_preamble_is_sts_then_lts(spec, preamble):
    sts = generate_sts(spec).samples
    lts = generate_lts(spec).samples
    raw = np.concatenate([sts, lts])
    scaled = raw / np.sqrt(np.mean(np.abs(raw) ** 2))
    assert np.array_equal(preamble.samples, scaled)


def test_spec_validation():
    with pytest.raises(ConfigError):
        PreambleSpec(fft_size=60)
    with pytest.raises(ConfigError):
        PreambleSpec(short_repeats=0)
    with pytest.raises(ConfigError):
        PreambleSpec(short_freq=np.zeros(64))   # no tones
    with pytest.raises(ConfigError):
        PreambleSpec(long_freq=np.ones(64))     # 64 tones, not 52


def test_default_lengths_sum_to_320(spec):
    assert spec.short_repeats * spec.short_symbol_len + spec.guard_len \
        + spec.long_repeats * spec.long_symbol_len == 320
    assert spec.total_len == 320


# --- memoised build ------------------------------------------------------------

def test_preamble_samples_are_read_only(spec):
    samples = generate_preamble(spec).samples
    with pytest.raises(ValueError):
        samples[0] = 0
    with pytest.raises(ValueError):
        samples *= 2


def test_equal_specs_share_one_build(spec):
    a = generate_preamble(spec)
    b = generate_preamble(PreambleSpec())
    assert b is a
    assert np.array_equal(a.samples.view(np.uint64), b.samples.view(np.uint64))


def test_cached_preamble_equals_a_fresh_build(spec):
    raw = np.concatenate([generate_sts(spec).samples, generate_lts(spec).samples])
    fresh = raw / np.sqrt(np.mean(np.abs(raw) ** 2))
    for _ in range(2):  # the first call may build, the second is served from the memo
        cached = generate_preamble(spec).samples
        assert np.array_equal(cached.view(np.uint64), fresh.view(np.uint64))


def _flipped(freq, index):
    out = np.array(freq)
    out[index] = -out[index]
    return out


@pytest.mark.parametrize("changes", [
    {"fft_size": 128, "short_freq": np.pad(SHORT_TRAINING_FREQ, 32),
     "long_freq": np.pad(LONG_TRAINING_FREQ, 32)},
    {"guard_len": 16},
    {"sample_rate": 10e6},
    {"long_freq": _flipped(LONG_TRAINING_FREQ, 6)},
    {"short_freq": _flipped(SHORT_TRAINING_FREQ, 8)},
    {"short_symbol_len": 32},
    {"short_repeats": 5},
    {"long_symbol_len": 32},
    {"long_repeats": 3},
], ids=lambda changes: next(iter(changes)))
def test_spec_differing_in_one_field_gets_its_own_build(spec, changes):
    other = PreambleSpec(**changes)
    built = generate_preamble(other)
    assert built is not generate_preamble(spec)
    raw = np.concatenate([generate_sts(other).samples, generate_lts(other).samples])
    assert np.array_equal(built.samples, raw / np.sqrt(np.mean(np.abs(raw) ** 2)))
    assert built.sample_rate == other.sample_rate


def test_spec_edited_in_place_is_rebuilt():
    spec = PreambleSpec()
    before = generate_preamble(spec).samples
    spec.long_freq[6] = -spec.long_freq[6]
    after = generate_preamble(spec).samples
    assert not np.array_equal(before, after)
    assert np.array_equal(after, generate_preamble(PreambleSpec(long_freq=spec.long_freq)).samples)


def test_a_different_spec_replaces_the_memo(spec):
    first = generate_preamble(spec)
    generate_preamble(PreambleSpec(sample_rate=10e6))
    again = generate_preamble(spec)
    assert again is not first  # rebuilt, not kept beside the other spec
    assert again.samples.tobytes() == first.samples.tobytes()
