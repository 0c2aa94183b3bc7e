import numpy as np
import pytest

from ofdmsync import (ChannelConfig, ConfigError, SampleBuffer, add_awgn,
                      apply_cfo, apply_multipath, generate_preamble, load_taps,
                      transmit)
from ofdmsync.channel import BUILTIN_PROFILES, profile_path, resolve_taps

from conftest import random_buffer


# --- apply_cfo ---------------------------------------------------------------

def test_cfo_zero_is_identity(preamble):
    out = apply_cfo(preamble, 0.0)
    assert np.array_equal(out.samples, preamble.samples)


def test_cfo_phase_at_known_sample():
    # 100 kHz at 20 MHz: sample 100 is rotated by 2*pi*1e5*100/2e7 = pi
    buf = SampleBuffer(np.ones(200), 20e6)
    out = apply_cfo(buf, 100e3)
    assert out.samples[100] == pytest.approx(-1.0, abs=1e-12)
    # quarter turn at sample 50
    assert out.samples[50] == pytest.approx(1j, abs=1e-12)


def test_cfo_preserves_magnitudes(rng):
    buf = random_buffer(rng, 500)
    out = apply_cfo(buf, 123456.0)
    assert np.max(np.abs(np.abs(out.samples) - np.abs(buf.samples))) < 1e-12


def test_cfo_inverse_rotation(rng):
    buf = random_buffer(rng, 300)
    back = apply_cfo(apply_cfo(buf, 77e3), -77e3)
    assert np.max(np.abs(back.samples - buf.samples)) < 1e-12


# --- apply_multipath ---------------------------------------------------------

def test_single_unit_tap_is_identity(preamble):
    out = apply_multipath(preamble, ((0, 1 + 0j),))
    assert np.array_equal(out.samples, preamble.samples)


def test_impulse_through_two_taps():
    impulse = SampleBuffer(np.eye(10)[0])
    out = apply_multipath(impulse, ((0, 1 + 0j), (3, 0.5 + 0j))).samples
    assert len(out) == 13
    expected = np.zeros(13, complex)
    expected[0], expected[3] = 1.0, 0.5
    assert np.array_equal(out, expected)


def test_multipath_matches_convolution_oracle(rng):
    buf = random_buffer(rng, 400)
    taps = ((0, 0.9 - 0.2j), (2, 0.4 + 0.1j), (7, -0.25 + 0.3j))
    h = np.zeros(8, complex)
    for d, g in taps:
        h[d] = g
    want = np.convolve(buf.samples, h)
    got = apply_multipath(buf, taps).samples
    assert len(got) == len(buf) + 7
    assert np.max(np.abs(got - want)) < 1e-12


# --- add_awgn ----------------------------------------------------------------

def test_awgn_noiseless_sentinel(preamble):
    assert add_awgn(preamble, None, seed=1) is preamble


def test_awgn_power_law_of_large_numbers():
    buf = SampleBuffer(np.ones(1_000_000))
    out = add_awgn(buf, 10.0, seed=42)
    noise_power = np.mean(np.abs(out.samples - buf.samples) ** 2)
    assert noise_power == pytest.approx(0.1, rel=0.02)


def test_awgn_deterministic(preamble):
    a = add_awgn(preamble, 5.0, seed=77).samples
    b = add_awgn(preamble, 5.0, seed=77).samples
    assert np.array_equal(a, b)
    c = add_awgn(preamble, 5.0, seed=78).samples
    assert not np.array_equal(a, c)


def test_awgn_rejects_zero_power():
    with pytest.raises(ConfigError):
        add_awgn(SampleBuffer(np.zeros(16)), 10.0, seed=0)


# --- transmit ----------------------------------------------------------------

def test_transmit_noiseless_identity_with_offset(preamble):
    cfg = ChannelConfig(timing_offset=25)
    out = transmit(preamble, cfg).samples
    assert len(out) == 25 + 320
    assert np.array_equal(out[:25], np.zeros(25))
    assert np.array_equal(out[25:], preamble.samples)


def test_transmit_noiseless_cfo_composition(preamble):
    cfg = ChannelConfig(cfo_hz=200e3, timing_offset=40)
    got = transmit(preamble, cfg).samples
    shifted = SampleBuffer(np.concatenate([np.zeros(40), preamble.samples]),
                           preamble.sample_rate)
    want = apply_cfo(shifted, 200e3).samples
    assert np.array_equal(got, want)


def test_transmit_deterministic(preamble):
    cfg = ChannelConfig(snr_db=3.0, cfo_hz=1e5, timing_offset=10, seed=123)
    a = transmit(preamble, cfg).samples
    b = transmit(preamble, cfg).samples
    assert np.array_equal(a, b)


def test_transmit_tail_noise_floor(preamble):
    # lead and tail carry channel noise at the configured floor
    cfg = ChannelConfig(snr_db=10.0, timing_offset=2000, seed=9)
    out = transmit(preamble, cfg, tail_len=2000).samples
    lead = out[:2000]
    tail = out[-2000:]
    for region in (lead, tail):
        assert np.mean(np.abs(region) ** 2) == pytest.approx(0.1, rel=0.15)


@pytest.mark.parametrize("taps", ["clean", "etsi_a", "etsi_c"])
@pytest.mark.parametrize("snr_db", [None, 7.5])
@pytest.mark.parametrize("cfo_hz", [0.0, -0.0, 123e3, -250e3])
def test_transmit_equals_the_stage_by_stage_chain(preamble, taps, snr_db, cfo_hz):
    from ofdmsync.channel import _noise
    cfg = ChannelConfig(cfo_hz=cfo_hz, snr_db=snr_db, timing_offset=17, seed=31,
                        taps=((0, 1 + 0j),) if taps == "clean" else resolve_taps(taps))
    padded = SampleBuffer(np.concatenate([np.zeros(17), preamble.samples, np.zeros(90)]),
                          preamble.sample_rate)
    faded = apply_multipath(padded, cfg.taps)
    n = np.arange(len(faded))
    rotated = faded.samples * np.exp(2j * np.pi * cfo_hz * n / faded.sample_rate)
    want = apply_cfo(faded, cfo_hz).samples
    assert np.array_equal(want.view(np.uint64), rotated.view(np.uint64))
    if snr_db is not None:
        power = preamble.average_power / 10 ** (snr_db / 10)
        want = want + _noise(np.random.default_rng(31), len(want), power)
    for _ in range(2):  # the second call reuses the cached rotation
        got = transmit(preamble, cfg, tail_len=90).samples
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("extra", [0, 1, 20000])
def test_apply_cfo_matches_one_expression_at_any_length(rng, extra):
    # x * exp(...) in one expression, as numpy evaluates it when the
    # exponential is a temporary (in place from 256 KiB up).
    from ofdmsync.channel import MAX_SHARED_ROTATION_LEN
    buf = random_buffer(rng, MAX_SHARED_ROTATION_LEN + extra)
    n = np.arange(len(buf))
    want = buf.samples * np.exp(2j * np.pi * 51e3 * n / buf.sample_rate)
    for _ in range(2):
        got = apply_cfo(buf, 51e3).samples
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_transmit_noiseless_tail_is_zeros(preamble):
    out = transmit(preamble, ChannelConfig(), tail_len=100).samples
    assert np.array_equal(out[320:], np.zeros(100))


# --- configuration and tap profiles ------------------------------------------

def test_channel_config_validation():
    with pytest.raises(ConfigError):
        ChannelConfig(taps=())
    with pytest.raises(ConfigError):
        ChannelConfig(taps=((3, 1.0), (3, 0.5)))   # not strictly increasing
    with pytest.raises(ConfigError):
        ChannelConfig(taps=((-1, 1.0),))
    with pytest.raises(ConfigError):
        ChannelConfig(timing_offset=-4)
    with pytest.raises(ConfigError):
        ChannelConfig(snr_db=float("inf"))
    with pytest.raises(ConfigError):
        ChannelConfig(snr_db=3083.0)   # 10 ** 308.3 overflows
    with pytest.raises(ConfigError):
        ChannelConfig(seed=-1)         # default_rng takes no negative seed


def test_load_taps_roundtrip(tmp_path):
    path = tmp_path / "chan.taps"
    path.write_text("# comment\n0 1.0 0.0\n\n3 0.5 -0.25  # inline note\n")
    taps = load_taps(path)
    assert taps == ((0, 1 + 0j), (3, 0.5 - 0.25j))


def test_load_taps_rejects_garbage(tmp_path):
    path = tmp_path / "bad.taps"
    path.write_text("0 1.0\n")
    with pytest.raises(ConfigError):
        load_taps(path)
    path.write_text("")
    with pytest.raises(ConfigError):
        load_taps(path)


@pytest.mark.parametrize("name", BUILTIN_PROFILES)
def test_builtin_profiles_load_and_are_normalized(name):
    taps = resolve_taps(name)
    assert len(taps) >= 2
    delays = [d for d, _ in taps]
    assert delays == sorted(delays)
    total = sum(abs(g) ** 2 for _, g in taps)
    assert total == pytest.approx(1.0, rel=1e-4)
    assert profile_path(name).is_file()


def test_multipath_with_builtin_profile(preamble):
    taps = resolve_taps("etsi_c")
    out = apply_multipath(preamble, taps)
    assert len(out) == 320 + max(d for d, _ in taps)
