import sys
import threading
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdmsync import (ChannelConfig, ConfigError, SampleBuffer, apply_cfo,
                      generate_preamble, load_taps, transmit)
from ofdmsync import channel as channel_module
from ofdmsync.channel import (BUILTIN_PROFILES, SEED_CHUNK, UNIT_TAP, profile_path, resolve_taps,
                              seeded_generators)
from ofdmsync.core import MAX_GENERATED_SAMPLES

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


# --- multipath through transmit ----------------------------------------------

def test_single_unit_tap_is_identity(preamble):
    out = transmit(preamble, ChannelConfig(taps=((0, 1 + 0j),)))
    assert np.array_equal(out.samples, preamble.samples)


def test_impulse_through_two_taps():
    impulse = SampleBuffer(np.eye(10)[0])
    out = transmit(impulse, ChannelConfig(taps=((0, 1 + 0j), (3, 0.5 + 0j)))).samples
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
    got = transmit(buf, ChannelConfig(taps=taps)).samples
    assert len(got) == len(buf) + 7
    assert np.max(np.abs(got - want)) < 1e-12


# --- noise through transmit --------------------------------------------------

def test_awgn_power_law_of_large_numbers():
    buf = SampleBuffer(np.ones(1_000_000))
    out = transmit(buf, ChannelConfig(snr_db=10.0), seed=42)
    noise_power = np.mean(np.abs(out.samples - buf.samples) ** 2)
    assert noise_power == pytest.approx(0.1, rel=0.02)


def test_awgn_deterministic(preamble):
    a = transmit(preamble, ChannelConfig(snr_db=5.0), seed=77).samples
    b = transmit(preamble, ChannelConfig(snr_db=5.0), seed=77).samples
    assert np.array_equal(a, b)
    c = transmit(preamble, ChannelConfig(snr_db=5.0), seed=78).samples
    assert not np.array_equal(a, c)


def test_awgn_rejects_zero_power():
    with pytest.raises(ConfigError):
        transmit(SampleBuffer(np.zeros(16)), ChannelConfig(snr_db=10.0))


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
    cfg = ChannelConfig(snr_db=3.0, cfo_hz=1e5, timing_offset=10)
    a = transmit(preamble, cfg, seed=123).samples
    b = transmit(preamble, cfg, seed=123).samples
    assert np.array_equal(a, b)


def test_transmit_tail_noise_floor(preamble):
    # lead and tail carry channel noise at the configured floor
    cfg = ChannelConfig(snr_db=10.0, timing_offset=2000)
    out = transmit(preamble, cfg, tail_len=2000, seed=9).samples
    lead = out[:2000]
    tail = out[-2000:]
    for region in (lead, tail):
        assert np.mean(np.abs(region) ** 2) == pytest.approx(0.1, rel=0.15)


def stage_by_stage(buf, cfg, tail_len, seed=0):
    """(faded frame before the rotation, transmit's output). Every stage is
    written out here, not taken from channel, so a defect in transmit's own
    steps shows."""
    padded = np.concatenate([np.zeros(cfg.timing_offset), buf.samples, np.zeros(tail_len)])
    faded = np.zeros(len(padded) + cfg.taps[-1][0], complex)
    for delay, gain in cfg.taps:
        faded[delay:delay + len(padded)] += gain * padded
    n = np.arange(len(faded))
    want = faded * np.exp(2j * np.pi * cfg.cfo_hz * n / buf.sample_rate)
    if cfg.snr_db is not None:
        rng = np.random.default_rng(seed)
        scale = np.sqrt(buf.average_power / 10 ** (cfg.snr_db / 10) / 2)
        want = want + scale * (rng.standard_normal(len(want)) + 1j * rng.standard_normal(len(want)))
    return faded, want


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("taps", ["clean", "etsi_a", "etsi_c"])
@pytest.mark.parametrize("snr_db", [None, 7.5])
@pytest.mark.parametrize("cfo_hz", [0.0, -0.0, 123e3, -250e3])
def test_transmit_equals_the_stage_by_stage_chain(preamble, taps, snr_db, cfo_hz):
    cfg = ChannelConfig(cfo_hz=cfo_hz, snr_db=snr_db, timing_offset=17,
                        taps=((0, 1 + 0j),) if taps == "clean" else resolve_taps(taps))
    faded, want = stage_by_stage(preamble, cfg, 90, seed=31)
    rotated = apply_cfo(SampleBuffer(faded, preamble.sample_rate), cfo_hz).samples
    assert same_bits(rotated, stage_by_stage(preamble, replace(cfg, snr_db=None), 90)[1])
    for _ in range(2):  # the second call takes the noiseless frame from the slot
        got = transmit(preamble, cfg, tail_len=90, seed=31).samples
        assert same_bits(got, want)


# A second read-only frame, with exact zeros and signed-zero parts. Only
# generate_preamble() is served from the slot, so this one is rebuilt on every call.
_mixed = np.array([1, 0, -1, 1j, -1j, 0.5 - 0.5j, complex(0.0, -0.0), -2] * 12)
_mixed.flags.writeable = False
MIXED = SampleBuffer(_mixed)

_gain = st.builds(complex, st.sampled_from([1.0, -0.5, 0.25]), st.sampled_from([0.0, -0.0, 0.3]))
_taps = st.builds(lambda delays, gains: tuple(zip(delays, gains)),
                  st.sampled_from([(0,), (0, 3), (1, 4, 9)]), st.tuples(_gain, _gain, _gain))
_channels = st.tuples(
    # a float32 cfo_hz of the same value rotates in complex64
    st.sampled_from([0.0, -0.0, 123e3, np.float32(123e3), -250e3]),
    _taps,
    st.integers(0, 40),   # timing_offset
    st.sampled_from([None, 7.5, -3.0]),   # snr_db
    st.integers(0, 40),   # tail_len
)
_calls = st.lists(st.tuples(
    st.sampled_from(["preamble", "mixed"]), st.sets(st.integers(0, 4)), _channels,
    st.integers(0, 2**32)), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(_calls)
@example([("preamble", set(), (123e3, UNIT_TAP, 5, None, 5), 0),
          ("preamble", {0}, (np.float32(123e3), UNIT_TAP, 5, None, 5), 0)])
def test_interleaved_transmits_equal_the_stage_by_stage_chain(preamble, calls):
    # Each call redraws some fields of the previous call's channel (cfo_hz,
    # taps, timing_offset, snr_db, tail_len) and keeps the previous config
    # object when none of its fields is redrawn, so the preamble's slot hits
    # interleave with its misses and with MIXED's rebuilds. Either way the
    # bits are the chain's.
    channel = cfg = None
    for frame, redraw, fresh, seed in calls:
        if channel is None or redraw & {0, 1, 2, 3}:
            cfg = None
        channel = fresh if channel is None else tuple(
            fresh[i] if i in redraw else channel[i] for i in range(5))
        buf = preamble if frame == "preamble" else MIXED
        cfo_hz, taps, offset, snr_db, tail_len = channel
        if cfg is None:
            cfg = ChannelConfig(cfo_hz=cfo_hz, snr_db=snr_db, taps=taps, timing_offset=offset)
        got = transmit(buf, cfg, tail_len=tail_len, seed=seed).samples
        assert same_bits(got, stage_by_stage(buf, cfg, tail_len, seed)[1])


@pytest.mark.parametrize("frame", ["preamble", "mixed"])
@pytest.mark.parametrize("snr_db", [-300.0, 300.0])
@pytest.mark.parametrize("offset, tail_len", [(0, 0), (17, 90)])
@pytest.mark.parametrize("cfo_hz", [0.0, -0.0, 123e3])
def test_noise_at_the_snr_bounds_equals_the_stage_by_stage_chain(preamble, frame, snr_db,
                                                                 offset, tail_len, cfo_hz):
    # the noise is added part by part; the chain adds scale * (re + 1j * im)
    # in one complex expression, also where the frame has exact and signed zeros
    buf = preamble if frame == "preamble" else MIXED
    cfg = ChannelConfig(cfo_hz=cfo_hz, snr_db=snr_db, timing_offset=offset)
    for seed in (0, 1, 2**32 - 1):
        got = transmit(buf, cfg, tail_len=tail_len, seed=seed).samples
        assert same_bits(got, stage_by_stage(buf, cfg, tail_len, seed)[1])


@pytest.mark.parametrize("fresh", ["config", "buffer"])
def test_equal_inputs_that_are_other_objects_rebuild_the_frame(preamble, monkeypatch, fresh):
    # The slot is keyed by identity: an equal config, or a second read-only
    # buffer over the same samples, is a miss that builds its own frame.
    built = []
    received = channel_module._received
    monkeypatch.setattr(channel_module, "_received",
                        lambda *args: built.append(args[:2]) or received(*args))
    cfg = ChannelConfig(cfo_hz=-30e3, snr_db=6.0, taps=resolve_taps("etsi_a"), timing_offset=4)
    transmit(preamble, cfg, tail_len=25, seed=2)
    transmit(preamble, cfg, tail_len=25, seed=3)   # a hit
    assert len(built) == 1
    buf, other = preamble, cfg
    if fresh == "config":
        other = ChannelConfig(cfo_hz=-30e3, snr_db=6.0, taps=resolve_taps("etsi_a"),
                              timing_offset=4)
        assert other == cfg and other is not cfg
    else:
        buf = SampleBuffer(preamble.samples, preamble.sample_rate)
        assert np.shares_memory(buf.samples, preamble.samples)
        assert not buf.samples.flags.writeable
    got = transmit(buf, other, tail_len=25, seed=5).samples
    assert len(built) == 2 and built[1][0] is buf and built[1][1] is other
    assert same_bits(got, stage_by_stage(preamble, cfg, 25, seed=5)[1])


def test_writable_input_changed_in_place_gives_the_new_result(rng):
    buf = random_buffer(rng, 200)
    cfg = ChannelConfig(cfo_hz=40e3, taps=resolve_taps("etsi_a"), timing_offset=5)
    transmit(buf, cfg, tail_len=10)
    buf.samples[::3] *= -2
    assert same_bits(transmit(buf, cfg, tail_len=10).samples, stage_by_stage(buf, cfg, 10)[1])


@pytest.mark.parametrize("owner", ["array", "bytearray"])
def test_read_only_view_of_writable_memory_gives_the_new_result(owner):
    # The view is read-only, but the memory under it can still be written.
    if owner == "array":
        memory = np.ones(64, np.complex128)
        view = memory.view()
    else:
        memory = bytearray(np.ones(64, np.complex128).tobytes())
        view = np.frombuffer(memory, np.complex128)
    view.flags.writeable = False
    buf = SampleBuffer(view)
    cfg = ChannelConfig()
    assert same_bits(transmit(buf, cfg).samples, np.ones(64, np.complex128))
    if owner == "array":
        memory[:] = 2
    else:
        memory[:] = np.full(64, 2, np.complex128).tobytes()
    assert same_bits(transmit(buf, cfg).samples, np.full(64, 2, np.complex128))


def test_the_preamble_hits_the_slot(preamble, monkeypatch):
    built = []
    received = channel_module._received
    monkeypatch.setattr(channel_module, "_received",
                        lambda *args: built.append(args[:2]) or received(*args))
    cfg = ChannelConfig(cfo_hz=20e3, snr_db=8.0, taps=resolve_taps("etsi_c"), timing_offset=6)
    for seed in range(3):
        transmit(preamble, cfg, tail_len=40, seed=seed)
    assert built == [(preamble, cfg)]


def test_alternating_noisy_channels_take_their_own_noise_scale(preamble, monkeypatch):
    # The slot holds the noise scale with the frame. Two configs with the same
    # frame and different SNRs alternate: each switch is a miss that rebuilds
    # both, each repeat a hit, and every output has its own config's bits.
    built = []
    received = channel_module._received
    monkeypatch.setattr(channel_module, "_received",
                        lambda *args: built.append(args[1]) or received(*args))
    loud = ChannelConfig(cfo_hz=20e3, snr_db=25.0, taps=resolve_taps("etsi_a"), timing_offset=6)
    quiet = replace(loud, snr_db=-4.0)
    calls = [loud, loud, quiet, quiet, loud, quiet, loud, loud]
    for seed, cfg in enumerate(calls):
        got = transmit(preamble, cfg, tail_len=40, seed=seed).samples
        assert same_bits(got, stage_by_stage(preamble, cfg, 40, seed)[1])
    assert built == [loud, quiet, loud, quiet, loud]


def test_noiseless_output_from_the_slot_is_a_writable_copy(preamble):
    cfg = ChannelConfig(cfo_hz=-70e3, taps=resolve_taps("etsi_c"), timing_offset=3)
    want = stage_by_stage(preamble, cfg, 20)[1]
    transmit(preamble, cfg, tail_len=20)
    out = transmit(preamble, cfg, tail_len=20).samples  # a slot hit
    assert out.flags.writeable
    out[:] = 0
    assert same_bits(transmit(preamble, cfg, tail_len=20).samples, want)
    noisy = transmit(preamble, replace(cfg, snr_db=5.0), tail_len=20, seed=8).samples
    assert same_bits(noisy, stage_by_stage(preamble, replace(cfg, snr_db=5.0), 20, seed=8)[1])


def test_concurrent_transmits_each_get_their_own_frame(preamble):
    # More threads than cores, switching every microsecond; four threads share
    # each of two channels (noiseless or noisy), so a slot seen half replaced
    # would hand a thread the other channel's frame under its own key.
    channels = [ChannelConfig(cfo_hz=10e3 * k, snr_db=None if k < 1 else 9.0,
                              taps=resolve_taps("etsi_a"), timing_offset=k) for k in range(2)]
    jobs = [(channels[k % 2], k) for k in range(8)]
    wants = [stage_by_stage(preamble, cfg, 30, seed)[1] for cfg, seed in jobs]
    bad = []
    start = threading.Barrier(len(jobs))

    def worker(cfg, seed, want):
        start.wait(timeout=60)
        for _ in range(1000):
            if not same_bits(transmit(preamble, cfg, tail_len=30, seed=seed).samples, want):
                bad.append(cfg.cfo_hz)

    threads = [threading.Thread(target=worker, args=(*job, want))
               for job, want in zip(jobs, wants)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert bad == []


@pytest.mark.parametrize("extra", [0, 1, 20000])
def test_apply_cfo_matches_one_expression_at_any_length(rng, extra):
    # x * exp(...) in one expression, as numpy evaluates it when the
    # exponential is a temporary (in place from 256 KiB, 16384 samples, up).
    buf = random_buffer(rng, 8192 + extra)
    n = np.arange(len(buf))
    want = buf.samples * np.exp(2j * np.pi * 51e3 * n / buf.sample_rate)
    for _ in range(2):
        got = apply_cfo(buf, 51e3).samples
        assert same_bits(got, want)


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
        ChannelConfig(timing_offset=MAX_GENERATED_SAMPLES + 1)
    with pytest.raises(ConfigError):
        ChannelConfig(snr_db=float("inf"))
    with pytest.raises(ConfigError):
        ChannelConfig(snr_db=3083.0)   # 10 ** 308.3 overflows
    for taps in ([], [(-1, 1.0)], [(3, 1.0), (1, 0.5)], [(2, 1.0), (2, 0.5)]):
        with pytest.raises(ConfigError):
            ChannelConfig(taps=taps)
    # sizes are integers: a float is rejected here, not truncated or left to numpy
    for bad in (2.5, 2.0, np.float64(3.0)):
        with pytest.raises(ConfigError, match="timing_offset must be an integer"):
            ChannelConfig(timing_offset=bad)
    with pytest.raises(ConfigError, match="tap delay must be an integer"):
        ChannelConfig(taps=((0, 1.0), (2.5, 0.5)))
    # a tap that is no (delay, gain) pair of numbers, a gain past float64's range
    # or a delay past MAX_GENERATED_SAMPLES is a config error, not Python's own
    for taps, message in ((((0, 10**5000),), "got a tuple holding an int too long to write$"),
                          (((0, "a"),), r"got \(\(0, 'a'\),\)$"),
                          (((0,),), r"got \(\(0,\),\)$"), (5, "got 5$")):
        with pytest.raises(ConfigError, match=f"taps must be \\(delay, gain\\) pairs.*{message}"):
            ChannelConfig(taps=taps)
    for delay in (MAX_GENERATED_SAMPLES + 1, 10**20, 10**5000):
        with pytest.raises(ConfigError, match="tap delay must lie in"):
            ChannelConfig(taps=((0, 1.0), (delay, 0.5)))
    # offsets and SNRs are real numbers: None or a string is rejected, not left to numpy
    for name, bad, message in (("cfo_hz", None, "must be a finite real number"),
                               ("cfo_hz", "1e3", "must be a finite real number"),
                               ("cfo_hz", 1j, "must be a finite real number"),
                               ("cfo_hz", 10**400, "must be a finite real number"),
                               ("snr_db", "10", "must lie in")):
        with pytest.raises(ConfigError, match=f"{name} {message}"):
            ChannelConfig(**{name: bad})
    # an int too long for Python to write as text is shown by its bit count
    for name, message in (("snr_db", "must lie in"), ("cfo_hz", "must be a finite real number")):
        with pytest.raises(ConfigError, match=f"{name} {message}.*got an int of 16610 bits$"):
            ChannelConfig(**{name: 10**5000})
    # transmit's own sizes: integers, and a tail past MAX_GENERATED_SAMPLES is
    # rejected before anything is allocated
    preamble = generate_preamble()
    for kwargs, message in (({"tail_len": MAX_GENERATED_SAMPLES + 1}, "tail_len must lie in"),
                            ({"tail_len": -1}, "tail_len must lie in"),
                            ({"tail_len": 2.5}, "tail_len must be an integer"),
                            ({"seed": 1.5}, "seed must be an integer")):
        with pytest.raises(ConfigError, match=message):
            transmit(preamble, ChannelConfig(), **kwargs)
    cfg = ChannelConfig(timing_offset=np.int64(7), taps=((np.int32(0), 1.0), (np.uint8(3), 0.5)))
    assert cfg.timing_offset == 7 and type(cfg.timing_offset) is int
    assert [type(d) for d, _ in cfg.taps] == [int, int]


@pytest.mark.parametrize("snr_db", [None, 10.0])
def test_transmit_rejects_a_negative_seed(preamble, snr_db):
    # default_rng takes no negative seed; transmit says so before any work,
    # noiseless too, so a bad seed never depends on the SNR to show
    with pytest.raises(ConfigError, match="seed cannot be negative"):
        transmit(preamble, ChannelConfig(snr_db=snr_db), seed=-1)


def test_transmit_draws_from_a_generator_as_it_is(preamble):
    # default_rng's own rule: a Generator is used as it is, so one in
    # default_rng(9)'s state gives the bits of seed=9; any other seed that is
    # no integer stays a config error
    cfg = ChannelConfig(snr_db=5.0, cfo_hz=30e3)
    want = transmit(preamble, cfg, 40, seed=9).samples
    assert same_bits(transmit(preamble, cfg, 40, seed=np.random.default_rng(9)).samples, want)
    rng, = seeded_generators(range(9, 10))
    assert same_bits(transmit(preamble, cfg, 40, seed=rng).samples, want)
    for bad in (np.random.PCG64(9), np.random.SeedSequence(9), np.random.RandomState(9), None):
        with pytest.raises(ConfigError, match="^seed must be an integer, got "):
            transmit(preamble, cfg, seed=bad)


# --- seeded_generators ----------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(edge=st.sampled_from([0, 2**32, 2**64, 2**128]), shift=st.integers(-30, 30),
       count=st.integers(0, 30), chunk=st.integers(1, 8), n=st.integers(0, 40))
@example(edge=2**128, shift=-3, count=6, chunk=4, n=5)
def test_seeded_generators_start_in_default_rngs_state(edge, shift, count, chunk, n):
    # The helper re-implements numpy's SeedSequence hash and PCG64 seeding: a
    # numpy that changes either fails here rather than moving report bytes.
    # Seeds run on both sides of a pool word's end, and small chunks put the
    # chunk edges among them.
    first = max(0, edge + shift)
    seeds = range(first, first + count)
    with warnings.catch_warnings(), mock.patch.object(channel_module, "SEED_CHUNK", chunk):
        warnings.simplefilter("error")  # the uint32 arithmetic wraps without a warning
        got = [(rng.bit_generator.state, rng.standard_normal((2, n)))
               for rng in seeded_generators(seeds)]
    assert len(got) == count
    for seed, (state, draw) in zip(seeds, got):
        want = np.random.default_rng(seed)
        assert state == want.bit_generator.state
        assert np.array_equal(draw, want.standard_normal((2, n)))


@pytest.mark.parametrize("edge", [2**32, 2**128])
def test_seeded_generators_across_whole_chunks(edge):
    seeds = range(edge - SEED_CHUNK - 2, edge + 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [rng.bit_generator.state for rng in seeded_generators(seeds)]
    assert got == [np.random.default_rng(seed).bit_generator.state for seed in seeds]


@pytest.mark.parametrize("gain", [complex("nan"), float("inf"), complex(0.5, float("-inf"))])
def test_non_finite_tap_gain_is_rejected_naming_its_delay(gain):
    with pytest.raises(ConfigError, match="tap gain at delay 4 must be finite"):
        ChannelConfig(taps=((0, 1 + 0j), (4, gain)))


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
    # each field is read as the plan keys are, and its message names the line and the field
    for line, message in (("1.5 0.5 0", "tap delay must be an integer, got '1.5'"),
                          ("-1 0.5 0", "tap delay must lie in [0, 16777216], got -1"),
                          ("3 x 0", "tap gain must be a number, got 'x'"),
                          ("3 0.5 none", "tap gain must be a number, got 'none'")):
        path.write_text(f"0 1 0\n{line}\n")
        with pytest.raises(ConfigError) as excinfo:
            load_taps(path)
        assert str(excinfo.value) == f"{path}:2: {message}"


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
    out = transmit(preamble, ChannelConfig(taps=taps))
    assert len(out) == 320 + max(d for d, _ in taps)
