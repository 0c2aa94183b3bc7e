"""Baseband channel simulation: multipath taps, carrier frequency offset, AWGN.

:func:`transmit` is the one path that impairs a signal: lead padding + frame
(+ optional tail), a tapped-delay line, the CFO rotation, then complex white
Gaussian noise referenced to the average power of the transmitted frame, so
``snr_db`` keeps its meaning regardless of how much silence surrounds it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import MAX_GENERATED_SAMPLES, SampleBuffer, as_int, as_real, of_type, shown
from .errors import ConfigError
from .preamble import generate_preamble

BUILTIN_PROFILES = ("etsi_a", "etsi_c")
# Far past any physical SNR; keeps the noise power, and the squared sums the
# detectors form from it, finite (10 ** (snr_db / 10) overflows near 3083 dB).
MAX_ABS_SNR_DB = 300
# A phase of 2**52 cycles has no fractional part left in float64.
MAX_ROTATION_CYCLES = 2.0 ** 52
UNIT_TAP = ((0, 1 + 0j),)  # no multipath
# Seeds hashed at once by seeded_generators: bounds its uint32 arrays.
SEED_CHUNK = 1024
# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
# (numpy/random/bit_generator.pyx, numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SEEDS = 2**128  # seeds of four words or fewer, which SeedSequence zero-pads to its pool


@dataclass(frozen=True)
class ChannelConfig:
    """Impairment settings of a channel; the noise seed is :func:`transmit`'s.

    ``snr_db=None`` means noiseless. ``taps`` is a tapped-delay profile as
    (delay_samples, complex_gain) pairs with strictly increasing delays.
    ``timing_offset`` is the number of lead samples before the frame.
    """

    cfo_hz: float = 0.0
    snr_db: float | None = None
    taps: tuple[tuple[int, complex], ...] = UNIT_TAP
    timing_offset: int = 0

    def __post_init__(self):
        try:
            pairs = [(d, complex(g)) for d, g in self.taps]
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int gain past float64
            raise ConfigError(f"taps must be (delay, gain) pairs, got {shown(self.taps)}") from None
        taps = tuple((as_int("tap delay", d, (0, MAX_GENERATED_SAMPLES)), g) for d, g in pairs)
        if not taps:
            raise ConfigError("channel needs at least one tap")
        if any(b[0] <= a[0] for a, b in zip(taps, taps[1:])):
            raise ConfigError("tap delays must be strictly increasing")
        for delay, gain in taps:
            if not cmath.isfinite(gain):
                raise ConfigError(f"tap gain at delay {delay} must be finite, got {gain}")
        if self.snr_db is not None:
            as_real("snr_db", self.snr_db,
                    f"lie in [-{MAX_ABS_SNR_DB}, {MAX_ABS_SNR_DB}] dB, or be None (noiseless)",
                    lambda snr: -MAX_ABS_SNR_DB <= snr <= MAX_ABS_SNR_DB)
        as_real("cfo_hz", self.cfo_hz)
        object.__setattr__(self, "timing_offset", as_int(
            "timing_offset", self.timing_offset, (0, MAX_GENERATED_SAMPLES)))
        object.__setattr__(self, "taps", taps)


def parse_snr(text: str) -> float | None:
    """An SNR as the CLI and plan files write it: a number in dB, or 'none' or
    'noiseless' (any case) for ``None``. Raises ValueError otherwise."""
    text = text.lower()
    return None if text in ("none", "noiseless") else float(text)


def _rotation(length: int, cfo_hz: float, sample_rate: float) -> np.ndarray:
    """exp(+j*2*pi*cfo_hz*n*Ts) for n < length."""
    # in Python floats, which turn an overflow into inf for the test below
    cycles = abs(float(as_real("cfo_hz", cfo_hz))) / sample_rate * length
    if not cycles < MAX_ROTATION_CYCLES:
        raise ConfigError(f"cfo_hz {shown(cfo_hz)} turns {cycles:.3g} cycles over {length} samples "
                          f"at {sample_rate} Hz; float64 keeps no phase past 2**52")
    n = np.arange(length)
    try:  # raises where the product overflows: in float64, or in the type of a narrower cfo_hz
        with np.errstate(over="raise", invalid="raise"):
            phase = 2j * np.pi * cfo_hz * n
    except FloatingPointError:
        raise ConfigError(f"cfo_hz {shown(cfo_hz)} over {length} samples overflows 2*pi*cfo_hz*n, "
                          f"formed before the division by the sample rate {sample_rate} Hz") from None
    return np.exp(phase / sample_rate)


def _rotate(x: np.ndarray, cfo_hz: float, sample_rate: float) -> np.ndarray:
    return x * _rotation(len(x), cfo_hz, sample_rate)


def _delay_sum(x: np.ndarray, taps) -> np.ndarray:
    max_delay = max(d for d, _ in taps)
    out = np.zeros(len(x) + max_delay, dtype=np.complex128)
    for delay, gain in taps:
        out[delay:delay + len(x)] += gain * x
    return out


def apply_cfo(signal: SampleBuffer, cfo_hz: float) -> SampleBuffer:
    """Rotate by exp(+j*2*pi*cfo_hz*n*Ts); magnitudes are preserved."""
    of_type("apply_cfo", signal, SampleBuffer)
    return SampleBuffer(_rotate(signal.samples, cfo_hz, signal.sample_rate), signal.sample_rate)


def _received(preamble: SampleBuffer, cfg: ChannelConfig, tail_len: int
              ) -> tuple[np.ndarray, np.float64 | None]:
    """The noiseless received frame, and the scale of each noise part:
    ``sqrt(power / 10**(snr_db / 10) / 2)`` with ``power`` the preamble's
    average power (taken first, so its temporaries are freed before the
    frame's are made), or None when noiseless. An SNR on a zero-power
    preamble raises ConfigError."""
    scale = None
    if cfg.snr_db is not None:
        power = preamble.average_power
        if power == 0.0:
            raise ConfigError("cannot set an SNR on a zero-power signal")
        scale = np.sqrt(power / 10 ** (cfg.snr_db / 10) / 2)
    padded = np.concatenate([
        np.zeros(cfg.timing_offset, np.complex128),
        preamble.samples,
        np.zeros(tail_len, np.complex128),
    ])
    return _rotate(_delay_sum(padded, cfg.taps), cfg.cfo_hz, preamble.sample_rate), scale


# (cfg, tail_len, frame, noise scale) of the last generate_preamble() input,
# replaced by one assignment, so concurrent callers never see half of it; see transmit.
_slot: tuple = (None, None, None, None)


def transmit(preamble: SampleBuffer, cfg: ChannelConfig, tail_len: int = 0, *,
             seed: int | np.random.Generator = 0) -> SampleBuffer:
    """Run one frame through the configured channel.

    The output is ``timing_offset`` lead samples, the impaired frame, then
    ``tail_len`` trailing samples (the inter-frame gap seen by a receiver
    that keeps capturing). Lead and tail carry only channel noise, or zeros
    when noiseless. The noise is one ``(2, N)`` draw of
    ``default_rng(seed).standard_normal``, the real parts' row first: the
    stream of N real draws followed by N imaginary ones. Each scaled row is
    added to its part of the frame, which gives the bits of
    ``frame + scale * (re + 1j * im)``. Deterministic for a fixed (input,
    config, tail_len, seed). As in ``default_rng``, a Generator given as
    ``seed`` is drawn from as it is (:func:`seeded_generators` gives one in
    ``default_rng(s)``'s state). A negative seed, a seed that is neither an
    integer nor a Generator, a non-integer or negative ``tail_len``, a
    ``tail_len`` over MAX_GENERATED_SAMPLES, or an SNR on a zero-power frame
    raises ConfigError; a preamble or config of the wrong type, TypeError.

    Only the noise differs between the trials of a Monte Carlo run, so for
    ``preamble is generate_preamble()`` the noiseless frame and the noise
    scale, built together, come from the module's one slot while ``cfg`` is
    the object they were built from and ``tail_len`` is the same; a miss
    rebuilds both and replaces the slot. The config is frozen and the slot
    holds it, so its id cannot be reused while it does. Every other input is
    rebuilt on every call. A noiseless call returns a copy, never the slot's
    array. Outputs are the same bits with or without the slot.
    """
    global _slot
    of_type("transmit", preamble, SampleBuffer)
    of_type("transmit", cfg, ChannelConfig)
    if not isinstance(seed, np.random.Generator):
        seed = as_int("seed", seed)
        if seed < 0:
            raise ConfigError(f"seed cannot be negative, got {shown(seed)}")
    tail_len = as_int("tail_len", tail_len, (0, MAX_GENERATED_SAMPLES))
    if preamble is not generate_preamble():
        out, scale = _received(preamble, cfg, tail_len)
    else:
        slot = _slot
        if slot[0] is cfg and slot[1] == tail_len:
            out, scale = slot[2], slot[3]
        else:
            out, scale = _received(preamble, cfg, tail_len)
            out.flags.writeable = False
            _slot = (cfg, tail_len, out, scale)
        if scale is None:
            out = out.copy()
    if scale is not None:
        noise = np.random.default_rng(seed).standard_normal((2, len(out)))
        noise *= scale
        frame, out = out, np.empty(len(out), np.complex128)
        np.add(frame.real, noise[0], out=out.real)
        np.add(frame.imag, noise[1], out=out.imag)
    return SampleBuffer(out, preamble.sample_rate)


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, its hash constant stepping from ``const``."""
    def step(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return step


def _pcg64_states(seeds: list[int]):
    """Yield, for each s < 2**128, the PCG64 state dict that ``default_rng(s)``
    starts in, as ``bit_generator.state`` takes it.

    SeedSequence's ``mix_entropy`` over the 4-word pool, then its
    ``generate_state(4, uint64)``, run on one uint32 row per pool word, so
    every seed is hashed at once; then PCG64's two seeding steps in Python
    ints, one seed's as its dict is asked for.
    """
    words = np.frombuffer(b"".join(s.to_bytes(16, "little") for s in seeds), "<u4")
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words.reshape(-1, 4).T.astype(np.uint32)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ mixed >> np.uint32(16)
    hashmix = _hashmix(_INIT_B, _MULT_B)
    halves = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (halves[2 * k] | halves[2 * k + 1] << np.uint64(32)).tolist() for k in range(4))
    del words, pool, mixed, halves  # the lists of ints are all that the chunk's seeds need
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & (2**128 - 1)
        yield {"bit_generator": "PCG64",
               "state": {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & (2**128 - 1),
                         "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def seeded_generators(seeds: range):
    """Yield, for each seed s of ``seeds`` (non-negative ints), a Generator in
    the state that ``np.random.default_rng(s)`` starts in.

    The states of ``SEED_CHUNK`` seeds are hashed at once (see
    :func:`_pcg64_states`) and set on one reused Generator, so a consumer
    draws from each before asking for the next. A seed of 2**128 or more,
    which SeedSequence hashes as more than its pool, gets ``default_rng(s)``.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for start in range(0, len(seeds), SEED_CHUNK):
        chunk = seeds[start:start + SEED_CHUNK]
        states = _pcg64_states([s for s in chunk if s < _POOL_SEEDS])
        for s in chunk:
            if s >= _POOL_SEEDS:
                yield np.random.default_rng(s)
                continue
            bit_generator.state = next(states)
            yield rng


def load_taps(path) -> tuple[tuple[int, complex], ...]:
    """Read a tap profile: one ``delay_samples gain_re gain_im`` per line.

    Blank lines and ``#`` comments are ignored.
    """
    path = Path(path)
    taps = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if len(fields) != 3:
            raise ConfigError(f"{path}:{lineno}: expected 'delay gain_re gain_im', got {line!r}")
        try:
            delay, re, im = int(fields[0]), float(fields[1]), float(fields[2])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        taps.append((delay, complex(re, im)))
    if not taps:
        raise ConfigError(f"{path}: no taps defined")
    return ChannelConfig(taps=tuple(taps)).taps


def profile_path(name: str) -> Path:
    """Location of a built-in tap profile shipped with the package."""
    if name not in BUILTIN_PROFILES:
        raise ConfigError(f"unknown channel profile {name!r}; choose from {BUILTIN_PROFILES}")
    return Path(str(resources.files(__package__) / "profiles" / f"{name}.taps"))


def resolve_taps(spec: str) -> tuple[tuple[int, complex], ...]:
    """Interpret a CLI/plan tap reference: a file path or a built-in name.

    An empty reference is a ConfigError, not the current directory read as a file.
    """
    if spec == "":
        raise ConfigError(f"a tap reference (plan key taps, flag --taps) must be a file path "
                          f"or a built-in name {BUILTIN_PROFILES}, got an empty one")
    if spec in BUILTIN_PROFILES:
        return load_taps(profile_path(spec))
    return load_taps(spec)
