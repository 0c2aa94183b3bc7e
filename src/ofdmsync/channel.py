"""Baseband channel simulation: multipath taps, carrier frequency offset, AWGN.

The received stream is built as lead padding + frame (+ optional tail),
passed through a tapped-delay line, rotated by the CFO exponential, and
finally hit with complex white Gaussian noise. Noise power is referenced to
the average power of the transmitted frame, so ``snr_db`` keeps its meaning
regardless of how much silence surrounds the frame.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import SampleBuffer
from .errors import ConfigError

BUILTIN_PROFILES = ("etsi_a", "etsi_c")
# Far past any physical SNR; keeps the noise power, and the squared sums the
# detectors form from it, finite (10 ** (snr_db / 10) overflows near 3083 dB).
MAX_ABS_SNR_DB = 300
# A phase of 2**52 cycles has no fractional part left in float64.
MAX_ROTATION_CYCLES = 2.0 ** 52
MAX_SHARED_ROTATION_LEN = 8192  # 128 KiB


@dataclass(frozen=True)
class ChannelConfig:
    """Impairment settings for one transmission.

    ``snr_db=None`` means noiseless. ``taps`` is a tapped-delay profile as
    (delay_samples, complex_gain) pairs with strictly increasing delays.
    ``timing_offset`` is the number of lead samples before the frame.
    """

    cfo_hz: float = 0.0
    snr_db: float | None = None
    taps: tuple[tuple[int, complex], ...] = ((0, 1 + 0j),)
    timing_offset: int = 0
    seed: int = 0

    def __post_init__(self):
        taps = tuple((int(d), complex(g)) for d, g in self.taps)
        if not taps:
            raise ConfigError("channel needs at least one tap")
        delays = [d for d, _ in taps]
        if delays[0] < 0 or any(b <= a for a, b in zip(delays, delays[1:])):
            raise ConfigError("tap delays must be non-negative and strictly increasing")
        if self.snr_db is not None and not -MAX_ABS_SNR_DB <= self.snr_db <= MAX_ABS_SNR_DB:
            raise ConfigError(f"snr_db must lie in [-{MAX_ABS_SNR_DB}, {MAX_ABS_SNR_DB}] dB, "
                              "or be None (noiseless)")
        if not np.isfinite(self.cfo_hz):
            raise ConfigError("cfo_hz must be finite")
        if self.timing_offset < 0:
            raise ConfigError("timing_offset cannot be negative")
        if self.seed < 0:
            raise ConfigError(f"seed cannot be negative, got {self.seed}")
        object.__setattr__(self, "taps", taps)


def _rotation(length: int, cfo_hz: float, sample_rate: float) -> np.ndarray:
    """exp(+j*2*pi*cfo_hz*n*Ts) for n < length."""
    cycles = abs(cfo_hz) * length / sample_rate
    if not cycles < MAX_ROTATION_CYCLES:
        raise ConfigError(f"cfo_hz {cfo_hz} turns {cycles:.3g} cycles over {length} samples "
                          f"at {sample_rate} Hz; float64 keeps no phase past 2**52")
    n = np.arange(length)
    return np.exp(2j * np.pi * cfo_hz * n / sample_rate)


# One slot: a Monte Carlo run rotates every trial by the same (length, cfo_hz,
# sample_rate).
@functools.lru_cache(maxsize=1)
def _shared_rotation(length: int, cfo_hz: float, sample_rate: float, sign: float) -> np.ndarray:
    """:func:`_rotation`, built once per key and read-only.

    ``sign`` is ``copysign(1, cfo_hz)``. It only keys the cache: 0.0 == -0.0,
    yet their rotations may differ in the sign of a zero.
    """
    rotation = _rotation(length, cfo_hz, sample_rate)
    rotation.flags.writeable = False
    return rotation


def _rotate(x: np.ndarray, cfo_hz: float, sample_rate: float) -> np.ndarray:
    # From 256 KiB up, numpy multiplies into a fresh temporary operand in place
    # (operands swapped), which can change the last bit of a complex product.
    # A fresh rotation gets that treatment and a shared one never does, so only
    # rotations below that size are shared; results never depend on the cache.
    if len(x) > MAX_SHARED_ROTATION_LEN:
        return x * _rotation(len(x), cfo_hz, sample_rate)
    return x * _shared_rotation(len(x), cfo_hz, sample_rate, math.copysign(1.0, cfo_hz))


def _delay_sum(x: np.ndarray, taps) -> np.ndarray:
    max_delay = max(d for d, _ in taps)
    out = np.zeros(len(x) + max_delay, dtype=np.complex128)
    for delay, gain in taps:
        out[delay:delay + len(x)] += gain * x
    return out


def apply_cfo(signal: SampleBuffer, cfo_hz: float) -> SampleBuffer:
    """Rotate by exp(+j*2*pi*cfo_hz*n*Ts); magnitudes are preserved."""
    return SampleBuffer(_rotate(signal.samples, cfo_hz, signal.sample_rate), signal.sample_rate)


def apply_multipath(signal: SampleBuffer, taps) -> SampleBuffer:
    """Sum of delayed, complex-weighted copies; output grows by the max delay."""
    taps = tuple((int(d), complex(g)) for d, g in taps)
    return SampleBuffer(_delay_sum(signal.samples, taps), signal.sample_rate)


def _noise(rng: np.random.Generator, count: int, power: float) -> np.ndarray:
    scale = np.sqrt(power / 2)
    return scale * (rng.standard_normal(count) + 1j * rng.standard_normal(count))


def add_awgn(signal: SampleBuffer, snr_db: float | None, seed=0) -> SampleBuffer:
    """Add circularly-symmetric Gaussian noise at the requested SNR.

    SNR is measured against the mean power of ``signal``. ``snr_db=None``
    returns the input unchanged. ``seed`` may be an int or a Generator.
    """
    if snr_db is None:
        return signal
    x = signal.samples
    sig_power = float(np.mean(np.abs(x) ** 2)) if len(x) else 0.0
    if sig_power == 0.0:
        raise ConfigError("cannot set an SNR on a zero-power signal")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    noise_power = sig_power / 10 ** (snr_db / 10)
    return SampleBuffer(x + _noise(rng, len(x), noise_power), signal.sample_rate)


def transmit(preamble: SampleBuffer, cfg: ChannelConfig, tail_len: int = 0) -> SampleBuffer:
    """Run one frame through the configured channel.

    The output is ``timing_offset`` lead samples, the impaired frame, then
    ``tail_len`` trailing samples (the inter-frame gap seen by a receiver
    that keeps capturing). Lead and tail carry only channel noise, or zeros
    when noiseless. Deterministic for a fixed (input, config) pair.
    """
    x = preamble.samples
    padded = np.concatenate([
        np.zeros(cfg.timing_offset, np.complex128),
        x,
        np.zeros(tail_len, np.complex128),
    ])
    out = _rotate(_delay_sum(padded, cfg.taps), cfg.cfo_hz, preamble.sample_rate)
    if cfg.snr_db is not None:
        frame_power = preamble.average_power
        if frame_power == 0.0:
            raise ConfigError("cannot set an SNR on a zero-power frame")
        rng = np.random.default_rng(cfg.seed)
        noise_power = frame_power / 10 ** (cfg.snr_db / 10)
        out += _noise(rng, len(out), noise_power)
    return SampleBuffer(out, preamble.sample_rate)


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
    """Interpret a CLI/plan tap reference: a file path or a built-in name."""
    if spec in BUILTIN_PROFILES:
        return load_taps(profile_path(spec))
    return load_taps(spec)
