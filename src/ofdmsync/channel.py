"""Baseband channel simulation: multipath taps, carrier frequency offset, AWGN.

:func:`transmit` is the one path that impairs a signal: lead padding + frame
(+ optional tail), a tapped-delay line, the CFO rotation, then complex white
Gaussian noise referenced to the average power of the transmitted frame, so
``snr_db`` keeps its meaning regardless of how much silence surrounds it.

Only the noise, drawn from :func:`transmit`'s ``seed``, differs between the
trials of a Monte Carlo run, so :func:`transmit` keeps the last noiseless
received frame it built, with the input's average power, in one slot and
reuses it for the same input buffer, config object and ``tail_len``. It
stores frames only for frozen inputs (such as
:func:`~ofdmsync.preamble.generate_preamble`'s): samples that are read-only,
as is every array along their ``.base`` chain. A writable array can change
in place under the same identity, and so can a read-only view of one. The
slot is replaced by one assignment of an immutable tuple, so concurrent
callers never see half of it. It keeps that one frame, as long as the
transmission it came from, alive until another frame replaces it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import MAX_GENERATED_SAMPLES, SampleBuffer
from .errors import ConfigError

BUILTIN_PROFILES = ("etsi_a", "etsi_c")
# Far past any physical SNR; keeps the noise power, and the squared sums the
# detectors form from it, finite (10 ** (snr_db / 10) overflows near 3083 dB).
MAX_ABS_SNR_DB = 300
# A phase of 2**52 cycles has no fractional part left in float64.
MAX_ROTATION_CYCLES = 2.0 ** 52
UNIT_TAP = ((0, 1 + 0j),)  # no multipath


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
        taps = tuple((int(d), complex(g)) for d, g in self.taps)
        if not taps:
            raise ConfigError("channel needs at least one tap")
        delays = [d for d, _ in taps]
        if delays[0] < 0 or any(b <= a for a, b in zip(delays, delays[1:])):
            raise ConfigError("tap delays must be non-negative and strictly increasing")
        for delay, gain in taps:
            if not cmath.isfinite(gain):
                raise ConfigError(f"tap gain at delay {delay} must be finite, got {gain}")
        if self.snr_db is not None and not -MAX_ABS_SNR_DB <= self.snr_db <= MAX_ABS_SNR_DB:
            raise ConfigError(f"snr_db must lie in [-{MAX_ABS_SNR_DB}, {MAX_ABS_SNR_DB}] dB, "
                              "or be None (noiseless)")
        if not np.isfinite(self.cfo_hz):
            raise ConfigError("cfo_hz must be finite")
        if not 0 <= self.timing_offset <= MAX_GENERATED_SAMPLES:
            raise ConfigError(f"timing_offset must lie in [0, {MAX_GENERATED_SAMPLES}], "
                              f"got {self.timing_offset}")
        object.__setattr__(self, "taps", taps)


def parse_snr(text: str) -> float | None:
    """An SNR as the CLI and plan files write it: a number in dB, or 'none' or
    'noiseless' (any case) for ``None``. Raises ValueError otherwise."""
    text = text.lower()
    return None if text in ("none", "noiseless") else float(text)


def _rotation(length: int, cfo_hz: float, sample_rate: float) -> np.ndarray:
    """exp(+j*2*pi*cfo_hz*n*Ts) for n < length."""
    cycles = abs(cfo_hz) * length / sample_rate
    if not cycles < MAX_ROTATION_CYCLES:
        raise ConfigError(f"cfo_hz {cfo_hz} turns {cycles:.3g} cycles over {length} samples "
                          f"at {sample_rate} Hz; float64 keeps no phase past 2**52")
    n = np.arange(length)
    return np.exp(2j * np.pi * cfo_hz * n / sample_rate)


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
    return SampleBuffer(_rotate(signal.samples, cfo_hz, signal.sample_rate), signal.sample_rate)


def _received(preamble: SampleBuffer, cfg: ChannelConfig, tail_len: int
              ) -> tuple[np.ndarray, float]:
    """The noiseless received frame and the preamble's average power (taken
    first, so its temporaries are freed before the frame's are made)."""
    power = preamble.average_power
    padded = np.concatenate([
        np.zeros(cfg.timing_offset, np.complex128),
        preamble.samples,
        np.zeros(tail_len, np.complex128),
    ])
    return _rotate(_delay_sum(padded, cfg.taps), cfg.cfo_hz, preamble.sample_rate), power


# (preamble, cfg, tail_len, frame, power) of the last frozen input; see transmit.
_slot: tuple = (None, None, None, None, 0.0)


def _frozen(array: np.ndarray) -> bool:
    """Whether ``array`` and every array along its ``.base`` chain are
    read-only, down to an array that owns its memory."""
    while isinstance(array, np.ndarray) and not array.flags.writeable:
        if array.base is None:
            return True
        array = array.base
    return False


def transmit(preamble: SampleBuffer, cfg: ChannelConfig, tail_len: int = 0, *,
             seed: int = 0) -> SampleBuffer:
    """Run one frame through the configured channel.

    The output is ``timing_offset`` lead samples, the impaired frame, then
    ``tail_len`` trailing samples (the inter-frame gap seen by a receiver
    that keeps capturing). Lead and tail carry only channel noise, or zeros
    when noiseless. The noise is one ``(2, N)`` draw of
    ``default_rng(seed).standard_normal``, the real parts' row first: the
    stream of N real draws followed by N imaginary ones. Each scaled row is
    added to its part of the frame, which gives the bits of
    ``frame + scale * (re + 1j * im)``. Deterministic for a fixed (input,
    config, tail_len, seed). A negative seed, or an SNR on a zero-power
    frame, raises ConfigError.

    For frozen ``preamble.samples`` (read-only down to the array that owns
    their memory) the noiseless frame comes from the module's one slot while
    ``preamble`` and ``cfg`` are the objects it was built from and
    ``tail_len`` is the same; a miss rebuilds it and replaces the slot. Both
    objects are frozen and the slot holds them, so their ids cannot be
    reused while it does. Other inputs are rebuilt on every call and never
    stored. A noiseless call returns a copy, never the slot's array. Outputs
    are the same bits with or without the slot.
    """
    global _slot
    if seed < 0:
        raise ConfigError(f"seed cannot be negative, got {seed}")
    if not _frozen(preamble.samples):
        out, power = _received(preamble, cfg, tail_len)
    else:
        slot = _slot
        if slot[0] is preamble and slot[1] is cfg and slot[2] == tail_len:
            out, power = slot[3], slot[4]
        else:
            out, power = _received(preamble, cfg, tail_len)
            out.flags.writeable = False
            _slot = (preamble, cfg, tail_len, out, power)
        if cfg.snr_db is None:
            out = out.copy()
    if cfg.snr_db is not None:
        if power == 0.0:
            raise ConfigError("cannot set an SNR on a zero-power signal")
        scale = np.sqrt(power / 10 ** (cfg.snr_db / 10) / 2)
        noise = np.random.default_rng(seed).standard_normal((2, len(out)))
        noise *= scale
        frame, out = out, np.empty(len(out), np.complex128)
        np.add(frame.real, noise[0], out=out.real)
        np.add(frame.imag, noise[1], out=out.imag)
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
