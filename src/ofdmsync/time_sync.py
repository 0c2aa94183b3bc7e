"""Symbol timing recovery by cross-correlation with a known training symbol.

The correlator slides one short period (16 samples) or one long symbol
(64 samples) over the received stream, so a clean preamble produces ten
equal peaks for the short template and two for the long one. The reported
position is the boundary right after the matched symbol, which lands on the
standard landmarks: 160 at the end of the short training and 320 at the end
of the preamble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_int_pair, as_samples, of_type, shown
from .errors import ConfigError, SizingError
from .preamble import (GUARD_LEN, LONG_SYMBOL_LEN, PREAMBLE_LEN, SHORT_PERIOD, STS_LEN,
                       generate_preamble)

TEMPLATES = ("sts", "lts")
TEMPLATE_LEN = {"sts": SHORT_PERIOD, "lts": LONG_SYMBOL_LEN}


@dataclass(frozen=True)
class TimeSyncConfig:
    """Template choice plus the argmax search window.

    ``search_window`` is (start, length) over template *alignment* indices
    (where the template's first sample sits) of the whole buffer. ``None``
    picks :func:`default_search_window` for a frame that starts at sample 0.
    """

    template: str = "lts"
    search_window: tuple[int, int] | None = None

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise ConfigError(f"template must be one of {TEMPLATES}")
        if self.search_window is not None:
            start, length = as_int_pair("search window", self.search_window)
            if length < 1:
                raise ConfigError("search window length must be positive")
            object.__setattr__(self, "search_window", (start, length))


@dataclass(frozen=True)
class TimingEstimate:
    """Argmax result: boundary sample index and the peak magnitude there."""

    n_xc_max: int
    peak_magnitude: float


def _output_length(x: np.ndarray, c: np.ndarray) -> int:
    """Number of full-overlap alignments of template ``c`` on ``x``."""
    if len(c) < 1:
        raise SizingError("template is empty")
    if len(x) < len(c):
        raise SizingError(f"signal of {len(x)} samples is shorter than the {len(c)}-sample template")
    return len(x) - len(c) + 1


def cross_correlate(r, template) -> np.ndarray:
    """|Lambda[n]| with Lambda[n] = sum_m conj(c[m]) * r[n+m]."""
    x = as_samples(r)
    c = as_samples(template)
    _output_length(x, c)
    return _magnitude(x, c)


def _magnitude(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|Lambda| of complex128 ``x`` and ``c`` with ``len(x) >= len(c) >= 1``."""
    # np.correlate(x, c, 'valid')[n] == sum_m x[n+m] * conj(c[m])
    return np.abs(np.correlate(x, c, mode="valid"))


def training_template(template: str) -> np.ndarray:
    """One short period or one long symbol, cut from the unit-power preamble."""
    p = generate_preamble().samples
    if template == "sts":
        return p[:SHORT_PERIOD]
    if template == "lts":
        start = STS_LEN + GUARD_LEN
        return p[start: start + LONG_SYMBOL_LEN]
    raise ConfigError(f"template must be one of {TEMPLATES}")


def default_expected_peak(template: str) -> int:
    return STS_LEN if template == "sts" else PREAMBLE_LEN


def default_search_window(template: str, frame_start: int = 0) -> tuple[int, int]:
    """(start, length) over alignment indices: the reported peak lies from the
    landmark of a frame that starts at ``frame_start`` to two symbols past it."""
    sym = TEMPLATE_LEN[template]
    return frame_start + default_expected_peak(template) - sym, 2 * sym


def estimate_timing(r, cfg: TimeSyncConfig = TimeSyncConfig()) -> TimingEstimate:
    """Windowed argmax of the template cross-correlation.

    Ties break to the lowest index. The returned ``n_xc_max`` is the
    alignment index plus the template length (the first sample after the
    matched symbol). Only the samples the window's alignments touch are
    correlated; each output is the same dot product over the same memory as
    in the full correlation, so the result is bit-identical to it.
    """
    template = training_template(of_type("estimate_timing", cfg, TimeSyncConfig).template)
    x = as_samples(r)
    n_out = _output_length(x, template)
    start, length = cfg.search_window or default_search_window(cfg.template)
    if start < 0 or start + length > n_out:
        raise SizingError(
            f"search window [{shown(start)}, {shown(start + length)}) outside correlator output "
            f"of length {n_out}")
    magnitude = _magnitude(x[start:start + length + len(template) - 1], template)
    local = int(magnitude.argmax())
    return TimingEstimate(n_xc_max=start + local + len(template),
                          peak_magnitude=float(magnitude[local]))
