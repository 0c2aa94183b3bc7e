"""The metric and its operands as whole arrays: the tests' reference view of
the detector's kernel steps."""

import numpy as np

from ofdmsync.core import as_samples
from ofdmsync.frame_detect import FrameDetectConfig, _require_window, detect_blocks


def compute_metrics(r, cfg: FrameDetectConfig = FrameDetectConfig()):
    """(numerator, p_squared, metric) arrays for a buffer; index n matches the buffer index.

    With R and P the window-averaged correlation and power, numerator is
    |R|^2 in ``exact`` mode and |Re R| + |Im R| in ``l1_approx`` mode,
    p_squared is P^2, and metric = numerator / (p_squared + 1e-30). The
    arrays are filled from the kernel steps of :func:`detect_blocks` on the
    one buffer, so beyond the three arrays it returns, memory stays bounded.
    Raises SizingError, as the detector's other entry points do, for a
    buffer shorter than ``lag + window``.
    """
    x = as_samples(r)
    _require_window(x, cfg.lag, cfg.window)
    out = np.empty((3, len(x) - cfg.lag - cfg.window + 1))

    def keep(n, *arrays):
        for row, values in zip(out, arrays):
            row[n:n + len(values)] = values

    detect_blocks([x], cfg, keep)
    return tuple(out)
