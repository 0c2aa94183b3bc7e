"""Seeded synthetic IQ capture for the ``capture_batch`` and ``capture_stream`` workloads.

The capture is ``SLOTS`` slots of ``SLOT_LEN`` samples of unit-power complex
Gaussian noise. Each slot holds one 802.11a preamble at a seeded position,
with a seeded SNR, carrier offset, carrier phase and tap profile. The SNR
range reaches below the detector's knee (about 5 dB for lag 16, window 16,
threshold 0.5, plateau 32), so some planted frames are truly missed.

Only the waveform comes from ``ofdmsync.generate_preamble``. The channel is
applied here with numpy, and the tap profiles are copied below, so a change
to ``ofdmsync.channel`` or to its profile files cannot change the capture.

Run as a script it writes ``<dir>/seed-<seed>.iq`` (interleaved little-endian
float32, the ``ofdmsync`` IQ format) and ``<dir>/seed-<seed>.json`` (the
planted ground truth). With ``--reference`` it instead writes the batch
``detect_frames`` events of an existing capture, which the streaming
workload compares against.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import sys
from pathlib import Path

import numpy as np

SAMPLE_RATE = 20e6
SLOT_LEN = 25_000
SLOTS = 400  # 10M samples, 80 MB on disk
SNR_DB_RANGE = (0.0, 24.0)
MAX_CFO_HZ = 200e3
EDGE = 1_000  # keep frames this far from slot edges so slots never interact
BLOCK_SLOTS = 40  # slots synthesized per write, bounding the generator's memory
STS_LEN = 160  # short training length of the 802.11a preamble
# ofdmsync's default detector: lag 16, window 16. The metric at index n reads
# samples n .. n + LAG_WINDOW_SPAN.
LAG_WINDOW_SPAN = 16 + 16 - 1

# ETSI BRAN A and C on the 20 MHz grid: (delay_samples, real gain), unit energy.
PROFILES = {
    "etsi_a": ((0, 0.671223), (1, 0.588806), (2, 0.358243), (3, 0.228541),
               (4, 0.100893), (5, 0.087874), (6, 0.053563), (7, 0.032275),
               (8, 0.019673)),
    "etsi_c": ((0, 0.426503), (1, 0.437508), (2, 0.454413), (3, 0.276068),
               (4, 0.313340), (5, 0.263643), (6, 0.224397), (7, 0.188806),
               (8, 0.202310), (10, 0.149974), (12, 0.126187), (15, 0.081473),
               (18, 0.057019), (21, 0.032435)),
}
PROFILE_NAMES = tuple(PROFILES)


def impulse_response(name: str) -> np.ndarray:
    taps = PROFILES[name]
    h = np.zeros(taps[-1][0] + 1)
    for delay, gain in taps:
        h[delay] = gain
    return h


def plan_frames(seed: int, slots: int = SLOTS, slot_len: int = SLOT_LEN,
                frame_len: int = 320) -> dict[str, list]:
    """Per-frame start sample, SNR, CFO, carrier phase and profile, from ``seed``."""
    rng = np.random.default_rng([seed, 0])
    longest = frame_len + max(len(impulse_response(p)) for p in PROFILE_NAMES)
    offsets = rng.integers(EDGE, slot_len - EDGE - longest, size=slots)
    return {
        "start": [int(i * slot_len + o) for i, o in enumerate(offsets)],
        "snr_db": rng.uniform(*SNR_DB_RANGE, size=slots).tolist(),
        "cfo_hz": rng.uniform(-MAX_CFO_HZ, MAX_CFO_HZ, size=slots).tolist(),
        "phase_rad": rng.uniform(-np.pi, np.pi, size=slots).tolist(),
        "profile": [PROFILE_NAMES[k] for k in rng.integers(0, len(PROFILE_NAMES), size=slots)],
    }


def received_frame(preamble: np.ndarray, snr_db: float, cfo_hz: float,
                   phase_rad: float, profile: str) -> np.ndarray:
    """The preamble through the taps, scaled to ``snr_db`` over unit noise, then rotated."""
    x = np.convolve(preamble, impulse_response(profile)) * 10 ** (snr_db / 20)
    n = np.arange(len(x))
    return x * np.exp(1j * (2 * np.pi * cfo_hz * n / SAMPLE_RATE + phase_rad))


def synthesize(preamble: np.ndarray, frames: dict[str, list], seed: int,
               slots: int = SLOTS, slot_len: int = SLOT_LEN):
    """Yield the capture as complex64 blocks of ``BLOCK_SLOTS`` slots."""
    noise_rng = np.random.default_rng([seed, 1])
    for first in range(0, slots, BLOCK_SLOTS):
        count = min(BLOCK_SLOTS, slots - first)
        base = first * slot_len
        n = count * slot_len
        block = np.sqrt(0.5) * (noise_rng.standard_normal(n)
                                + 1j * noise_rng.standard_normal(n))
        for k in range(first, first + count):
            y = received_frame(preamble, frames["snr_db"][k], frames["cfo_hz"][k],
                               frames["phase_rad"][k], frames["profile"][k])
            at = frames["start"][k] - base
            block[at:at + len(y)] += y
        yield block.astype(np.complex64)


def match_events(events, truth: dict, strong_snr_db: float) -> dict[str, int]:
    """Assign (start, end) events to the planted frames of ``truth``.

    An event belongs to the frame starting at p when its start index lies in
    [p - LAG_WINDOW_SPAN, p + STS_LEN + max_delay). A run caused by the
    frame's short training cannot start earlier, because the metric at n
    only reads samples up to n + LAG_WINDOW_SPAN, and it must start before
    the short training, spread by the channel, has ended. Frames sit at
    least 2 * EDGE samples apart, so an event belongs to at most one frame.

    Returns counts: ``detected`` frames, ``missed`` frames, ``spurious``
    events (a second event on a frame, or one on no frame), ``false_alarms``
    (events on no frame) and ``strong_missed`` (missed frames whose SNR is
    at least ``strong_snr_db``).
    """
    starts = truth["frames"]["start"]
    reach = STS_LEN + truth["max_delay"]
    hits = [0] * len(starts)
    false_alarms = 0
    for start, _end in events:
        k = bisect.bisect_right(starts, start + LAG_WINDOW_SPAN) - 1
        if k >= 0 and start < starts[k] + reach:
            hits[k] += 1
        else:
            false_alarms += 1
    missed = [k for k, h in enumerate(hits) if h == 0]
    return {
        "detected": len(starts) - len(missed),
        "missed": len(missed),
        "spurious": false_alarms + sum(h - 1 for h in hits if h > 1),
        "false_alarms": false_alarms,
        "strong_missed": sum(truth["frames"]["snr_db"][k] >= strong_snr_db for k in missed),
    }


def write_capture(directory: Path, seed: int, slots: int = SLOTS,
                  slot_len: int = SLOT_LEN) -> tuple[Path, Path]:
    """Write ``seed-<seed>.iq`` and its truth file; both appear atomically."""
    from ofdmsync import generate_preamble

    directory.mkdir(parents=True, exist_ok=True)
    preamble = generate_preamble().samples
    frames = plan_frames(seed, slots, slot_len, len(preamble))
    iq_path = directory / f"seed-{seed}.iq"
    truth_path = directory / f"seed-{seed}.json"
    tmp = iq_path.with_suffix(".iq.tmp")
    with open(tmp, "wb") as f:
        for block in synthesize(preamble, frames, seed, slots, slot_len):
            f.write(block.astype("<c8").tobytes())
    os.replace(tmp, iq_path)
    truth = {"seed": seed, "samples": slots * slot_len, "sample_rate": SAMPLE_RATE,
             "slot_len": slot_len,
             "max_delay": max(len(impulse_response(p)) - 1 for p in PROFILE_NAMES),
             "frames": frames}
    tmp = truth_path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(truth))
    os.replace(tmp, truth_path)
    return iq_path, truth_path


def write_reference(iq_path: Path, out_path: Path) -> None:
    """Batch ``detect_frames`` events of the capture, as [start, end, peak] rows."""
    from ofdmsync import detect_frames, read_iq

    events = detect_frames(read_iq(iq_path))
    rows = [[e.start_index, e.end_index, e.peak_metric] for e in events]
    tmp = out_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(rows))
    os.replace(tmp, out_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True, help="capture cache directory")
    parser.add_argument("--reference", type=Path, default=None, metavar="OUT",
                        help="write batch detect_frames events of the existing capture to OUT")
    args = parser.parse_args(argv)
    if args.reference is not None:
        write_reference(args.dir / f"seed-{args.seed}.iq", args.reference)
    else:
        write_capture(args.dir, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
