"""Command-line front end for the synchronization pipeline.

Subcommands mirror the pipeline stages: ``preamble`` writes the training
waveform, ``channel`` impairs a signal, ``detect``/``timesync``/``cfo`` run
one receiver stage and print a one-line verdict, ``trials`` runs the Monte
Carlo evaluation. Exit codes: 0 success, 1 ran-but-nothing-detected, 2
usage/config error, 3 I/O error.

All randomness flows from ``--seed``; when the flag is absent a fixed
default of 0 is used (never wall-clock entropy), so repeated invocations
are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cfo import correct_cfo, estimate_cfo, plateau_from_event
from .channel import ChannelConfig, resolve_taps, transmit
from .core import DEFAULT_SAMPLE_RATE, SampleBuffer
from .errors import ConfigError, EstimationError, IqFormatError, OfdmSyncError, SizingError
from .frame_detect import (FrameDetectConfig, autocorrelation, compute_metrics,
                           detect_frames)
from .harness import emit_report, load_plan, preamble_train, run_trials
from .iqfile import read_iq, write_csv, write_iq
from .preamble import PreambleSpec, generate_preamble
from .time_sync import (TimeSyncConfig, cross_correlate, default_expected_peak,
                        default_search_window, estimate_timing, training_template)

DEFAULT_SEED = 0
# Sample rates a file may be read at. Outside this range the 1/rate and
# f*n/rate terms of the CFO rotations overflow float64.
MIN_SAMPLE_RATE = 1.0
MAX_SAMPLE_RATE = 1e15

EXIT_OK = 0
EXIT_NOT_DETECTED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# Looked up along the exception's MRO; OfdmSyncError catches future subclasses.
_EXIT_CODES = {
    ConfigError: EXIT_CONFIG, SizingError: EXIT_CONFIG, OfdmSyncError: EXIT_CONFIG,
    IqFormatError: EXIT_IO, OSError: EXIT_IO,
    EstimationError: EXIT_NOT_DETECTED,
}


def _parse_snr(text: str) -> float | None:
    if text.lower() in ("none", "noiseless"):
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'none', got {text!r}")


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _sample_rate(text: str) -> float:
    """argparse type: a sample rate in [MIN_SAMPLE_RATE, MAX_SAMPLE_RATE] Hz."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not MIN_SAMPLE_RATE <= value <= MAX_SAMPLE_RATE:
        raise argparse.ArgumentTypeError(
            f"must lie in [{MIN_SAMPLE_RATE:g}, {MAX_SAMPLE_RATE:g}] Hz, got {value}")
    return value


def _parse_window(text: str) -> tuple[int, int]:
    try:
        start, length = text.split(":")
        return int(start), int(length)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected START:LEN, got {text!r}")


def _add_channel_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="RNG seed (default %(default)s, fixed, not entropy)")
    sub.add_argument("--snr-db", type=_parse_snr, default=None, metavar="DB|none",
                     help="channel SNR in dB, or 'none' for noiseless (default)")
    sub.add_argument("--cfo-hz", type=float, default=0.0,
                     help="carrier frequency offset in Hz (default %(default)s)")
    sub.add_argument("--taps", default=None, metavar="FILE|NAME",
                     help="tap profile file, or built-in name (etsi_a, etsi_c)")
    sub.add_argument("--timing-offset", type=int, default=0, metavar="N",
                     help="lead samples before the frame (default %(default)s)")


def _add_input_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--in", dest="infile", default=None, metavar="FILE",
                     help="read IQ samples from FILE instead of generating a frame")
    sub.add_argument("--sample-rate", type=_sample_rate, default=DEFAULT_SAMPLE_RATE,
                     help="sample rate in Hz for file input (default %(default)s)")
    sub.add_argument("--gap-len", type=_at_least(0), default=400, metavar="N",
                     help="idle samples after each generated frame (default %(default)s)")
    _add_channel_args(sub)


def _channel_config(args) -> ChannelConfig:
    taps = ((0, 1 + 0j),) if args.taps is None else resolve_taps(args.taps)
    return ChannelConfig(cfo_hz=args.cfo_hz, snr_db=args.snr_db, taps=taps,
                         timing_offset=args.timing_offset, seed=args.seed)


def _input_buffer(args) -> SampleBuffer:
    if args.infile:
        return read_iq(args.infile, args.sample_rate)
    pre = generate_preamble(PreambleSpec())
    return transmit(pre, _channel_config(args), tail_len=args.gap_len)


def _write_output(buf: SampleBuffer, path, fmt: str) -> None:
    (write_csv if fmt == "csv" else write_iq)(buf, path)


def cmd_preamble(args) -> int:
    buf = generate_preamble(PreambleSpec())
    _write_output(buf, args.out, args.format)
    print(f"wrote {len(buf)} samples to {args.out} ({args.format}), "
          f"average power {buf.average_power:.9f}, duration {buf.duration * 1e6:.1f} us")
    return EXIT_OK


def cmd_channel(args) -> int:
    source = (read_iq(args.infile, args.sample_rate) if args.infile
              else generate_preamble(PreambleSpec()))
    out = transmit(source, _channel_config(args), tail_len=args.gap_len)
    _write_output(out, args.out, args.format)
    snr = "noiseless" if args.snr_db is None else f"{args.snr_db} dB"
    print(f"wrote {len(out)} impaired samples to {args.out} "
          f"(snr {snr}, cfo {args.cfo_hz} Hz, offset {args.timing_offset})")
    return EXIT_OK


def cmd_detect(args) -> int:
    if args.infile:
        buf = _input_buffer(args)
    else:
        pre = generate_preamble(PreambleSpec())
        frame = (pre if args.frames == 1 else
                 preamble_train(pre, args.frames, args.gap_len))
        buf = transmit(frame, _channel_config(args), tail_len=args.gap_len)
    cfg = FrameDetectConfig(lag=args.lag, threshold=args.threshold,
                            min_plateau=args.min_plateau, metric_mode=args.metric_mode)
    events = detect_frames(buf, cfg)
    if args.trace:
        _write_detect_trace(buf, cfg, args.trace)
    for event in events:
        length = event.end_index - event.start_index + 1
        print(f"frame: samples [{event.start_index}, {event.end_index}] "
              f"plateau {length}, peak metric {event.peak_metric:.6f}")
    if not events:
        print("no frame detected")
        return EXIT_NOT_DETECTED
    return EXIT_OK


def _write_detect_trace(buf, cfg, path) -> None:
    R, P, M = compute_metrics(buf, cfg)
    lines = ["n,r_abs2,p_squared,metric,above_threshold"]
    for n in range(len(M)):
        r2 = float(R[n].real ** 2 + R[n].imag ** 2)
        lines.append(f"{n},{r2!r},{float(P[n] ** 2)!r},{float(M[n])!r},"
                     f"{int(M[n] > cfg.threshold)}")
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_timesync(args) -> int:
    buf = _input_buffer(args)
    spec = PreambleSpec()
    window = args.window
    if window is not None:
        window = (window[0] + args.timing_offset, window[1]) if args.shift_window else window
    elif args.timing_offset and not args.infile:
        start, length = default_search_window(spec, args.template)
        window = (start + args.timing_offset, length)
    cfg = TimeSyncConfig(template=args.template, search_window=window)
    est = estimate_timing(buf, cfg, spec)
    error = ""
    if not args.infile:
        # generated input: the true delay is known, so report the error too
        truth = default_expected_peak(spec, args.template) + args.timing_offset
        error = f", error {est.n_xc_max - truth:+d}"
    if args.trace:
        mag = cross_correlate(buf, training_template(spec, args.template))
        lines = ["n,lambda_abs"] + [f"{n},{float(v)!r}" for n, v in enumerate(mag)]
        Path(args.trace).write_text("\n".join(lines) + "\n")
    print(f"timing: n_xc_max {est.n_xc_max}, peak magnitude {est.peak_magnitude:.6f} "
          f"({args.template} template{error})")
    return EXIT_OK


def cmd_cfo(args) -> int:
    buf = _input_buffer(args)
    events = detect_frames(buf, FrameDetectConfig(lag=args.lag))
    if args.trace:
        R = autocorrelation(buf, args.lag, args.lag)
        lines = ["n,r_abs,r_phase"]
        lines += [f"{n},{float(abs(v))!r},{float(np.angle(v))!r}" for n, v in enumerate(R)]
        Path(args.trace).write_text("\n".join(lines) + "\n")
    if not events:
        print("no frame detected; cannot estimate the offset")
        return EXIT_NOT_DETECTED
    span = plateau_from_event(events[0], args.lag)
    est = estimate_cfo(buf, args.lag, span)
    print(f"cfo: {est.delta_f_hz:.3f} Hz (phase {est.phase_rad:.6f} rad over "
          f"plateau [{est.plateau_span[0]}, {est.plateau_span[1]}))")
    if args.out:
        corrected = correct_cfo(buf, est.delta_f_hz)
        _write_output(corrected, args.out, args.format)
        print(f"wrote {len(corrected)} corrected samples to {args.out}")
    return EXIT_OK


def cmd_trials(args) -> int:
    plan = load_plan(args.config)
    results = run_trials(plan)
    paths = emit_report(results, args.out, plan)
    for stage, stats in results.items():
        n = len(stats.values) + stats.failures
        print(f"{stage}: trials {n}, sigma2 {stats.variance}, failures {stats.failures}")
    print(f"report written to {args.out} ({len(paths)} files)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdmsync",
        description="Preamble-based OFDM synchronization laboratory")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preamble", help="generate the 320-sample training preamble")
    p.add_argument("--out", default="preamble.iq", help="output file (default %(default)s)")
    p.add_argument("--format", choices=("iq", "csv"), default="iq")
    p.set_defaults(func=cmd_preamble)

    p = sub.add_parser("channel", help="impair a frame (or an IQ file) through the channel")
    _add_input_args(p)
    p.add_argument("--out", default="channel.iq", help="output file (default %(default)s)")
    p.add_argument("--format", choices=("iq", "csv"), default="iq")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("detect", help="run frame detection")
    _add_input_args(p)
    p.add_argument("--frames", type=_at_least(1), default=1,
                   help="number of repeated frames when generating input (default 1)")
    p.add_argument("--lag", type=int, default=16, help="autocorrelation lag (default 16)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="detection threshold (default 0.5)")
    p.add_argument("--min-plateau", type=int, default=32,
                   help="required above-threshold run length (default 32)")
    p.add_argument("--metric-mode", choices=("exact", "l1_approx"), default="exact")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write per-sample metric trace CSV")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("timesync", help="estimate symbol timing by cross-correlation")
    _add_input_args(p)
    p.add_argument("--template", choices=("sts", "lts"), default="lts")
    p.add_argument("--window", type=_parse_window, default=None, metavar="START:LEN",
                   help="argmax search window over alignment indices")
    p.add_argument("--shift-window", action="store_true",
                   help="shift an explicit --window by --timing-offset")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write |correlation| trace CSV")
    p.set_defaults(func=cmd_timesync)

    p = sub.add_parser("cfo", help="estimate (and optionally correct) the frequency offset")
    _add_input_args(p)
    p.add_argument("--lag", type=int, default=16, help="autocorrelation lag (default 16)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the offset-corrected samples here")
    p.add_argument("--format", choices=("iq", "csv"), default="iq")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write autocorrelation magnitude/phase trace CSV")
    p.set_defaults(func=cmd_cfo)

    p = sub.add_parser("trials", help="run a Monte Carlo trial plan and write CSV reports")
    p.add_argument("--config", required=True, help="plan file (key = value lines)")
    p.add_argument("--out", default="report", help="output directory (default %(default)s)")
    p.set_defaults(func=cmd_trials)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OfdmSyncError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
