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
import contextlib
import os
import sys

import numpy as np

from . import __version__
from .cfo import angles, correct_cfo, estimate_cfo, plateau_from_event
from .channel import UNIT_TAP, ChannelConfig, parse_snr, resolve_taps, transmit
from .core import DEFAULT_SAMPLE_RATE, MAX_GENERATED_SAMPLES, SampleBuffer
from .errors import ConfigError, EstimationError, IqFormatError, OfdmSyncError
from .frame_detect import (METRIC_MODES, FrameDetectConfig, autocorrelation, detect_blocks,
                           detect_frames)
from .harness import TrialPlan, emit_report, load_plan, preamble_train, run_trials
from .iqfile import iq_blocks, read_iq, write_csv, write_iq, write_rows, write_table
from .preamble import generate_preamble
from .time_sync import (TEMPLATES, TimeSyncConfig, cross_correlate, default_expected_peak,
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

# Looked up along the exception's MRO, so OfdmSyncError covers ConfigError,
# SizingError and any future subclass.
_EXIT_CODES = {
    OfdmSyncError: EXIT_CONFIG, IqFormatError: EXIT_IO, OSError: EXIT_IO,
    EstimationError: EXIT_NOT_DETECTED,
}


def _parse_snr(text: str) -> float | None:
    try:
        return parse_snr(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'none', got {text!r}")


def _in_range(parse=int, low=0, high=MAX_GENERATED_SAMPLES, unit=""):
    """argparse type: ``parse(text)``, int or float, in [low, high] ``unit``; by default a size."""
    kind, spec = ("a number", "g") if parse is float else ("an integer", "d")

    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"must lie in [{low:{spec}}, {high:{spec}}]{unit}, got {value}")
        return value
    return check


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got an empty one")
    return text


def _parse_window(text: str) -> tuple[int, int]:
    try:
        start, length = text.split(":")
        return int(start), int(length)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected START:LEN, got {text!r}")


class _GeneratorFlag(argparse.Action):
    """Store the value and note the flag: it sets up the generated input that
    ``--in`` replaces, so :func:`main` rejects it next to ``--in``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.generator_flags = (*namespace.generator_flags, self.option_strings[0])


def _add_input_args(sub: argparse.ArgumentParser, *, with_rate: bool,
                    read_with_in: tuple[str, ...] = (), snr_note: str = "") -> None:
    """``--in`` and the flags of the generated input, of which those named in
    ``read_with_in`` also act on a file's samples; ``snr_note`` ends the
    ``--snr-db`` help."""
    sub.set_defaults(generator_flags=())

    def add(flag, **kwargs):
        action = "store" if flag in read_with_in else _GeneratorFlag
        sub.add_argument(flag, action=action, **kwargs)

    sub.add_argument("--in", dest="infile", type=_path, default=None, metavar="FILE",
                     help="read IQ samples from FILE instead of generating a frame")
    if with_rate:  # only the commands whose output depends on the rate take it
        sub.add_argument("--sample-rate", default=None,
                         type=_in_range(float, MIN_SAMPLE_RATE, MAX_SAMPLE_RATE, " Hz"),
                         help=f"sample rate in Hz of the --in file (default {DEFAULT_SAMPLE_RATE})")
    add("--gap-len", type=_in_range(), default=TrialPlan.gap_len, metavar="N",
        help="idle samples after each generated frame (default %(default)s)")
    add("--seed", type=int, default=DEFAULT_SEED,
        help="RNG seed (default %(default)s, fixed, not entropy)")
    add("--snr-db", type=_parse_snr, default=ChannelConfig.snr_db, metavar="DB|none",
        help="channel SNR in dB, or 'none' for noiseless (default)" + snr_note)
    add("--cfo-hz", type=float, default=ChannelConfig.cfo_hz,
        help="carrier frequency offset in Hz (default %(default)s)")
    add("--taps", default=None, metavar="FILE|NAME",
        help="tap profile file, or built-in name (etsi_a, etsi_c)")
    add("--timing-offset", type=_in_range(), default=ChannelConfig.timing_offset, metavar="N",
        help="lead samples before the frame (default %(default)s)")


def _channel_config(args) -> ChannelConfig:
    taps = UNIT_TAP if args.taps is None else resolve_taps(args.taps)
    return ChannelConfig(cfo_hz=args.cfo_hz, snr_db=args.snr_db, taps=taps,
                         timing_offset=args.timing_offset)


def _transmitted(args, frame: SampleBuffer | None = None) -> SampleBuffer:
    """``frame``, or the preamble, through the channel, gap and seed that the flags set."""
    frame = generate_preamble() if frame is None else frame
    return transmit(frame, _channel_config(args), tail_len=args.gap_len, seed=args.seed)


def _input_buffer(args, sample_rate: float) -> SampleBuffer:
    return read_iq(args.infile, sample_rate) if args.infile else _transmitted(args)


def _write_output(buf: SampleBuffer, path, fmt: str) -> None:
    (write_csv if fmt == "csv" else write_iq)(buf, path)


def cmd_preamble(args) -> int:
    buf = generate_preamble()
    _write_output(buf, args.out, args.format)
    print(f"wrote {len(buf)} samples to {args.out} ({args.format}), "
          f"average power {buf.average_power:.9f}, duration {buf.duration * 1e6:.1f} us")
    return EXIT_OK


def cmd_channel(args) -> int:
    source = read_iq(args.infile, args.sample_rate or DEFAULT_SAMPLE_RATE) if args.infile else None
    out = _transmitted(args, source)
    _write_output(out, args.out, args.format)
    snr = "noiseless" if args.snr_db is None else f"{args.snr_db} dB"
    print(f"wrote {len(out)} impaired samples to {args.out} "
          f"(snr {snr}, cfo {args.cfo_hz} Hz, offset {args.timing_offset})")
    return EXIT_OK


def cmd_detect(args) -> int:
    # the trace file is opened for writing before the samples are read
    if (args.infile and args.trace and os.path.exists(args.trace)
            and os.path.samefile(args.infile, args.trace)):
        raise ConfigError(f"--trace {args.trace} names the --in file; writing the trace "
                          f"would overwrite the samples before they are read")
    cfg = FrameDetectConfig(lag=args.lag, threshold=args.threshold,
                            min_plateau=args.min_plateau, metric_mode=args.metric_mode)
    if args.infile:
        blocks = iq_blocks(args.infile)
    else:
        train = (None if args.frames == 1
                 else preamble_train(generate_preamble(), args.frames, args.gap_len))
        blocks = [_transmitted(args, train).samples]
    # streamed in bounded memory; an error in any block leaves no events to print
    with open(args.trace, "w") if args.trace else contextlib.nullcontext() as f:
        trace = None
        if f is not None:
            name = "r_abs2" if cfg.metric_mode == "exact" else "r_l1"
            f.write(f"n,{name},p_squared,metric,above_threshold\n")

            def trace(n, numerator, p_squared, metric):
                write_rows(f, (np.arange(n, n + len(metric)), numerator, p_squared, metric,
                               metric > cfg.threshold))
        events = detect_blocks(blocks, cfg, trace)
    for event in events:
        length = event.end_index - event.start_index + 1
        print(f"frame: samples [{event.start_index}, {event.end_index}] "
              f"plateau {length}, peak metric {event.peak_metric:.6f}")
    if not events:
        print("no frame detected")
        return EXIT_NOT_DETECTED
    return EXIT_OK


def cmd_timesync(args) -> int:
    buf = _input_buffer(args, DEFAULT_SAMPLE_RATE)
    window = args.window or default_search_window(args.template, args.timing_offset)
    cfg = TimeSyncConfig(template=args.template, search_window=window)
    est = estimate_timing(buf, cfg)
    error = ""
    if not args.infile:
        # generated input: the true delay is known, so report the error too
        truth = default_expected_peak(args.template) + args.timing_offset
        error = f", error {est.n_xc_max - truth:+d}"
    if args.trace:
        mag = cross_correlate(buf, training_template(args.template))
        write_table(args.trace, "n,lambda_abs", (np.arange(len(mag)), mag))
    print(f"timing: n_xc_max {est.n_xc_max}, peak magnitude {est.peak_magnitude:.6f} "
          f"({args.template} template{error})")
    return EXIT_OK


def cmd_cfo(args) -> int:
    if args.format is not None and not args.out:
        raise ConfigError("--format sets the format of the file that --out writes; "
                          "without --out it has no effect")
    buf = _input_buffer(args, args.sample_rate or DEFAULT_SAMPLE_RATE)
    events = detect_frames(buf, FrameDetectConfig(lag=args.lag))
    if args.trace:
        R = (autocorrelation(buf, args.lag, args.lag) if len(buf) >= 2 * args.lag
             else np.zeros(0, complex))
        # hypot, not np.abs: the array abs may differ from it in the last bit
        write_table(args.trace, "n,r_abs,r_phase",
                    (np.arange(len(R)), np.hypot(R.real, R.imag), angles(R)))
    if not events:
        print("no frame detected; cannot estimate the offset")
        return EXIT_NOT_DETECTED
    span = plateau_from_event(events[0], args.lag)
    est = estimate_cfo(buf, args.lag, span)
    print(f"cfo: {est.delta_f_hz:.3f} Hz (phase {est.phase_rad:.6f} rad over "
          f"plateau [{est.plateau_span[0]}, {est.plateau_span[1]}))")
    if args.out:
        corrected = correct_cfo(buf, est.delta_f_hz)
        _write_output(corrected, args.out, args.format or "iq")
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
    _add_input_args(p, with_rate=True, read_with_in=(
        "--gap-len", "--seed", "--snr-db", "--cfo-hz", "--taps", "--timing-offset"))
    p.add_argument("--out", default="channel.iq", help="output file (default %(default)s)")
    p.add_argument("--format", choices=("iq", "csv"), default="iq")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("detect", help="run frame detection")
    _add_input_args(p, with_rate=False, snr_note=(
        "; with --frames N above 1, against the whole train's average power, gaps included, "
        "so each frame sees 10*log10((320 + --gap-len) / 320) dB more (13.52 dB for 10 dB and the "
        "default gap)"))
    p.add_argument("--frames", action=_GeneratorFlag, type=_in_range(low=1), default=1,
                   help="number of repeated frames when generating input (default %(default)s)")
    p.add_argument("--lag", type=int, default=FrameDetectConfig.lag,
                   help="autocorrelation lag (default %(default)s)")
    p.add_argument("--threshold", type=float, default=FrameDetectConfig.threshold,
                   help="detection threshold (default %(default)s)")
    p.add_argument("--min-plateau", type=int, default=FrameDetectConfig.min_plateau,
                   help="required above-threshold run length (default %(default)s)")
    p.add_argument("--metric-mode", choices=METRIC_MODES, default=FrameDetectConfig.metric_mode)
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write per-sample metric trace CSV")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("timesync", help="estimate symbol timing by cross-correlation")
    _add_input_args(p, with_rate=False, read_with_in=("--timing-offset",))
    p.add_argument("--template", choices=TEMPLATES, default=TimeSyncConfig.template)
    p.add_argument("--window", type=_parse_window, default=None, metavar="START:LEN",
                   help="argmax search window over alignment indices of the buffer "
                   "(default: around the landmark of a frame at --timing-offset)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write |correlation| trace CSV")
    p.set_defaults(func=cmd_timesync)

    p = sub.add_parser("cfo", help="estimate (and optionally correct) the frequency offset")
    _add_input_args(p, with_rate=True)
    p.add_argument("--lag", type=int, default=FrameDetectConfig.lag,
                   help="autocorrelation lag (default %(default)s)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the offset-corrected samples here")
    p.add_argument("--format", choices=("iq", "csv"), default=None,
                   help="format of the --out file (default iq)")
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
        if getattr(args, "infile", None) and args.generator_flags:
            flags = ", ".join(dict.fromkeys(args.generator_flags))
            raise ConfigError(f"--in reads the samples from a file; these flags set up "
                              f"generated samples and cannot be used with it: {flags}")
        if getattr(args, "sample_rate", None) is not None and not args.infile:
            raise ConfigError("--sample-rate gives the rate of the samples that --in reads; "
                              "without --in it has no effect")
        return args.func(args)
    except (OfdmSyncError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
