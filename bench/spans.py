"""In-memory spans around calls into ofdmsync, recorded from the benchmark side.

A :class:`Tracer` replaces a module attribute that a caller looks up (for
example ``ofdmsync.harness.transmit``) with a wrapper that records one span
per call: label, start and end (``perf_counter_ns``), the enclosing span,
and a context id (the trial, pass or chunk the call belongs to). Nothing in
``ofdmsync`` is edited. An attribute that does not exist is skipped, so a
refactor that removes a name reads as ``calls = 0`` instead of crashing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path, layer label). Each entry is a name some caller
# looks up at call time; several entries may share a label. The benchmark
# itself calls run_trials, emit_report, cli.main and StreamingFrameDetector
# through these attributes.
TARGETS = (
    ("ofdmsync.harness", "run_trials", "harness.run_trials"),
    ("ofdmsync.harness", "emit_report", "harness.emit_report"),
    ("ofdmsync.harness", "generate_preamble", "preamble.generate_preamble"),
    ("ofdmsync.time_sync", "generate_preamble", "preamble.generate_preamble"),
    ("ofdmsync.cli", "generate_preamble", "preamble.generate_preamble"),
    ("ofdmsync.harness", "transmit", "channel.transmit"),
    ("ofdmsync.cli", "transmit", "channel.transmit"),
    ("ofdmsync.harness", "estimate_timing", "time_sync.estimate_timing"),
    ("ofdmsync.cli", "estimate_timing", "time_sync.estimate_timing"),
    ("ofdmsync.harness", "detect_frames", "frame_detect.detect_frames"),
    ("ofdmsync.cli", "detect_frames", "frame_detect.detect_frames"),
    ("ofdmsync.frame_detect", "StreamingFrameDetector.process", "frame_detect.stream_process"),
    ("ofdmsync.harness", "estimate_cfo", "cfo.estimate_cfo"),
    ("ofdmsync.cli", "estimate_cfo", "cfo.estimate_cfo"),
    ("ofdmsync.cli", "read_iq", "iqfile.read_iq"),
    ("ofdmsync.cli", "main", "cli.main"),
)

# Samples passed through the SampleBuffer constructor, which checks every
# one for finiteness. Counted, not spanned: it runs several times per trial.
VALIDATED = ("ofdmsync.core", "SampleBuffer.__init__", "core.SampleBuffer.samples_validated")


def _resolve(module: str, path: str):
    """(owner, attribute name) for ``module`` + dotted ``path``, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if callable(getattr(owner, attr, None)) else None


class Tracer:
    """Span recorder for one single-threaded process.

    ``ctx_label`` names the span that starts a new context: each call with
    that label increments :attr:`ctx`, and every span records the context
    current when it starts.
    """

    def __init__(self, ctx_label: str | None = None):
        self.ctx_label = ctx_label
        self.ctx = -1
        self.labels: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ctxs: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, label: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.labels)
            if label == self.ctx_label:
                self.ctx += 1
            self.labels.append(label)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ctxs.append(self.ctx)
            self.starts.append(0)
            self.ends.append(0)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.starts[index] = start
                self.ends[index] = end
        return traced

    def _count_samples(self, label: str, init):
        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.counters[label] += len(obj)
        return counted

    def install(self, targets=TARGETS, validated=VALIDATED) -> list[str]:
        """Patch every target that exists; returns the names that were skipped."""
        wanted = [(module, path, self.wrap, label) for module, path, label in targets]
        if validated is not None:
            module, path, label = validated
            wanted.append((module, path, self._count_samples, label))
        skipped = []
        for module, path, make, label in wanted:
            found = _resolve(module, path)
            if found is None:
                skipped.append(f"{module}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, make(label, original))
        return skipped

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children (ns).

        Spans nest strictly in a single thread, so the children of a span
        cover disjoint parts of it and their durations simply add.
        """
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def summary(self) -> dict[str, dict]:
        """Per label: calls, busy_ns (sum of durations), self_ns and the durations."""
        out: dict[str, dict] = {}
        for label, start, end, own in zip(self.labels, self.starts, self.ends, self.self_times()):
            entry = out.setdefault(label, {"calls": 0, "busy_ns": 0, "self_ns": 0, "durations": []})
            entry["calls"] += 1
            entry["busy_ns"] += end - start
            entry["self_ns"] += own
            entry["durations"].append(end - start)
        return out

    def write(self, path: Path) -> None:
        """Write spans as JSON lines: label, start_ns, end_ns, parent, ctx."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for row in zip(self.labels, self.starts, self.ends, self.parents, self.ctxs):
                f.write(json.dumps(row) + "\n")
