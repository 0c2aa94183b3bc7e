"""Reference kernels that track how fast the host runs right now.

The machines this benchmark runs on share their cores, and their speed
drifts by tens of percent over minutes (clock boost and neighbours on the
same core). A fixed kernel timed next to each operation moves with that
drift, so ``raw time * REF_NS / kernel time`` is much steadier than the raw
time. The reported end-to-end times are normalised that way. Their unit is
seconds of a host that runs the kernel in ``REF_NS``, which is the
kernel's median time on a 2-vCPU Xeon sandbox. Raw figures are printed next
to them.

Each workload is normalised by the kernel that resembles its own work; a
kernel of another kind tracks it much worse. ``trial`` makes the small
numpy calls of one Monte Carlo trial (convolution, rotation, Gaussian
draws, correlation, sliding sum, 64-point FFT). ``interp`` runs interpreter
bytecode and tiny numpy calls, like the streaming detector. ``memory``
streams a 4 MB array through numpy, like whole-capture detection.
``startup`` starts an interpreter that imports numpy, like the start of a
workload process.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

def _interp():
    small = np.exp(1j * np.arange(64.0))

    def kernel() -> None:
        total = 0
        for i in range(8000):
            total += i & 7
        for _ in range(100):
            np.cumsum(small * small.conj())
    return kernel


def _trial():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(770) + 1j * rng.standard_normal(770)
    template = x[:64].copy()
    taps = np.full(22, 1 / 22)
    n = np.arange(341)

    def kernel() -> None:
        for _ in range(8):
            y = np.convolve(x[:320], taps) * np.exp(2e-3j * np.pi * n)
            draw = np.random.default_rng(7)
            y = y + draw.standard_normal(341) + 1j * draw.standard_normal(341)
            np.abs(np.correlate(x, template, mode="valid"))
            acc = np.cumsum(x[:-16] * np.conj(x[16:]))
            acc[16:] - acc[:-16]
            np.fft.ifft(template)
    return kernel


def _memory():
    large = np.exp(1j * np.arange(float(1 << 18)))  # 4 MB

    def kernel() -> None:
        np.cumsum(large * large.conj())
    return kernel


def _startup():
    command = [sys.executable, "-c", "import numpy"]

    def kernel() -> None:
        subprocess.run(command, check=True)
    return kernel


# kind -> (kernel factory, median kernel time on the reference host in ns)
KERNELS = {"interp": (_interp, 1_000_000), "trial": (_trial, 1_250_000),
           "memory": (_memory, 6_000_000), "startup": (_startup, 150_000_000)}


class HostSpeed:
    """Times one reference kernel; ``scale`` turns raw times into reference-host times."""

    def __init__(self, kind: str):
        make, self.ref_ns = KERNELS[kind]
        self.kernel = make()
        self.kernel()  # first call pays for page faults and caches

    def sample(self) -> int:
        start = time.perf_counter_ns()
        self.kernel()
        return time.perf_counter_ns() - start

    def scale(self, before_ns: int, after_ns: int) -> float:
        """Factor for a time measured between two kernel samples."""
        return 2 * self.ref_ns / (before_ns + after_ns)
