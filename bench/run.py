"""ofdmsync benchmark: Monte Carlo trials, batch capture detection, streaming detection.

Usage (from the repository root)::

    python3 bench/run.py --workload mc_four_stage --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --trace 1          # every workload, every metric

Each workload runs in fresh single-threaded child processes
(``workloads.py``): seven children that stop after set-up give the set-up
time samples, one untraced run gives the other end-to-end metrics, and with
``--trace 1`` a traced run gives the per-layer metrics. End-to-end times are
normalised by a host-speed kernel (``hostspeed.py``). The result is
printed as a table with units and sample counts, followed by one JSON line
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1 when
a correctness check fails and 2 when the benchmark cannot run.

Inputs are made from ``--seed``. Captures and their ground truth are cached
by seed in ``.bench_cache/`` and read once, untimed, before timing, so the
capture figures are warm-cache (the page cache is not dropped).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_RUNS = 7  # children that stop after set-up, giving the set-up samples
KEEP_CAPTURES = 3  # most recently used seeds kept in the capture cache
CHILD_GRACE_S = 120  # allowed beyond --seconds before a child is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed correctness check)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine() -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "threads": "1 (" + ", ".join(f"{var}=1" for var in THREAD_VARS) + ")",
        "commit": git_commit(),
    }


def src_digest() -> str:
    """Hash of the ofdmsync sources, keying cached batch reference events."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_helper(args: list[str], timeout: float = 600) -> None:
    proc = subprocess.run([sys.executable, str(BENCH / "capture.py"), *args],
                          env=child_env(), stdout=subprocess.DEVNULL, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"capture.py {' '.join(args)} exited {proc.returncode}")


def evict_captures(directory: Path, keep_seed: int) -> None:
    """Delete the files of all but the KEEP_CAPTURES most recently used seeds."""
    recent = sorted(directory.glob("seed-*.iq"), key=lambda p: p.stat().st_mtime, reverse=True)
    others = [p.stem.split("-", 1)[1] for p in recent if p.stem != f"seed-{keep_seed}"]
    for seed in others[KEEP_CAPTURES - 1:]:
        for stale in directory.glob(f"seed-{seed}.*"):
            stale.unlink()


def prepare_capture(seed: int) -> dict[str, Path]:
    """Generate (or reuse) the seed's capture, truth and batch reference; warm the cache."""
    directory = CACHE / "captures"
    iq = directory / f"seed-{seed}.iq"
    truth = directory / f"seed-{seed}.json"
    if not (iq.is_file() and truth.is_file()):
        run_helper(["--seed", str(seed), "--dir", str(directory)])
    reference = directory / f"seed-{seed}.ref-{src_digest()}.json"
    if not reference.is_file():
        run_helper(["--seed", str(seed), "--dir", str(directory), "--reference", str(reference)])
    os.utime(iq)
    evict_captures(directory, seed)
    with open(iq, "rb") as f:  # warm the page cache, untimed
        while f.read(1 << 23):
            pass
    return {"capture": iq, "truth": truth, "reference": reference}


def write_plan(seed: int, path: Path) -> None:
    lines = [f"{key} = {value}" for key, value in workloads.PLAN.items()]
    lines.append(f"base_seed = {seed}")
    path.write_text("\n".join(lines) + "\n")


def spawn(workload: str, seed: int, seconds: float, inputs: dict[str, Path], work: Path,
          setup_only: bool = False, trace: Path | None = None) -> tuple[float, dict | None]:
    """Start one child; returns (seconds from start to 'ready', result or None)."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--src", str(SRC),
           "--work", str(work)]
    for name, path in inputs.items():
        cmd += [f"--{name}", str(path)]
    if setup_only:
        cmd.append("--setup-only")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(seconds + CHILD_GRACE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode} (output {ready!r})")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} child printed no result")
    return setup_s, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload's children and assemble metrics, checks and counts."""
    work = CACHE / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if workload == "mc_four_stage":
            inputs = {"plan": work / "plan.cfg"}
            write_plan(seed, inputs["plan"])
        else:
            inputs = prepare_capture(seed)
        speed = hostspeed.HostSpeed("startup")
        setups = []
        before = speed.sample()
        for _ in range(SETUP_RUNS):
            setup_s = spawn(workload, seed, seconds, inputs, work, setup_only=True)[0]
            after = speed.sample()
            setups.append((setup_s, speed.scale(before, after)))
            before = after
        plain = spawn(workload, seed, seconds, inputs, work)[1]
        traced = None
        if trace:
            spans_path = CACHE / "spans" / f"{workload}.jsonl"  # the latest traced run
            traced = spawn(workload, seed, seconds, inputs, work, trace=spans_path)[1]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return assemble(workload, setups, plain, traced)


def assemble(workload: str, setups: list[tuple[float, float]], plain: dict,
             traced: dict | None) -> dict:
    """Metrics, checks and counts of one workload.

    ``setups`` holds (raw set-up time, host-speed scale) pairs. End-to-end
    times are normalised to the reference host (see hostspeed.py); the
    ``*_raw`` rows are as measured.
    """
    runs = [plain] + ([traced] if traced else [])
    problems = [p for run in runs for p in run["problems"]]
    if traced and traced["digest"] != plain["digest"]:
        problems.append("traced and untraced outputs differ")
    rates = plain["rates"]
    rows = {  # name -> (value, unit, samples)
        "setup_s": (statistics.median(t * k for t, k in setups), "s", len(setups)),
        "msamples_per_s": (statistics.median(rates), "Msamples/s", len(rates)),
        "op_latency_ms_p50": (plain["op_ms_p50"], "ms", plain["ops"]),
        "peak_rss_mb": (plain["peak_rss_mb"], "MB", 1),
    }
    end_to_end = dict(rows)
    rows["setup_s_raw"] = (statistics.median(t for t, _ in setups), "s", len(setups))
    rows["msamples_per_s_raw"] = (statistics.median(plain["rates_raw"]), "Msamples/s", len(rates))
    rows["op_latency_ms_p50_raw"] = (plain["op_ms_p50_raw"], "ms", plain["ops"])
    rows["host_scale"] = (plain["host_scale"], "ratio", len(rates))
    for name, (value, unit, count) in plain["extra"].items():
        rows.setdefault(name, (value, unit, count))
    per_layer = {}
    if traced:
        per_layer.update(traced["layers"])
        per_layer["trace_overhead_frac"] = traced["op_ms_p50"] / plain["op_ms_p50"] - 1
        extra = plain["extra"]
        per_layer["fail_frac"] = extra["fail_frac"][0]
        per_layer["batch_mismatch_frac"] = extra.get("batch_mismatch_frac", [0.0])[0]
        units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())["per_layer"]}
        for name, value in per_layer.items():
            count = traced["layer_samples"].get(name, round(traced["units"], 3))
            rows.setdefault(name, (value, units[name], count))
    return {
        "workload": workload, "problems": problems, "rows": rows,
        "end_to_end": {k: v[0] for k, v in end_to_end.items()}, "per_layer": per_layer,
        "attempted": sum(run["ops"] for run in runs), "failed": sum(run["failed"] for run in runs),
        "numpy": plain["numpy"],
    }


def print_report(result: dict) -> None:
    for name, (value, unit, count) in result["rows"].items():
        print(f"{result['workload']:<15} {name:<42} {value:>14.6g} {unit:<11} n={count}")
    for problem in result["problems"]:
        print(f"{result['workload']:<15} CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ofdmsync" / "__init__.py").is_file():
        print(f"error: no ofdmsync sources under {SRC}", file=sys.stderr)
        return 2

    header = machine()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header.update(numpy=results[0]["numpy"], seed=args.seed, seconds=args.seconds,
                  trace=args.trace, cache="warm (captures read once before timing)")
    print("# ofdmsync benchmark")
    for key, value in header.items():
        print(f"#   {key}: {value}")
    for result in results:
        print_report(result)
    key = "per_layer" if args.trace else "end_to_end"
    spec = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[key]}
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for name, unit in spec.items():
            value = result[key][name]
            metrics[prefix + name] = {"value": value, "unit": unit}
    correct = not any(result["problems"] for result in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
