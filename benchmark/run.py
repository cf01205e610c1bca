"""The hyperfib benchmark: one workload, end to end or layer by layer.

    python3 benchmark/run.py --workload terms|windows|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` a fresh worker process runs the workload until its ops
add up to S seconds, and this process reports the end-to-end metrics plus
``setup_s``, the wall time of a fresh ``python -m hyperfib qmatrix --r 2``
(median of several).  With ``--trace 1`` one worker runs untraced for S/2 seconds and
a second one repeats the same ops with every layer traced; the per-layer
metrics are per op, and their time difference is the tracing overhead.
Times are scaled by the core's measured slowdown (see ``calibrate``); the
provenance record keeps the unscaled end-to-end figures too.

Human-readable lines come first, then a provenance record; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every op is checked against ``oracle`` outside its timed
region; a failed op is one that raised, exited non-zero or gave a wrong
result, and ``error_rate`` is failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracle
import workloads
from calibrate import slowdown
from tracer import span_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 15
SETUP_COMMAND = ["-m", "hyperfib", "qmatrix", "--r", "2"]
SETUP_OUTPUT = "0 1 0 0\n0 0 1 0\n0 0 0 1\n1 -1 -2 3\n"
TAIL_BEYOND = 10   # samples the tail percentile must leave above it

END_TO_END = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.ms"] = "ms/op"
        units[f"{name}.self_ms"] = "ms/op"
    for suite in oracle.SUITES:
        units[f"verify.{suite}.ms"] = "ms/op"
        units[f"verify.{suite}.cases"] = "cases/op"
    units["cli.decimal_ms"] = "ms/op"
    units["trace.overhead_pct"] = "%"
    units["trace.ops"] = "count"
    return units


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def worker(workload: str, seed: int, timeout: float, *flags: str) -> dict:
    """Run one worker pass and return its record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_seconds() -> tuple[float, float]:
    """Median (scaled, raw) wall time of a fresh CLI process.

    The first process warms the bytecode cache and is not timed.
    """
    scaled, raw = [], []
    before = slowdown("setup")
    for i in range(SETUP_RUNS + 1):
        start = perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_COMMAND], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - start
        if proc.returncode != 0 or proc.stdout != SETUP_OUTPUT:
            raise BenchError(f"setup command failed: {proc.stderr.strip()[-400:]}")
        after = slowdown("setup")
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * 2 / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (count - TAIL_BEYOND) / count, ordered[count - TAIL_BEYOND - 1]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(args) -> tuple[dict, dict]:
    record = worker(args.workload, args.seed, 3 * args.seconds + 120,
                    "--seconds", str(args.seconds))
    latencies = record["latencies_s"]
    if not latencies:
        raise BenchError("no op completed")
    percentile, tail_s = tail(latencies)
    setup_s, raw_setup_s = setup_seconds()
    metrics = {
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": tail_s * 1000,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mib": record["peak_rss_mib"],
        "setup_s": setup_s,
    }
    raw = record["raw_latencies_s"]
    record["tail"] = {"percentile": round(percentile, 3), "samples": len(latencies)}
    record["unscaled"] = {
        "op_p50_ms": statistics.median(raw) * 1000,
        "op_tail_ms": tail(raw)[1] * 1000,
        "ops_per_s": len(raw) / sum(raw),
        "setup_s": raw_setup_s,
    }
    return record, metrics


def per_layer(args) -> tuple[dict, dict]:
    plain = worker(args.workload, args.seed, 3 * args.seconds + 120,
                   "--seconds", str(args.seconds / 2))
    ops = plain["attempted"]
    traced = worker(args.workload, args.seed, 6 * args.seconds + 120,
                    "--ops", str(ops), "--trace")
    if not (plain["latencies_s"] and traced["latencies_s"]):
        raise BenchError("no op completed")
    spans, suites = traced["spans"], traced["suites"]
    # layer times get the traced pass's overall slowdown, in ms per op
    ms = sum(traced["latencies_s"]) / sum(traced["raw_latencies_s"]) * 1000 / ops
    metrics = {}
    for name in span_names():
        span = spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = span["calls"] / ops
        metrics[f"{name}.ms"] = span["s"] * ms
        metrics[f"{name}.self_ms"] = span["self_s"] * ms
    for suite in oracle.SUITES:
        entry = suites.get(suite, {"s": 0.0, "cases": 0})
        metrics[f"verify.{suite}.ms"] = entry["s"] * ms
        metrics[f"verify.{suite}.cases"] = entry["cases"] / ops
    metrics["cli.decimal_ms"] = traced["decimal_s"] * ms
    metrics["trace.overhead_pct"] = 100 * (
        sum(traced["latencies_s"]) / sum(plain["latencies_s"]) - 1)
    metrics["trace.ops"] = ops
    record = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failures": plain["failures"] + traced["failures"],
        "version": traced["version"],
        "reuse_share": plain["reuse_share"],
    }
    return record, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WHY), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "hyperfib" / "__init__.py").is_file():
        print(f"error: no hyperfib package under {SRC}", file=sys.stderr)
        return 2
    # one core for this process and every child, so the calibration kernel
    # and the work it scales share a core
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        record, metrics = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = per_layer_units() if args.trace else END_TO_END
    attempted, failures = record["attempted"], record["failures"]
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{record['tail']['percentile']}, {record['tail']['samples']} samples)"
        print(f"  {name:40} {value:14.4f} {units[name]}{note}")
    print(f"  {'error_rate':40} {len(failures) / attempted:14.4f} share"
          f"  ({len(failures)} of {attempted} ops)")
    print(f"  {'reuse_share':40} {record['reuse_share']:14.4f} share")
    for failure in failures[:10]:
        print(f"  FAILED {failure[:300]}", file=sys.stderr)
    provenance = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "hyperfib": record["version"],
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "error_rate": len(failures) / attempted,
        "reuse_share": record["reuse_share"],
        **{key: record[key] for key in ("tail", "unscaled") if key in record},
    }
    print("provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
