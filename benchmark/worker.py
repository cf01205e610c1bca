"""One workload pass in a fresh, single-threaded process.

    python3 benchmark/worker.py --workload terms --seed 1 --seconds 10 [--ops K] [--trace]

Runs ops from the seeded stream until their scaled times (see
``slowdown``) add up to ``--seconds`` (or until ``--ops`` ops), checks each
op after its clock stops, and prints one JSON object: per-op latencies,
failures, peak RSS, reuse share and, with ``--trace``, the per-layer span
summary.  ``run.py`` starts it, so every pass begins with an empty memo.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import workloads
from calibrate import slowdown
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_package():
    """Import hyperfib from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import hyperfib
    import hyperfib.cli

    if not Path(hyperfib.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"hyperfib came from {hyperfib.__file__}, not {SRC}")
    return hyperfib


@contextmanager
def unlimited_int_digits():
    """Lift the int/str digit cap for the benchmark's own str() calls only."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _keep_results(tracer: Tracer, hf, kept: list, suites: dict) -> None:
    # terms: keep each value so str() of it can be timed after the op;
    # verify: add up the per-suite time and cases each report carries
    term = hf.cli.hyperfib
    verify_all = hf.verify.verify_all

    def keep_term(*args, **kwargs):
        value = term(*args, **kwargs)
        kept.append(value)
        return value

    def keep_reports(*args, **kwargs):
        reports = verify_all(*args, **kwargs)
        for report in reports:
            entry = suites.setdefault(report.suite, {"s": 0.0, "cases": 0})
            entry["s"] += report.elapsed
            entry["cases"] += report.cases
        return reports

    tracer.replace(hf.cli, "hyperfib", keep_term)
    tracer.replace(hf.verify, "verify_all", keep_reports)


def run(hf, workload: str, seed: int, seconds: float | None = None,
        max_ops: int | None = None, trace: bool = False) -> dict:
    """Closed loop over the workload's inputs; returns the pass record."""
    tracer = Tracer() if trace else None
    decimal_s = 0.0
    kept: list[int] = []
    suites: dict[str, dict[str, float]] = {}
    if tracer:
        tracer.install()
        _keep_results(tracer, hf, kept, suites)
    latencies, raw, failures, done = [], [], [], []
    timed = 0.0   # scaled seconds, so a slow spell does not cut the op count
    before = slowdown(workload)
    # a spell slow beyond what the scaling absorbs still ends the pass
    wall_end = perf_counter() + 1.5 * seconds if seconds is not None else None
    try:
        for op in workloads.inputs(workload, seed):
            if max_ops is not None and len(done) >= max_ops:
                break
            if seconds is not None and (timed >= seconds or perf_counter() > wall_end):
                break
            done.append(op)
            start = perf_counter()
            try:
                elapsed, outcome = workloads.execute(op, hf)
            except Exception as exc:   # a raising op is a failed op, not a crash
                timed += perf_counter() - start
                failures.append(f"{op}: raised {exc!r}")
                continue
            after = slowdown(workload)
            raw.append(elapsed)
            latencies.append(elapsed * 2 / (before + after))
            timed += latencies[-1]
            before = after
            reason = workloads.check(op, outcome)
            if reason:
                failures.append(f"{op}: {reason}")
            while kept:
                value = kept.pop()
                with unlimited_int_digits():
                    start = perf_counter()
                    str(value)
                    decimal_s += perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    record = {
        "version": hf.__version__,
        "attempted": len(done),
        "failures": failures,
        "latencies_s": latencies,
        "raw_latencies_s": raw,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reuse_share": workloads.reuse_share(done),
    }
    if tracer:
        record["spans"] = tracer.summary()
        record["decimal_s"] = decimal_s
        record["suites"] = suites
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WHY), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    hf = load_package()
    record = run(hf, args.workload, args.seed, args.seconds, args.ops, args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
