"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 benchmark/sweep.py --seeds 1-10 [--workloads terms,verify] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per workload and seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json.  For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json; an
end-to-end spread above a third of its bound is marked.  ``--out`` writes
the summary, the raw values and each workload's provenance as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    provenance = json.loads(next(line for line in lines
                                 if line.startswith("provenance "))[len("provenance "):])
    return provenance, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            provenance, result = one_run(workload, seed, spec["run_seconds"], args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} ops failed", file=sys.stderr)
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "provenance": provenance})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        metrics = {}
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = " WIDE" if bound is not None and spread > bound / 3 else ""
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "values": vals}
            if bound is not None or args.trace:
                print(f"  {name:40} median {median:12.4f}  spread {spread:7.4f}"
                      + (f"  bound {bound}{flag}" if bound is not None else ""))
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
