"""The benchmark's three workloads: seeded inputs, one op each, and its check.

Every workload is closed-loop with one client: the next op starts when the
previous one returns.  Inputs come only from the seed.  Each input stream
is cut into blocks that visit a fixed grid of cells (generation, sign,
strategy) once each, in a seeded order, and every cell cycles through all
slices of its index range; that keeps the mix of cheap and costly ops the
same from seed to seed, so a run's medians move with the code and not with
the draw.

An op's timed region is the call into hyperfib alone.  Its check runs after
the clock stops and compares against ``oracle``, which never calls
hyperfib.
"""

from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator

import oracle

WHY = {
    "terms": "the headline CLI call: large-index terms by recurrence and by "
             "matpow, both signs; bypasses the memo and big-entry Bareiss",
    "windows": "library scans of consecutive Hankel-window determinants at far "
               "indices: big-entry Bareiss plus memo fills and reuse, no matpow",
    "verify": "many small exact ops per CLI verify call: per-call overhead of "
              "IntMatrix, small mat_mul, crosscheck and the fixed general suite",
}

WINDOW_RUN = 3          # consecutive windows per windows op
ZERO_SHARE = 0.3        # share of oversized (zero-determinant) windows
VERIFY_WIDTH = 40       # n_max - n_min of a verify op
STRATA = 8              # index-magnitude slices each cell cycles through
JITTER = 0.25           # width of the draw inside a slice, as a share of it


@dataclass(frozen=True)
class Op:
    """One op's inputs.

    A windows op keeps its (m, n) pairs in ``windows``; a verify op keeps
    --r-max in ``r``, --n-min in ``n`` and its suite seed in ``seed``.
    """

    workload: str
    r: int = 0
    n: int = 0
    strategy: str = ""
    windows: tuple[tuple[int, int], ...] = ()
    seed: int = 0

    def argv(self) -> list[str]:
        """The CLI arguments of a terms or verify op."""
        if self.workload == "terms":
            return ["term", "--r", str(self.r), "--n", str(self.n),
                    "--strategy", self.strategy]
        return ["verify", "--r-max", str(self.r), "--n-min", str(self.n),
                "--n-max", str(self.n + VERIFY_WIDTH), "--seed", str(self.seed)]

    def requested(self) -> list[tuple[int, int]]:
        """The term indices (r, n) this op's inputs name."""
        if self.workload == "terms":
            return [(self.r, self.n)]
        if self.workload == "windows":
            return [(self.r, k) for m, n in self.windows
                    for k in range(n, n + 2 * m - 1)]
        return [(r, k) for r in range(self.r + 1)
                for k in range(self.n, self.n + VERIFY_WIDTH + 1)]


def _stratified(rng: random.Random, cells: list) -> Iterator[tuple]:
    # endless blocks, each visiting every cell once in a seeded order; over
    # every STRATA blocks each cell draws its index magnitude once from each
    # of STRATA equal slices of [0, 1), near the slice's middle: the costliest
    # ops set the tail, and a wide draw inside their slice would make the
    # tail follow the seed
    while True:
        plan = {cell: rng.sample(range(STRATA), STRATA) for cell in cells}
        for block in range(STRATA):
            for cell in rng.sample(cells, len(cells)):
                spot = 0.5 + JITTER * (rng.random() - 0.5)
                yield cell, (plan[cell][block] + spot) / STRATA


def _terms(rng: random.Random) -> Iterator[Op]:
    cells = [(r, s, sign) for r in range(17) for s in ("recurrence", "matpow")
             for sign in (1, -1)]
    for (r, strategy, sign), u in _stratified(rng, cells):
        yield Op("terms", r, sign * round(2_000 + u * 18_000), strategy)


def _windows(rng: random.Random) -> Iterator[Op]:
    cells = [(r, sign) for r in range(1, 13) for sign in (1, -1)]
    for (r, sign), u in _stratified(rng, cells):
        n = sign * round(1_000 + u * 7_000)
        runs = tuple(
            (r + 3 + rng.randrange(3) if rng.random() < ZERO_SHARE else r + 2, n + i)
            for i in range(WINDOW_RUN)
        )
        yield Op("windows", r, n, windows=runs)


def _verify(rng: random.Random) -> Iterator[Op]:
    cells = list(range(3, 9))
    for r_max, u in _stratified(rng, cells):
        yield Op("verify", r_max, -40 + round(u * 160), seed=rng.randrange(2**32))


_STREAMS = {"terms": _terms, "windows": _windows, "verify": _verify}


def inputs(workload: str, seed: int) -> Iterator[Op]:
    """The endless input stream of a workload; equal seeds give equal streams."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


def reuse_share(ops: list[Op]) -> float:
    """Share of requested term indices that an earlier request already named."""
    seen: set[tuple[int, int]] = set()
    total = repeats = 0
    for op in ops:
        for index in op.requested():
            total += 1
            if index in seen:
                repeats += 1
            else:
                seen.add(index)
    return repeats / total if total else 0.0


def execute(op: Op, hf) -> tuple[float, object]:
    """Run one op against the hyperfib package ``hf``; return (seconds, outcome).

    Module attributes are looked up at call time, so a tracer that replaced
    them is seen.  CLI ops return (exit code, stdout, stderr).
    """
    if op.workload == "windows":
        cassini = hf.cassini
        start = perf_counter()
        dets = [cassini.cassini_det(op.r, n) if m == op.r + 2
                else cassini.zero_det_check(m, n, op.r) for m, n in op.windows]
        return perf_counter() - start, dets
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        code = hf.cli.main(op.argv())
        elapsed = perf_counter() - start
    return elapsed, (code, out.getvalue(), err.getvalue())


_SUITE_LINE = re.compile(r"suite (\w+): (\d+) cases, (\d+) failures \(")


def check(op: Op, outcome) -> str | None:
    """None when the outcome is right, else a one-line reason."""
    if op.workload == "windows":
        expected = [oracle.window_det(m, n, op.r) for m, n in op.windows]
        return None if outcome == expected else f"dets {outcome} != {expected}"
    code, out, err = outcome
    if code != 0 or err:
        return f"exit code {code}, stderr {err.strip()[:120]!r}"
    if op.workload == "terms":
        lines = out.splitlines()
        if len(lines) != 1:
            return f"expected one output line, got {len(lines)}"
        try:
            got = oracle.decimal_mod(lines[0])
        except ValueError as exc:
            return str(exc)
        want = oracle.term_mod(op.r, op.n)
        return None if got == want else f"value mod P {got} != {want}"
    suites = {name: (int(cases), int(fails))
              for name, cases, fails in _SUITE_LINE.findall(out)}
    expected = {name: (cases, 0) for name, cases
                in oracle.verify_cases(op.r, op.n, op.n + VERIFY_WIDTH).items()}
    if suites != expected:
        return f"suite (cases, failures) {suites} != {expected}"
    if not out.splitlines()[-1].startswith("PASS"):
        return "verdict is not PASS"
    return None

