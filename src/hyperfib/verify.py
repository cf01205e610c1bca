"""Verification sweeps over the library's determinant and recurrence identities.

Each suite brute-forces one family of claims over a caller-chosen range and
reports every case that disagrees.  Suites are deterministic; the one
randomized suite (general) draws from a seeded generator so runs are
reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .cassini import SecondOrderPair, general_cassini, hankel, predicted_sign
from .exact_linalg import Polynomial, char_poly, det
from .qmatrix import build_q
from .sequences import Strategy, hyperfib, sequence

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class Failure:
    """A case that disagreed, with the computed and expected values themselves."""

    case: str
    computed: int | Polynomial
    expected: int | Polynomial


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    cases: int
    failures: tuple[Failure, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures


def _windows(r, sizes, n_min, n_max):
    # (m, n, matrix) for every window size and start of generation r, all
    # cut from one run of terms
    run = sequence(r).terms(n_min, n_max + 2 * sizes[-1] - 1)
    for m in sizes:
        for i, n in enumerate(range(n_min, n_max + 1)):
            yield m, n, hankel(run[i:i + 2 * m - 1], m)


def _suite_cassini(r_max, n_min, n_max, rng):
    cases, failures = 0, []
    for r in range(1, r_max + 1):
        for _, n, window in _windows(r, range(r + 2, r + 3), n_min, n_max):
            d, predicted = det(window), predicted_sign(r, n)
            cases += 1
            if d != predicted:
                failures.append(Failure(f"r={r} n={n}", d, predicted))
    return cases, failures


def _suite_qdet(r_max, n_min, n_max, rng):
    cases, failures = 0, []
    for r in range(1, r_max + 1):
        d = det(build_q(r).matrix)
        cases += 1
        if d != -1:
            failures.append(Failure(f"r={r}", d, -1))
    return cases, failures


def _suite_zero(r_max, n_min, n_max, rng):
    cases, failures = 0, []
    for r in range(0, r_max + 1):
        for m, n, window in _windows(r, range(r + 3, r + 7), n_min, n_max):
            d = det(window)
            cases += 1
            if d != 0:
                failures.append(Failure(f"m={m} n={n} r={r}", d, 0))
    return cases, failures


def _suite_crosscheck(r_max, n_min, n_max, rng):
    cases, failures = 0, []
    for r in range(0, r_max + 1):
        for n in range(n_min, n_max + 1):
            reference = hyperfib(r, n, Strategy.RECURRENCE)
            others = [Strategy.MATRIX_POWER]
            if n >= 0:
                others.append(Strategy.PREFIX_SUM)
            cases += 1
            for strat in others:
                value = hyperfib(r, n, strat)
                if value != reference:
                    failures.append(Failure(f"r={r} n={n} {strat.value}", value, reference))
    return cases, failures


def _suite_general(r_max, n_min, n_max, rng):
    cases, failures = 0, []
    for _ in range(200):
        pair = SecondOrderPair(*(rng.randint(-9, 9) for _ in range(6)))
        for m in range(1, 51):
            lhs, rhs = general_cassini(pair, m)
            cases += 1
            if lhs != rhs:
                failures.append(Failure(f"{pair} m={m}", lhs, rhs))
    return cases, failures


def _suite_charpoly(r_max, n_min, n_max, rng):
    fib_factor = Polynomial((-1, -1, 1))    # x^2 - x - 1
    shift = Polynomial((-1, 1))             # x - 1
    cases, failures = 0, []
    for r in range(0, r_max + 1):
        computed = char_poly(build_q(r).matrix)
        expected = fib_factor * shift**r
        cases += 1
        if computed != expected:
            failures.append(Failure(f"r={r}", computed, expected))
    return cases, failures


Suite = Callable[[int, int, int, random.Random], tuple[int, list[Failure]]]

SUITES: dict[str, Suite] = {
    "cassini": _suite_cassini,
    "qdet": _suite_qdet,
    "zero": _suite_zero,
    "crosscheck": _suite_crosscheck,
    "general": _suite_general,
    "charpoly": _suite_charpoly,
}


def verify_all(
    r_max: int,
    n_min: int,
    n_max: int,
    suites: Sequence[str] = ("all",),
    seed: int = DEFAULT_SEED,
) -> list[VerifyReport]:
    """Run the selected suites and return one report per suite.

    The name "all" expands to every suite.  Rejects an empty selection,
    unknown names, r_max < 1, and an empty index range.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if n_min > n_max:
        raise ValueError("empty index range: n_min > n_max")
    names = list(suites)
    if "all" in names:
        names = list(SUITES)
    if not names:
        raise ValueError("no suites selected")
    unknown = sorted(set(names) - set(SUITES))
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    chosen = [name for name in SUITES if name in set(names)]
    reports = []
    for name in chosen:
        rng = random.Random(seed)   # every suite sees the same seeded stream
        start = time.perf_counter()
        cases, failures = SUITES[name](r_max, n_min, n_max, rng)
        reports.append(VerifyReport(name, cases, tuple(failures), time.perf_counter() - start))
    return reports
