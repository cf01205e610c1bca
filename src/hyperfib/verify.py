"""Verification sweeps over the library's determinant and recurrence identities.

Each suite brute-forces one family of claims over a caller-chosen range and
reports every case that disagrees.  A case is one claim at one input, even
where a suite shares work between cases:

- cassini and zero cut their windows from one closed-form run per
  generation and read all of their determinants from
  ``cassini._run_dets``.
- crosscheck walks the prefix and recurrence routes once per generation
  and takes matpow's shifted chi and differences once per generation;
  each matpow case still computes its own power (1 + y)^n mod chi(1 + y).
  A recurrence walk that records its terms takes every step and maps no
  block, so where a walk spans a full block of ``sequences._FOLD`` steps
  its end case (n_max, or n_min) is read from a walk without a record,
  which maps its full blocks.
- general walks each random pair once for all its window sizes.

Suites are deterministic; the one randomized suite (general) draws from a
seeded generator so runs are reproducible.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from collections.abc import Callable, Sequence

from .cassini import SecondOrderPair, _run_dets, general_cassini_walk, predicted_sign
from .exact_linalg import _Record, char_poly, det
from .qmatrix import build_q
from .sequences import (_FOLD, Strategy, _chi, _power_setup, _power_terms, _prefix_row,
                        _recurrence, sequence)

DEFAULT_SEED = 1729


class Failure(_Record, namedtuple("Failure", "case computed expected")):
    """A case that disagreed, with the computed and expected values themselves.

    ``case`` is its label; ``computed`` and ``expected`` are ints, or
    ``Polynomial``s for the charpoly suite.
    """

    __slots__ = ()


class VerifyReport(_Record, namedtuple("VerifyReport", "suite cases failures elapsed")):
    """One suite's case count, its ``Failure``s in order, and its seconds."""

    __slots__ = ()


def _suite_cassini(r_max, n_min, n_max, rng):
    cases, failures = 0, []
    for r in range(1, r_max + 1):
        run = sequence(r).terms(n_min, n_max + 2 * (r + 2) - 1)
        [dets] = _run_dets(run, r, [r + 2])
        for n, d in zip(range(n_min, n_max + 1), dets):
            predicted = predicted_sign(r, n)
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
        run = sequence(r).terms(n_min, n_max + 2 * (r + 6) - 1)
        for size, column in enumerate(_run_dets(run, r, range(r + 3, r + 7)), r + 3):
            for n, d in zip(range(n_min, n_max + 1), column):
                cases += 1
                if d != 0:
                    failures.append(Failure(f"m={size} n={n} r={r}", d, 0))
    return cases, failures


def _suite_crosscheck(r_max, n_min, n_max, rng):
    # every strategy against one closed-form run per generation; each walk
    # runs once per generation, and matpow powers x once per case
    cases, failures = 0, []
    for r in range(0, r_max + 1):
        expected = sequence(r).terms(n_min, n_max + 1)
        prefix, forward, backward = [], [], []   # F_r(0..n_max) twice, F_r(1..n_min)
        if n_max >= 0:
            prefix = list(_prefix_row(r, n_max))
            forward.append(_recurrence(r, n_max, forward))
            if n_max >= _FOLD:   # a walk with a run maps no block: check one that does
                forward[-1] = _recurrence(r, n_max)
        if n_min < 0:
            backward.append(_recurrence(r, n_min, backward))
            if 1 - n_min >= _FOLD:
                backward[-1] = _recurrence(r, n_min)
        setup = _power_setup(r, 1)
        for n, reference in zip(range(n_min, n_max + 1), expected):
            cases += 1
            for strat, value in (
                (Strategy.PREFIX_SUM, prefix[n] if n >= 0 else None),
                (Strategy.RECURRENCE, forward[n] if n >= 0 else backward[1 - n]),
                (Strategy.MATRIX_POWER, _power_terms(setup, n, 1)[0]),
            ):
                if value is not None and value != reference:
                    failures.append(Failure(f"r={r} n={n} {strat.value}", value, reference))
    return cases, failures


def _suite_general(r_max, n_min, n_max, rng):
    cases, failures = 0, []
    for _ in range(200):
        pair = SecondOrderPair(*(rng.randint(-9, 9) for _ in range(6)))
        for m, (lhs, rhs) in enumerate(general_cassini_walk(pair, 50), 1):
            cases += 1
            if lhs != rhs:
                failures.append(Failure(f"{pair} m={m}", lhs, rhs))
    return cases, failures


def _suite_charpoly(r_max, n_min, n_max, rng):
    cases, failures = 0, []
    for r in range(0, r_max + 1):
        computed = char_poly(build_q(r).matrix)
        expected = _chi(r)
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
    suites: str | Sequence[str] = ("all",),
    seed: int = DEFAULT_SEED,
) -> list[VerifyReport]:
    """Run the selected suites and return one report per suite.

    ``suites`` is one name or a sequence of names; the name "all" expands
    to every suite.  Rejects an empty selection, unknown names, r_max < 1,
    and an empty index range.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if n_min > n_max:
        raise ValueError("empty index range: n_min > n_max")
    if isinstance(suites, str):   # one name, not a sequence of letters
        suites = [suites] if suites else []
    names = set(suites)
    if not names:
        raise ValueError("no suites selected")
    unknown = sorted(names - set(SUITES) - {"all"})
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    chosen = [name for name in SUITES if "all" in names or name in names]
    reports = []
    for name in chosen:
        rng = random.Random(seed)   # every suite sees the same seeded stream
        start = time.perf_counter()
        cases, failures = SUITES[name](r_max, n_min, n_max, rng)
        reports.append(VerifyReport(name, cases, tuple(failures), time.perf_counter() - start))
    return reports
