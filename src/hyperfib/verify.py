"""Verification sweeps over the library's determinant and recurrence identities.

Each suite brute-forces one family of claims over a caller-chosen range and
reports every case that disagrees.  A case is one claim at one input, even
where a suite shares work between cases:

- cassini and zero cut their windows from one closed-form run per
  generation and read all of their determinants from
  ``cassini._run_dets``.
- crosscheck walks the prefix and recurrence routes once per generation,
  keeping only the checked indices, and checks matpow's weights and takes
  its differences once per generation; each matpow case still computes its
  own power (1 + y)^n mod chi(1 + y).  The recurrence's end cases (n_max,
  and n_min below 0) are read from ``_recurrence``, which crosses all but
  at most one step of its walk in one block map, so the block maps are
  checked too.
- general draws each random pair straight from ``getrandbits`` and walks it
  once for all its window sizes, in one plain loop that keeps only the
  sizes whose two sides differ.

Suites are deterministic; the one randomized suite (general) draws from a
seeded generator so runs are reproducible.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from collections.abc import Callable, Sequence
from itertools import islice

from .cassini import SecondOrderPair, _cassini_misses, _run_dets, predicted_sign
from .exact_linalg import Polynomial, _Record, char_poly, det
from .qmatrix import build_q
from .sequences import (Strategy, _chi, _power_setup, _power_terms, _prefix_row, _recurrence,
                        _walk, sequence)

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
    # runs at most once per generation, and matpow powers x once per case
    cases, failures = 0, []
    lo, hi = max(n_min, 0), min(n_max, -1)   # the first checked n >= 0, the last n < 0
    for r in range(0, r_max + 1):
        expected = sequence(r).terms(n_min, n_max + 1)
        prefix, recurrence = [], []   # F_r(lo..n_max), F_r(n_min..n_max)
        if n_max >= 0:
            prefix = list(islice(_prefix_row(r, n_max), lo, None))
            body = islice(_walk(r, 1), lo, n_max) if lo < n_max else ()
            recurrence = [*body, _recurrence(r, n_max)]
        if n_min < 0:   # the backward walk's W(j) is F_r(1-j)
            body = islice(_walk(r, -1), 1 - hi, 1 - n_min) if hi > n_min else ()
            backward = [*body, _recurrence(r, n_min)]
            recurrence = backward[::-1] + recurrence
        setup = _power_setup(r, 1)
        for n, reference, walked in zip(range(n_min, n_max + 1), expected, recurrence):
            cases += 1
            for strat, value in (
                (Strategy.PREFIX_SUM, prefix[n - lo] if n >= 0 else None),
                (Strategy.RECURRENCE, walked),
                (Strategy.MATRIX_POWER, _power_terms(setup, n, 1)[0]),
            ):
                if value is not None and value != reference:
                    failures.append(Failure(f"r={r} n={n} {strat.value}", value, reference))
    return cases, failures


def _draw(rng):
    """A pair of six ints in -9..9: the values and state of six rng.randint(-9, 9).

    randint(-9, 9) takes getrandbits(5) until it reads below 19 and adds -9;
    this is the same loop without randint's three frames per draw.
    """
    getrandbits, values = rng.getrandbits, []
    while len(values) < 6:
        bits = getrandbits(5)
        if bits < 19:
            values.append(bits - 9)
    return SecondOrderPair._make(values)


def _suite_general(r_max, n_min, n_max, rng):
    failures = []
    for _ in range(200):
        pair = _draw(rng)
        for m, lhs, rhs in _cassini_misses(pair, 50):
            failures.append(Failure(f"{pair} m={m}", lhs, rhs))
    return 200 * 50, failures


def _suite_charpoly(r_max, n_min, n_max, rng):
    cases, failures = 0, []
    for r in range(0, r_max + 1):
        computed = char_poly(build_q(r).matrix)
        expected = _chi(r)
        cases += 1
        if computed.coeffs != expected:
            failures.append(Failure(f"r={r}", computed, Polynomial(expected)))
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
