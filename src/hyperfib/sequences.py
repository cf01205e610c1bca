"""Exact generators for Fibonacci and hyperfibonacci numbers.

The generation-r hyperfibonacci sequence is the r-fold running sum of the
Fibonacci numbers, every generation starting 0, 1.  Generation r satisfies
the inhomogeneous recurrence

    F(n+2) = F(n+1) + F(n) + C(n+r, r-1)

whose correction term is a polytopic (figurate) number; running it backward
extends every generation to negative indices.

The paper proves that generation r has characteristic polynomial
(x^2 - x - 1)(x - 1)^r.  Splitting the generating function
x / ((1 - x - x^2)(1 - x)^r) into partial fractions along it gives

    F_r(n) = F(n+2r) - sum_{j=0..r-1} F(2j+1) * C(n+r-1-j, r-1-j)

for every integer n, with C the polynomial binomial and F by fast doubling
(D. Takahashi, "A fast algorithm for computing large Fibonacci numbers",
IPL 75, 2000).  ``HyperfibSequence`` seeds runs of terms from it and keeps
no cache.  Three independent evaluation strategies are provided and agree
wherever they are defined, which the test suite uses as a cross-check.  All
arithmetic is plain Python int, so results are exact at any size.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from itertools import accumulate


class Strategy(Enum):
    """Evaluation route for hyperfibonacci terms."""

    PREFIX_SUM = "prefix"       # iterated cumulative sums; n >= 0 only
    RECURRENCE = "recurrence"   # two-sided inhomogeneous recurrence
    MATRIX_POWER = "matpow"     # companion-matrix power


def _fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) for any integer n, by fast doubling."""
    if n < 0:
        # negafibonacci: F_{-k} = (-1)^(k+1) * F_k
        a, b = _fib_pair(-n - 1)    # F_{-n-1}, F_{-n}
        return (b, -a) if n % 2 else (-b, a)
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b    # F_{2k}, F_{2k+1}
        if bit == "1":
            a, b = b, a + b
    return a, b


def fibonacci(n: int) -> int:
    """F_n for any integer n, with F_0 = 0 and F_1 = 1.

    Fast doubling takes O(log |n|) multiplications; negative indices follow
    the negafibonacci rule F_{-n} = (-1)^(n+1) * F_n.
    """
    return _fib_pair(n)[0]


class HyperfibSequence:
    """Generation-r terms from the closed form; nothing is cached.

    ``term(n)`` evaluates the closed form of the module docstring.
    ``terms(start, stop)`` seeds the pair F_r(start), F_r(start+1) and the
    correction C(start+r, r-1) from it in O(r) operations, then runs the
    inhomogeneous recurrence forward with the correction C(k+r, r-1) carried
    in O(1) per step.  An instance holds only r, so instances and threads
    share no state.
    """

    def __init__(self, r: int):
        if r < 0:
            raise ValueError("generation must be >= 0")
        self.r = r

    def _seed(self, n: int) -> tuple[int, int, int]:
        # F_r(n), F_r(n+1) by the closed form, and C(n+r, r-1).  Term i of
        # the sum pairs F(2j+1), j = r-1-i, stepped down from a running
        # (even, odd) pair, with C(n+i, i) = C(n+i-1, i-1) * (n+i) / i, an
        # exact step; the last c1 is C(n+r, r-1), which is 0 at r = 0.
        r = self.r
        f0, f1 = _fib_pair(n + 2 * r)
        even, odd = _fib_pair(2 * r - 2)    # F(2j), F(2j+1) at j = r-1
        c0 = c1 = 1                         # C(n+i, i), C(n+1+i, i)
        for i in range(r):
            if i:
                c0 = c0 * (n + i) // i
                c1 = c1 * (n + 1 + i) // i
            f0 -= odd * c0
            f1 -= odd * c1
            even, odd = 2 * even - odd, odd - even
        return f0, f1, c1 if r else 0

    def term(self, n: int) -> int:
        return self._seed(n)[0]

    def terms(self, start: int, stop: int) -> list[int]:
        """Terms for indices start..stop-1 (half-open, like range)."""
        return list(self._run(start, stop))

    def _run(self, start: int, stop: int) -> Iterator[int]:
        # the terms of terms(start, stop), one at a time
        r = self.r
        a, b, c = self._seed(start)   # c = C(k+r, r-1) at k = start
        for k in range(start, stop):
            yield a
            a, b = b, a + b + c
            # C(k+1+r, r-1) = C(k+r, r-1) * (k+r+1) / (k+2) exactly; at
            # k = -2 the factor is undefined and the next value is C(r-1, r-1)
            if k != -2:
                c = c * (k + r + 1) // (k + 2)
            elif r:
                c = 1


sequence = HyperfibSequence


def hyperfib(r: int, n: int, strategy: Strategy = Strategy.RECURRENCE) -> int:
    """The n-th hyperfibonacci number of generation r, by the chosen strategy."""
    if r < 0:
        raise ValueError("generation must be >= 0")
    if strategy is Strategy.PREFIX_SUM:
        if n < 0:
            raise ValueError("prefix-sum evaluation is defined only for n >= 0")
        return _prefix_row(r, n)[-1]
    if strategy is Strategy.RECURRENCE:
        return _recurrence(r, n)
    if strategy is Strategy.MATRIX_POWER:
        from . import qmatrix   # deferred: qmatrix builds on this module

        return qmatrix._power_terms(qmatrix._power_setup(r), n, 1)[0]
    raise ValueError(f"unknown strategy: {strategy!r}")


def _prefix_row(r: int, n: int) -> list[int]:
    # F_r(0..n) as r running sums of F(0..n); n >= 0
    row = []
    a, b = 0, 1
    for _ in range(n + 1):
        row.append(a)
        a, b = b, a + b
    for _ in range(r):
        row = list(accumulate(row))
    return row


def _recurrence(r: int, n: int, run: list[int] | None = None) -> int:
    # rolling two-term window, O(1) memory, with the correction
    # C(k+r, r-1) carried in O(1) per step; it calls no closed form, so the
    # tests hold HyperfibSequence against it.  A given run receives every
    # term walked before F_r(n), F_r(0..n-1) forward or F_r(-1..n+1)
    # backward, so one walk serves every index it passes
    if n >= 0:
        a, b, c = 0, 1, r   # F_r(k), F_r(k+1), C(k+r, r-1) at k = 0
        for k in range(n):
            if run is not None:
                run.append(a)
            a, b = b, a + b + c
            c = c * (k + r + 1) // (k + 2)
        return a
    a, b, c = 1, 0, 1 if r else 0   # F_r(k+2), F_r(k+1), C(k+r, r-1) at k = -1
    for k in range(-1, n, -1):
        a, b = b, a - b - c
        if run is not None:
            run.append(b)
        # C(k-1+r, r-1) = C(k+r, r-1) * (k+1) / (k+r) exactly; at k = -r
        # the factor is undefined and the next value is C(-1, r-1)
        c = c * (k + 1) // (k + r) if k != -r else (-1) ** (r - 1)
    return a - b - c
