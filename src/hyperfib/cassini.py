"""Hankel windows of hyperfibonacci terms and their determinant identities.

A window of size m starting at index n collects the terms F(n) through
F(n+2m-2) of one generation into the symmetric Hankel matrix with entries
M[i][j] = F(n+i+j).  For m = r+2 the determinant is always +1 or -1 and the
sign follows a closed formula in n and r, generalizing the classical
Cassini identity; for m > r+2 the determinant vanishes identically.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence

from .exact_linalg import IntMatrix, _not_implemented, det
from .sequences import fibonacci, sequence


def build_window(m: int, n: int, r: int) -> IntMatrix:
    """The m x m Hankel window of generation r at n, from 2m-1 consecutive terms."""
    if m < 1:
        raise ValueError("window size must be >= 1")
    return hankel(sequence(r).terms(n, n + 2 * m - 1), m)


def hankel(terms: Sequence[int], m: int) -> IntMatrix:
    """The m x m Hankel matrix M[i][j] = terms[i+j] of the first 2m-1 terms."""
    return IntMatrix(m, tuple(terms[i + j] for i in range(m) for j in range(m)))


def predicted_sign(r: int, n: int) -> int:
    """Claimed value of det of the (r+2)-window at n: (-1)^(n + floor((r+3)/2))."""
    if r < 1:
        raise ValueError("sign formula is stated for generations r >= 1")
    return 1 if (n + (r + 3) // 2) % 2 == 0 else -1


def cassini_det(r: int, n: int) -> int:
    """Determinant of the (r+2)-window at n, by fraction-free elimination."""
    if r < 0:   # before build_window, whose size check r + 2 >= 1 comes first
        raise ValueError("generation must be >= 0")
    return det(build_window(r + 2, n, r))


def shifted_fib_det(n: int) -> int:
    """Determinant of the 3x3 window of shifted Fibonacci numbers F(k) - 1."""
    if n < 0:
        raise ValueError("shifted determinant is stated for n >= 0")
    rows = [[fibonacci(n + i + j) - 1 for j in range(3)] for i in range(3)]
    return det(IntMatrix.from_rows(rows))


def zero_det_check(m: int, n: int, r: int) -> int:
    """Determinant of an oversized window (m > r+2); identically zero."""
    if m <= r + 2:
        raise ValueError("oversized-window statement requires m > r + 2")
    return det(build_window(m, n, r))


class SecondOrderPair(namedtuple("SecondOrderPair", "alpha beta a0 a1 b0 b1")):
    """Two sequences evolving by x(n+2) = alpha*x(n+1) + beta*x(n)."""

    __slots__ = ()

    __add__ = __mul__ = __rmul__ = _not_implemented


def general_cassini(pair: SecondOrderPair, m: int) -> tuple[int, int]:
    """Both sides of the two-solution Cassini identity at index m.

    Returns (a_m*b_{m-1} - a_{m-1}*b_m, (-beta)^(m-1) * (a_1*b_0 - a_0*b_1));
    the components are equal for every pair of solutions.
    """
    if m < 1:
        raise ValueError("index must be >= 1")
    alpha, beta, a_prev, a_cur, b_prev, b_cur = pair
    for _ in range(m - 1):   # steps alone: the products are formed once, below
        a_prev, a_cur = a_cur, alpha * a_cur + beta * a_prev
        b_prev, b_cur = b_cur, alpha * b_cur + beta * b_prev
    rhs = (-beta) ** (m - 1) * (pair.a1 * pair.b0 - pair.a0 * pair.b1)
    return a_cur * b_prev - a_prev * b_cur, rhs


def general_cassini_walk(pair: SecondOrderPair, m_max: int) -> Iterator[tuple[int, int]]:
    """general_cassini(pair, m) for m = 1..m_max, from one walk of the pair."""
    alpha, beta, a_prev, a_cur, b_prev, b_cur = pair
    rhs, step = a_cur * b_prev - a_prev * b_cur, -beta
    for _ in range(m_max):
        yield a_cur * b_prev - a_prev * b_cur, rhs
        rhs *= step
        a_prev, a_cur = a_cur, alpha * a_cur + beta * a_prev
        b_prev, b_cur = b_cur, alpha * b_cur + beta * b_prev
