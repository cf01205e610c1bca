"""Hankel windows of hyperfibonacci terms and their determinant identities.

A window of size m starting at index n collects the terms F(n) through
F(n+2m-2) of one generation into the symmetric Hankel matrix with entries
M[i][j] = F(n+i+j).  For m = r+2 the determinant is always +1 or -1 and the
sign follows a closed formula in n and r, generalizing the classical
Cassini identity; for m > r+2 the determinant vanishes identically.  Both
follow from chi = (x^2-x-1)(x-1)^r (``sequences._chi``) annihilating the
run of terms, and ``_run_dets`` decides the windows of a run from that
residual; verify's cassini and zero suites and the CLI's ``det`` read it.
The library's ``zero_det_check`` decides its one window the same way: it
puts the residual column first, where Bareiss finds it zero at once.
``cassini_det`` still eliminates its window raw.  The windows themselves
are ``exact_linalg.hankel`` of a run of terms.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from operator import mul

from .exact_linalg import IntMatrix, _bareiss, _Record, det, hankel
from .sequences import _chi, fibonacci, sequence


def build_window(m: int, n: int, r: int) -> IntMatrix:
    """The m x m Hankel window of generation r at n, from 2m-1 consecutive terms."""
    if m < 1:
        raise ValueError("window size must be >= 1")
    return hankel(sequence(r).terms(n, n + 2 * m - 1), m)


def _run_dets(run: Sequence[int], r: int, sizes: Iterable[int]) -> list[list[int]]:
    """For each m in sizes, dets of the m x m Hankel windows at each start of run.

    With chi = ``_chi(r)``, monic of degree k = r+2, and C_t the column
    run[i+t:i+t+m] of the window at i, the unit-triangular column operation
    C_k += sum_(t<k) chi_t C_t leaves the residual e(i+a) =
    sum_t chi_t run[i+a+t] in its row a.  So where e is zero on i..i+m-1, a
    window of size m > k has a zero column and its determinant is 0.  Window
    i of size k has the columns C_1..C_k of window i-1 (its C_0..C_(k-1)),
    so where e is zero on i-1..i+k-2 its determinant is (-1)^k chi_0 = -1
    times window i-1's.  Any other window gets its own Bareiss elimination,
    so the result is exact for any run; only the speed rests on chi
    annihilating it.
    """
    k, chi = r + 2, _chi(r).coeffs
    zeros = [0] * (len(run) - k + 1)   # how many e(s), e(s+1), ... are zero in a row
    for s in range(len(run) - k - 1, -1, -1):
        if not sum(map(mul, chi, run[s:s + k + 1])):
            zeros[s] = zeros[s + 1] + 1
    out = []
    for m in sizes:
        dets = []
        for i in range(len(run) - 2 * m + 2):
            if m > k and zeros[i] >= m:
                dets.append(0)
            elif m == k and i and zeros[i - 1] >= k:
                dets.append(-dets[-1])
            else:
                dets.append(_bareiss([run[i + a:i + a + m] for a in range(m)]))
        out.append(dets)
    return out


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
    return det(hankel([fibonacci(n + k) - 1 for k in range(5)], 3))


def zero_det_check(m: int, n: int, r: int) -> int:
    """Determinant of an oversized window (m > r+2); identically zero.

    Decided by the residual, as in ``_run_dets``: with chi = ``_chi(r)`` of
    degree k = r+2, the unit-triangular column step C_k += sum_(t<k) chi_t C_t
    leaves e(n+a) in row a of column k.  That column moves to the front, a
    (k+1)-cycle of sign (-1)^k, and one ``det`` of the result is returned.
    Where chi annihilates the window's terms that column is zero, so Bareiss
    finds no pivot in it and stops at once.  The value is exact for any
    window: the step is unimodular and the permutation signed.
    """
    if m <= r + 2:
        raise ValueError("oversized-window statement requires m > r + 2")
    window = build_window(m, n, r)   # refuses r < 0 before _chi runs
    k, chi = r + 2, _chi(r).coeffs
    entries = []
    for row in window.to_rows():
        entries += [sum(map(mul, chi, row)), *row[:k], *row[k + 1:]]
    return (-1) ** k * det(IntMatrix(m, entries))


class SecondOrderPair(_Record, namedtuple("SecondOrderPair", "alpha beta a0 a1 b0 b1")):
    """Two sequences evolving by x(n+2) = alpha*x(n+1) + beta*x(n)."""

    __slots__ = ()


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


def _cassini_misses(pair: SecondOrderPair, m_max: int) -> list[tuple[int, int, int]]:
    """(m, *general_cassini(pair, m)) for each m in 1..m_max whose sides differ.

    One walk of the pair serves every m: each m forms its own left side from
    two products and compares it with the right side, chained by -beta.
    """
    alpha, beta, a_prev, a_cur, b_prev, b_cur = pair
    rhs, step, misses = a_cur * b_prev - a_prev * b_cur, -beta, []
    for m in range(1, m_max + 1):
        lhs = a_cur * b_prev - a_prev * b_cur
        if lhs != rhs:
            misses.append((m, lhs, rhs))
        rhs *= step
        a_prev, a_cur = a_cur, alpha * a_cur + beta * a_prev
        b_prev, b_cur = b_cur, alpha * b_cur + beta * b_prev
    return misses
