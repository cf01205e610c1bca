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
wherever they are defined, which the test suite uses as a cross-check.  The
recurrence strategy walks both signs of n the same way: W(j) = F_r(j), from
W(0), W(1) = 0, 1, steps by the recurrence, and W(j) = F_r(1-j), from 1, 0,
by its backward reading F(n) = F(n+2) - F(n+1) - C(n+r, r-1).  Each walked
term is a + s: the big part a takes only the plain Fibonacci step (or its
backward form), and the small part s takes the corrections.  The walk goes
in blocks of 512 steps.  Across a block the plain step is one fixed linear
map, walked once, which the big pair takes at the block's end (four products
by numbers of about 355 bits); then s is folded into a and restarts at 0.
By Vandermonde's identity the correction at step i of a block from step j,
C(r+j+i, r-1), is sum_k C(i, k) * C(r+j, r-1-k) (backward C(r-1-j-i, r-1) =
sum_k C(-1-i, k) * C(r-j, r-1-k)).  So across a full block the small pair
moves by a sum of r binomials C(r+j, .) or C(r-j, .) times column pairs that
running sums of the plain steps give once per direction and that serve every
generation.  Below r = 200 a walk without a run maps its full blocks that
way, in O(r) products; otherwise, and within the partial block, a per-step
loop walks s and the correction.  All arithmetic is plain Python int, so
results are exact at any size.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from enum import Enum
from functools import cache
from itertools import accumulate
from operator import add, mul, sub


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
        return deque(_prefix_row(r, n), maxlen=1).pop()
    if strategy is Strategy.RECURRENCE:
        return _recurrence(r, n)
    if strategy is Strategy.MATRIX_POWER:
        from . import qmatrix   # deferred: qmatrix builds on this module

        return qmatrix._power_terms(qmatrix._power_setup(r, 1), n, 1)[0]
    raise ValueError(f"unknown strategy: {strategy!r}")


def _prefix_row(r: int, n: int) -> Iterator[int]:
    # F_r(0..n) as r running sums of F(0..n); n >= 0.  Fibonacci goes in
    # blocks of _FOLD terms, and each running sum of a block starts from
    # its last value in the block before, so one block is held at a time
    a, b = 0, 1
    carries = [0] * r
    for lo in range(0, n + 1, _FOLD):
        block = []
        for _ in range(min(_FOLD, n + 1 - lo)):
            block.append(a)
            a, b = b, a + b
        for j, carry in enumerate(carries):
            block[0] += carry
            block = list(accumulate(block))
            carries[j] = block[-1]
        yield from block


_FOLD = 512        # steps in each block of _recurrence's walk and of _prefix_row
_MAP_BELOW = 200   # generations below it map full blocks (break-even near 210)


@cache
def _plain(sign: int) -> tuple[int, ...]:
    # g(0.._FOLD+1) with g(0), g(1) = 0, 1 and g(m+2) = g(m) + sign*g(m+1):
    # m plain steps a, b = b, a + sign*b take (a, b) to
    # (g(m-1)*a + g(m)*b, g(m)*a + g(m+1)*b); walked, so no closed form is
    # called
    g = [0, 1]
    for _ in range(_FOLD):
        g.append(g[-2] + sign * g[-1])
    return tuple(g)


# Per direction sign, the pairs (U_i), (V_i) that _FOLD steps of the walk's
# own step, s, t = t, s + sign*(t + b), take from (0, 0) when step j adds
# b = C(j, i) forward or C(-1-j, i) backward, and the sums h_i(0.._FOLD) of
# the last i.  _columns fills them in order on demand, fewer than _MAP_BELOW
# per direction, and swaps in a whole new entry, so that a racing call reads
# a consistent one.
_COLUMNS = {1: ((), (), ()), -1: ((), (), ())}


def _columns(sign: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # (U_i), (V_i) for at least i < m.  A correction b_j at step j reaches
    # the block's end as sign * b_j * (g(_FOLD-1-j), g(_FOLD-j)), so with
    # h_i(N) = sum_j b_j g(N-j), U_i = sign * h_i(_FOLD-1) and V_i = sign *
    # h_i(_FOLD).  The b_j have generating function x^i / (1-x)^(i+1)
    # forward and (-1)^i / (1-x)^(i+1) backward, so h_0 is the running sum
    # of g, and h_i is the running sum of h_(i-1) before N forward, and
    # minus it up to N backward: additions only, no closed form
    us, vs, h = _COLUMNS[sign]
    if len(us) < m:
        us, vs = list(us), list(vs)
        for i in range(len(us), m):
            if not i:
                h = list(accumulate(_plain(sign)[:_FOLD + 1]))
            elif sign > 0:
                h = list(accumulate(h[:-1], initial=0))
            else:
                h = list(accumulate(h, sub, initial=0))[1:]
            us.append(sign * h[-2])
            vs.append(sign * h[-1])
        _COLUMNS[sign] = us, vs, h = tuple(us), tuple(vs), h
    return us, vs


def _binomials(x: int, m: int) -> list[int]:
    # C(x, 0..m-1) for any integer x, by the exact step
    # C(x, j+1) = C(x, j) * (x-j) / (j+1), which is never singular
    steps = accumulate(range(1, m), lambda c, j: c * (x - j + 1) // j, initial=1)
    return list(steps)[:m]


def _recurrence(r: int, n: int, run: list[int] | None = None) -> int:
    # one walk for both signs of n.  W(j) = F_r(j) forward (sign 1) or
    # F_r(1-j) backward (sign -1) starts W(0), W(1) = 0, 1 or 1, 0 and steps
    # W(j+2) = W(j) + sign*(W(j+1) + C(y, r-1)), y = r+j forward and r-1-j
    # backward, to W(steps) = F_r(n), steps = n or 1-n.  It calls no closed
    # form, so the tests hold HyperfibSequence against it.  Each term is
    # a + s: the big pair a, b takes only the plain step, the small pair
    # s, t the start values and the corrections.  The walk goes in blocks of
    # _FOLD steps, the partial one first, where a, b = 0, 0; at a block's end
    # the big pair takes the map of _FOLD plain steps, which leaves 0 at 0,
    # and the small pair is folded into it and restarts at 0.  The per-step
    # loop carries C(y, r-1) by the exact step c * (d + e) / d, where d is 0
    # only as backward y goes from 0 to -1.  A full block from step j may
    # take its small pair from the columns instead: by Vandermonde's
    # identity its correction at step j+i is sum_k C(i, k) * C(r+j, r-1-k)
    # forward and sum_k C(-1-i, k) * C(r-j, r-1-k) backward.  A mapped
    # block costs the r binomials C(r + sign*j, .) and 2r products, a walked
    # one _FOLD steps, so only r < _MAP_BELOW maps; and as a missing column
    # costs a running sum of _FOLD + 1 additions, less than a walked block,
    # no more of them are filled than the walk has full blocks.  A given run
    # receives W(0..steps-1), F_r(0..n-1) forward or F_r(1), F_r(0), ...,
    # F_r(n+1) backward; with one, the walk is one block and nothing is
    # mapped, so s, t are the terms themselves
    if n >= 0:
        sign, op, steps, s, t, c, d0 = 1, add, n, 0, 1, r, 2
    else:
        sign, op, steps, s, t, c, d0 = -1, sub, 1 - n, 1, 0, min(r, 1), r - 1
    e = sign * (r - 1)
    g = _plain(sign)
    x0, y0, y1 = g[_FOLD - 1], g[_FOLD], g[_FOLD + 1]
    cols = None
    if run is None and r < _MAP_BELOW and r - len(_COLUMNS[sign][0]) <= steps // _FOLD:
        cols = _columns(sign, r)
    a = b = lo = 0
    for hi in range(steps % _FOLD if run is None else steps, steps + 1, _FOLD):
        if cols and hi - lo == _FOLD:
            row = _binomials(r + sign * lo, r)[::-1]    # C(r+sign*lo, r-1-k)
            s, t = (sum(map(mul, row, col)) for col in cols)
        else:
            for d in range(d0 + sign * lo, d0 + sign * hi, sign):
                if run is not None:
                    run.append(s)
                s, t = t, op(s, t + c)
                c = c * (d + e) // d if d else (-1) ** (r - 1)
        a, b, s, t, lo = x0 * a + y0 * b + s, y0 * a + y1 * b + t, 0, 0, hi
    return a
