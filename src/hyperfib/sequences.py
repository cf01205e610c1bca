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
IPL 75, 2000), two squares a step by Cassini's identity, as GMP does.
``HyperfibSequence`` seeds runs of terms from it and keeps no cache.  Three
independent evaluation strategies are provided and agree wherever they are
defined, which the test suite uses as a cross-check.  The recurrence
strategy walks both signs of n the same way: W(j) = F_r(j), from W(0),
W(1) = 0, 1, steps by the recurrence, and W(j) = F_r(1-j), from 1, 0, by
its backward reading F(n) = F(n+2) - F(n+1) - C(n+r, r-1).  One endless
walk yields W(0), W(1), ... a step at a time; F_r(n) takes from it only the
first (steps mod 2) steps and crosses the rest in one block.  Across the
block the term is a + s: the big part a takes only the plain Fibonacci step
(or its backward form), one fixed linear map over the block, and the small
part s takes the block's corrections from 0.  The map starts at the
identity and takes the bits of half the block's length from the top, by
the walk's own doubling loop: two squares a bit, then two added steps a
set bit, so a walk takes O(log n) products.  By Vandermonde's identity the
correction at step i of a block from step j, C(r+j+i, r-1), is sum_k C(i,
k) * C(r+j, r-1-k) (backward C(r-1-j-i, r-1) = sum_k C(-1-i, k) * C(r-j,
r-1-k)).  So across the block the small part moves by a sum of r binomials
C(r+j, .) or C(r-j, .) times columns, each one O(1) step from the one
before, by the form F(n+2) - 1 of the sum of F(0..n), so a walk takes its
r columns anew, no table of them is kept, and the block costs O(r)
products at every r.  The prefix strategy is r lazy running sums of F.

The matpow strategy reads F_r(n) from generation r's homogeneous
recurrence of order r+2: ``_power_setup`` takes the run at index 0 from
the walk, so no term route calls the closed form, checks that the weights
q that ``_weights`` back-substitutes from it give ``_chi``, the paper's
(x^2-x-1)(x-1)^r, and takes the run's forward differences, which
``_power_terms`` weights by p = (1 + y)^n mod chi(1 + y), y = x - 1.  In
powers of y, chi is y^r (y^2 + y - 1), so ``_y_pow`` joins C(n, 0..r-1)
to the Fibonacci pair F(n+1) + F(n) y by the Chinese remainder theorem.
The companion matrix, the Hankel windows and the verification suites all
build on this module; it imports only ``exact_linalg``.  All arithmetic is
plain Python int, so results are exact at any size.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from enum import Enum
from itertools import accumulate, count, islice
from operator import add, mul, sub

from .exact_linalg import Polynomial


class Strategy(Enum):
    """Evaluation route for hyperfibonacci terms."""

    PREFIX_SUM = "prefix"       # iterated cumulative sums; n >= 0 only
    RECURRENCE = "recurrence"   # two-sided inhomogeneous recurrence
    MATRIX_POWER = "matpow"     # companion-matrix power


def _fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) for any integer n, by fast doubling with two squares.

    Cassini's identity F(k-1) F(k+1) - F(k)^2 = (-1)^k turns the doubling
    step into F(2k-1) = F(k-1)^2 + F(k)^2 and F(2k+1) = 4 F(k)^2 - F(k-1)^2
    + 2 (-1)^k, with F(2k) their difference (GMP's form).  Negative n
    follows the negafibonacci rule F_{-k} = (-1)^(k+1) * F_k.
    """
    m = -n - 1 if n < 0 else n    # for n < 0, the pair at m gives this one by signs
    # F(k), F(k+1) and 2 (-1)^(k+1) at k = 1, the top bit of m, or at k = 0
    a, b, two = (1, 1, 2) if m else (0, 1, -2)
    for bit in bin(m)[3:]:
        # a, b = F(N-1), F(N) at N = k + 1, so F(2k+1) = a^2 + b^2 and
        # F(2k+3) = 4b^2 - a^2 + two, and F(2k+2), F(2k) are differences
        a, b = a * a, b * b
        if bit == "1":
            a, b, two = a + b, 3 * b - 2 * a + two, 2     # F(2k+1), F(2k+2)
        else:
            a, b, two = 2 * b - 3 * a + two, a + b, -2    # F(2k), F(2k+1)
    if n < 0:   # F_n, F_{n+1} = F_{-m-1}, F_{-m} from F_m, F_{m+1}
        return (b, -a) if n % 2 else (-b, a)
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
        return _power_terms(_power_setup(r, 1), n, 1)[0]
    raise ValueError(f"unknown strategy: {strategy!r}")


def _prefix_row(r: int, n: int) -> Iterator[int]:
    # F_r(0..n), n >= 0, as r lazy running sums of F(0..n): r + 2 values held
    row = islice(_plain_walk(), n + 1)
    for _ in range(r):
        row = accumulate(row)
    return row


def _plain_walk() -> Iterator[int]:
    # F(0), F(1), ... without end, by the plain step alone, apart from _walk
    # so that the prefix oracle calls no generation-r walk
    a, b = 0, 1
    while True:
        yield a
        a, b = b, a + b


def _columns(sign: int, r: int, size: int,
             plain: tuple[int, int, int]) -> tuple[list[int], list[int]]:
    # (U_i), (V_i) for i < r: the pair that size steps of the walk's own
    # step, s, t = t, s + sign*(t + b), take from (0, 0) when step j adds
    # b = C(j, i) forward or C(-1-j, i) backward; plain is the map of a
    # block of any length, (g(size-1), g(size), g(size+1)).  A correction
    # b_j reaches the block's end as sign * b_j * (g(size-1-j), g(size-j)),
    # so with h_i(N) = sum_j b_j g(N-j), U_i = sign * h_i(size-1) and V_i = sign *
    # h_i(size).  The b_j have generating function x^i / (1-x)^(i+1)
    # forward and (-1)^i / (1-x)^(i+1) backward, so h_i is the running sum
    # of h_(i-1) before N forward and minus it up to N backward, from
    # h_(-1)(N) = g(N+1) forward and -g(N) backward; and as g has generating
    # function x / (1 - sign*x - x^2), h_i(N) = h_(i-1)(N+1) - C(N+1, i)
    # forward and h_(i-1)(N-1) + C(-N, i) backward, the form that
    # sum_{k<=n} F(k) = F(n+2) - 1 takes.  So at N = size each column is
    # one step p, q = q - c, p + q - c, c = C(sign*size, i), from the one
    # before: (p, q) is (U_i, V_i) forward, from (g(size), g(size+1)),
    # and (V_i, U_i) backward, from (g(size), g(size-1))
    x0, y0, y1 = plain
    p, q = (y0, y1) if sign > 0 else (y0, x0)
    ps, qs = [], []
    for c in _binomials(sign * size, r):
        p, q = q - c, p + q - c
        ps.append(p)
        qs.append(q)
    return (ps, qs) if sign > 0 else (qs, ps)


def _binomials(x: int, m: int) -> list[int]:
    # C(x, 0..m-1) for any integer x, by the exact step
    # C(x, j+1) = C(x, j) * (x-j) / (j+1), which is never singular
    steps = accumulate(range(1, m), lambda c, j: c * (x - j + 1) // j, initial=1)
    return list(steps)[:m]


def _walk(r: int, sign: int) -> Iterator[int]:
    # W(0), W(1), ... without end: W(j) = F_r(j) forward (sign 1) or
    # F_r(1-j) backward (sign -1) starts W(0), W(1) = 0, 1 or 1, 0 and steps
    # W(j+2) = W(j) + sign*(W(j+1) + C(y, r-1)), y = r+j forward and r-1-j
    # backward.  It calls no closed form, so the tests hold HyperfibSequence
    # against it.  The correction C(y, r-1) is carried by the exact step
    # c * (d + e) / d, where d is 0 only as backward y goes from 0 to -1
    if sign > 0:
        op, s, t, c, d0 = add, 0, 1, r, 2
    else:
        op, s, t, c, d0 = sub, 1, 0, min(r, 1), r - 1
    e = sign * (r - 1)
    for d in count(d0, sign):
        yield s
        s, t = t, op(s, t + c)
        c = c * (d + e) // d if d else (-1) ** (r - 1)


def _recurrence(r: int, n: int) -> int:
    # F_r(n) = W(steps) of _walk, steps = n or 1-n, with no closed form
    # called.  The walk gives W(lo), W(lo+1), lo = steps % 2; the other
    # N = steps - lo steps are crossed in one block.  Its map (g(M-1), g(M),
    # g(M+1)) starts at the identity (1, 0, 1), M = 0, and takes the bits of
    # N / 2 from the top: each bit squares the map, and a set bit then adds
    # two plain steps.  Every M is even, so Cassini's g(M-1) g(M+1) - g(M)^2
    # = (-1)^M, which holds forward and backward, gives the square from two
    # squares: g(2M-1) = g(M-1)^2 + g(M)^2 and g(2M+1) = 4 g(M)^2 - g(M-1)^2
    # + 2.  The term is a + s: the big part a takes the map, and the small
    # part s the corrections of the block, from 0.  By Vandermonde's
    # identity the correction at step lo+i is sum_k C(i, k) * C(r+lo, r-1-k)
    # forward and sum_k C(-1-i, k) * C(r-lo, r-1-k) backward, so s is the r
    # binomials C(r + sign*lo, .) times the block's r columns U.  So a walk
    # takes O(log n) squares and one row of columns
    sign, steps = (1, n) if n >= 0 else (-1, 1 - n)
    half, lo = divmod(steps, 2)
    a, b = islice(_walk(r, sign), lo, lo + 2)
    x0, y0 = 1, 0       # g(M-1), g(M) at M = 0
    for bit in bin(half)[2:]:
        xx, yy = x0 * x0, y0 * y0
        x0, y1 = xx + yy, 4 * yy - xx + 2           # g(2M-1), g(2M+1)
        y0 = sign * (y1 - x0)                       # g(2M), by g's step
        if bit == "1":
            x0, y0 = y1, y0 + sign * y1             # g(M+1), g(M+2)
    row = _binomials(r + sign * lo, r)[::-1]    # C(r+sign*lo, r-1-k)
    us, _ = _columns(sign, r, steps - lo, (x0, y0, x0 + sign * y0))
    return x0 * a + y0 * b + sum(map(mul, row, us))


def _chi(r: int) -> tuple[int, ...]:
    """The coefficients, lowest first, of the paper's characteristic polynomial
    of generation r, (x^2-x-1)(x-1)^r, with (x - 1)^r read off the binomials
    C(r, 0..r) in alternating signs.
    """
    row = [(-1) ** (r - i) * c for i, c in enumerate(_binomials(r, r + 1))]
    # times x^2 - x - 1: coefficient i is row[i-2] - row[i-1] - row[i]
    return tuple([c2 - c1 - c0 for c2, c1, c0 in
                  zip([0, 0, *row], [0, *row, 0], [*row, 0, 0])])


def _weights(f: Sequence[int], k: int) -> tuple[int, ...]:
    # build_q's back-substitution for q_1..q_k from f = F_r(0..), k = r+2
    q = [0] * (k + 1)   # 1-indexed
    q[k] = f[2]
    for j in range(k - 1, 0, -1):
        q[j] = f[k + 2 - j] - sum(map(mul, f[2:k - j + 2], q[j + 1:k + 1]))
    return tuple(q[1:])


def _power_setup(r: int, count: int) -> list[list[int]]:
    """The forward differences of F_r(0..max(k+1, k+count-2)), k = r+2.

    Row i is Delta^i F_r(j), i < k, for j < count at least.  The run comes
    from ``_walk``, not the closed form, and chi = x^k - sum q_i x^(i-1) of
    the weights q back-substituted from it must be ``_chi(r)``; any other
    weight row raises ValueError.  All of it depends on r and count alone,
    so callers that power one generation at many n compute it once.
    """
    if r < 0:
        raise ValueError("generation must be >= 0")
    k = r + 2
    run = list(islice(_walk(r, 1), max(k + 2, k + count - 1)))
    chi = tuple(-x for x in _weights(run, k)) + (1,)
    if chi != _chi(r):
        raise ValueError("the power kernel needs chi = (x^2 - x - 1)(x - 1)^r, "
                         f"not {Polynomial(chi)}")
    diffs = [run]
    for _ in range(k - 1):
        run = list(map(sub, run[1:], run))
        diffs.append(run)
    return diffs


def _y_pow(e: int, r: int) -> list[int]:
    """(1 + y)^e mod y^r (y^2 + y - 1), for any integer e.

    So x^e = sum p_i (x - 1)^i modulo the chi of generation r.  p is joined
    by the Chinese remainder theorem from its remainder modulo y^r, the
    binomials a = C(e, 0..r-1), and its remainder modulo y^2 + y - 1, which
    is x^e mod x^2 - x - 1, the Fibonacci pair F(e+1) + F(e) y: p = a +
    y^r t with t = (pair - a) / y^r, and 1 / y = 1 + y modulo y^2 + y - 1,
    so each a_i takes one step t = (t - a_i)(1 + y).
    """
    t1, t0 = _fib_pair(e)
    a = _binomials(e, r)
    for ai in a:
        t0, t1 = t0 + t1 - ai, t0 - ai
    return a + [t0, t1]


def _power_terms(diffs: list[list[int]], n: int, count: int) -> list[int]:
    # F_r(n..n+count-1) as sum p_i Delta^i F_r(j), p = (1 + y)^n mod chi(1 + y);
    # diffs = _power_setup(r, c) for some c >= count
    p = _y_pow(n, len(diffs) - 2)
    return [sum(c * row[j] for c, row in zip(p, diffs)) for j in range(count)]
