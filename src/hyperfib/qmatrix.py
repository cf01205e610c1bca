"""Companion (Q-) matrices of hyperfibonacci generations.

Generation r satisfies a homogeneous linear recurrence of order r+2.  Its
companion matrix advances the window of r+2 consecutive terms by one index:
rows 1..r+1 are the shifted identity and the last row carries the
recurrence weights q_1..q_{r+2}.  The weights come from a triangular
back-substitution against the terms around index 0 (where every generation
has a long run of zeros); ``infer_recurrence`` re-derives them generically
as the minimal recurrence fitting a prefix, found by Berlekamp-Massey
(Massey 1969; at least 2 * max_order terms make it unique), giving an
independent cross-check, and the last three weights also have closed
forms.  Powers Q^n, as sums of powers of Q - I (x^n mod the characteristic
polynomial, in powers of x - 1), give the windows at any index n:
``reconstruct`` reads them through the matpow term route of ``sequences``,
which holds the weights, the check that they give the paper's
characteristic polynomial, the run's differences and the power weighting them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import comb

from .exact_linalg import IntMatrix, _exact_div, _Record, hankel
from .sequences import _power_setup, _power_terms, _weights, sequence

TYPE_CHECKING = False   # true for type checkers, which resolve Fraction below
if TYPE_CHECKING:
    from fractions import Fraction


class QMatrix(_Record, namedtuple("QMatrix", "r q matrix")):
    """Order-(r+2) companion matrix with its coefficient row q_1..q_{r+2}."""

    __slots__ = ()


def build_q(r: int) -> QMatrix:
    """Companion matrix of generation r via triangular back-substitution.

    The state one step past the zero run pins q_{r+2} = F(2); each earlier
    weight then follows from the next term once the later weights are known:

        q_j = F(r+4-j) - sum_{i=j+1..r+2} F(i-j+1) * q_i
    """
    k = r + 2
    weights = _weights(sequence(r).terms(0, r + 4), k)
    entries = []
    for i in range(k - 1):
        entries.extend(1 if j == i + 1 else 0 for j in range(k))
    entries.extend(weights)
    return QMatrix(r, weights, IntMatrix(k, tuple(entries)))


def q_closed_tail(r: int) -> tuple[int, int, int]:
    """Closed forms for the last three weights (q_r, q_{r+1}, q_{r+2}).

    q_r = (r^3 - 7r)/6 (the division is exact), q_{r+1} = 1 - C(r+1, 2),
    q_{r+2} = 1 + r.  Defined for r >= 1; there is no q_r at r = 0.
    """
    if r < 1:
        raise ValueError("closed tail needs r >= 1")
    return _exact_div(r**3 - 7 * r, 6), 1 - comb(r + 1, 2), 1 + r


def reconstruct(r: int, n: int) -> IntMatrix:
    """The (r+2)-window at index n, as Q^n times the window at 0.

    Q's weights are checked to give the paper's chi,
    (x^2 - x - 1)(x - 1)^r, so Q^n = sum p_i (Q - I)^i with
    p = (1 + y)^n mod chi(1 + y) (C. M. Fiduccia, SIAM J. Comput. 14,
    1985).  (Q - I)^i times the window at 0 is the window of the i-th
    forward differences, so only Q's weights and the run F_r(0..3r+3) are
    read.  Negative n works because chi(0) = (-1)^(r+1) makes Q unimodular.
    """
    k = r + 2
    return hankel(_power_terms(_power_setup(r, 2 * k - 1), n, 2 * k - 1), k)


def infer_recurrence(terms: Sequence[int], max_order: int) -> list[int | Fraction]:
    """Weights (c_1..c_k) of the minimal recurrence fitting the terms.

    Finds the least k <= max_order such that a(j+k) = sum_i c_i * a(j+i-1)
    holds for every window of the input, by one Berlekamp-Massey pass over
    the rationals (J. L. Massey, IEEE Trans. Inf. Theory 15, 1969).  With at
    least 2 * max_order terms a recurrence of order k <= max_order is the
    only one of its order, so the weights are unique.  Integral weights come
    back as plain ints; an all-zero input gives [0].  Returns [] when no
    order up to max_order fits.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if len(terms) < 2 * max_order:
        raise ValueError("need at least 2 * max_order terms")
    from fractions import Fraction   # deferred: only this pass needs it

    # c = 1 + c_1 x + ... is the connection polynomial of the shortest
    # recurrence so far, of order length: sum_j c_j a(i-j) = 0 for
    # length <= i.  b is c as it was before the last change of order, b_gap
    # the discrepancy gap that made that change, shift the terms since.
    c, b, b_gap = [Fraction(1)], [Fraction(1)], Fraction(1)
    length, shift = 0, 1
    for i in range(len(terms)):
        gap = sum(x * terms[i - j] for j, x in enumerate(c))   # len(c) <= i+1
        if gap:
            before, scale = c, gap / b_gap
            c = c + [0] * (shift + len(b) - len(c))
            for j, x in enumerate(b):
                c[j + shift] -= scale * x
            if 2 * length <= i:
                length, b, b_gap, shift = i + 1 - length, before, gap, 0
        shift += 1
    if length > max_order:
        return []
    c += [0] * (length + 1 - len(c))
    weights = [-c[j] for j in range(length, 0, -1)] or [0]
    return [int(w) if w.denominator == 1 else w for w in weights]
