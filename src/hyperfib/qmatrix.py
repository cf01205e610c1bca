"""Companion (Q-) matrices of hyperfibonacci generations.

Generation r satisfies a homogeneous linear recurrence of order r+2.  Its
companion matrix advances the window of r+2 consecutive terms by one index:
rows 1..r+1 are the shifted identity and the last row carries the
recurrence weights q_1..q_{r+2}.  The weights come from a triangular
back-substitution against the terms around index 0 (where every generation
has a long run of zeros); ``infer_recurrence`` re-derives them generically
as the minimal recurrence fitting a prefix, giving an independent
cross-check, and the last three weights also have closed forms.  Powers Q^n,
as sums of powers of Q - I (x^n mod the characteristic polynomial, in
powers of x - 1), give the windows at any index n: ``reconstruct`` reads
them through the matpow term route of ``sequences``, which holds the
weights, the differences they weight and the power itself.
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

    Q^n = sum q_i (Q - I)^i, q = (1 + y)^n mod chi(1 + y) with
    chi = det(xI - Q) (C. M. Fiduccia, SIAM J. Comput. 14, 1985), and
    (Q - I)^i times the window at 0 is the window of the i-th forward
    differences, so only Q's weights and the run F_r(0..3r+3) are read.
    Negative n works because the weight q_1 = +-1 makes Q unimodular.
    """
    k = r + 2
    return hankel(_power_terms(_power_setup(r, 2 * k - 1), n, 2 * k - 1), k)


def infer_recurrence(terms: Sequence[int], max_order: int) -> list[int | Fraction]:
    """Weights (c_1..c_k) of the minimal recurrence fitting the terms.

    Finds the least k <= max_order such that a(j+k) = sum_i c_i * a(j+i-1)
    holds for every window of the input, solving the windowed linear system
    exactly over the rationals.  Integral weights come back as plain ints.
    Returns [] when no order up to max_order fits.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if len(terms) < 2 * max_order:
        raise ValueError("need at least 2 * max_order terms")
    for k in range(1, max_order + 1):
        solution = _solve_windows(terms, k)
        if solution is not None:
            return [int(c) if c.denominator == 1 else c for c in solution]
    return []


def _solve_windows(terms: Sequence[int], k: int) -> list[Fraction] | None:
    # Gauss-Jordan over Fractions on every window equation; None = no fit
    from fractions import Fraction   # deferred: only this solver needs it

    rows = [
        [Fraction(terms[j + i]) for i in range(k)] + [Fraction(terms[j + k])]
        for j in range(len(terms) - k)
    ]
    rank = 0
    pivot_cols = []
    for col in range(k):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = rows[rank][col]
        rows[rank] = [x / scale for x in rows[rank]]
        lead = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        pivot_cols.append(col)
        rank += 1
    if any(rows[i][k] for i in range(rank, len(rows))):
        return None   # inconsistent: no recurrence of this order
    solution = [Fraction(0)] * k   # free weights stay zero
    for i, col in enumerate(pivot_cols):
        solution[col] = rows[i][k]
    for j in range(len(terms) - k):
        if sum(solution[i] * terms[j + i] for i in range(k)) != terms[j + k]:
            return None
    return solution
