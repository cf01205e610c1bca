"""Dense exact integer linear algebra on square matrices.

Every matrix of the paper is square, the companion (Q-) matrix and the
Hankel windows alike, so ``IntMatrix`` is square by construction, and
``hankel`` lays a run of 2m-1 terms out as the m x m matrix of a window.
Entries are arbitrary-precision Python ints and never touch floating point.
Determinants use fraction-free (Bareiss) elimination whose interior
divisions are exact; a cofactor expansion is kept as an independent oracle
for small matrices.  Faddeev-LeVerrier gives the characteristic polynomial
chi in exact integer steps, and a^e is p(a) with p = x^e mod chi
(Cayley-Hamilton), for negative e too when a is unimodular.  One kernel
computes p on plain coefficient lists in powers of y = x - 1, so that
a^e = sum p_i (a - I)^i, the sum ``mat_pow`` takes.  When chi has a root
of high multiplicity at 1, as the hyperfibonacci chi = (x^2-x-1)(x-1)^r
does, all but two of the p_i stay small.  ``Polynomial`` carries the
result of ``char_poly`` and offers only products, powers and text.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from operator import mul, sub


def _exact_div(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError(f"non-exact division: {a} / {b}")
    return q


_PIECE = 512   # digits; str() never consults the digit limit below 640
_PIECE_BASE = 10**_PIECE


def to_decimal(value: int) -> str:
    """Decimal text of an int of any size.

    str() refuses ints longer than sys.get_int_max_str_digits() digits (4300
    by default).  This splits on powers of ten into pieces shorter than 640
    digits, the least limit the interpreter accepts, so it works under every
    setting of the limit and changes none.
    """
    if value < 0:
        return "-" + to_decimal(-value)
    if value < _PIECE_BASE:
        return str(value)
    powers = [_PIECE_BASE]   # powers[i] = 10**(_PIECE * 2**i)
    while 2 * powers[-1].bit_length() - 1 <= value.bit_length():
        powers.append(powers[-1] * powers[-1])
    return _decimal_pieces(value, powers, len(powers) - 1, False)


def _decimal_pieces(value: int, powers: list[int], level: int, pad: bool) -> str:
    # value < powers[level]**2; pad zero-fills to that bound's full width
    if level < 0:
        text = str(value)
        return text.zfill(_PIECE) if pad else text
    high, low = divmod(value, powers[level])
    if not (pad or high):
        return _decimal_pieces(low, powers, level - 1, False)
    return (_decimal_pieces(high, powers, level - 1, pad)
            + _decimal_pieces(low, powers, level - 1, True))


class _Record:
    """Base of the namedtuple records: values, not sequences.

    Tuple ``+`` and ``*`` are refused on both sides: ``__radd__`` raises, as
    NotImplemented would let a plain tuple on the left concatenate.  ``_make``,
    which ``_replace`` calls, goes through the record's checking ``__new__``.
    """

    __slots__ = ()

    def __add__(self, other):
        return NotImplemented

    __mul__ = __rmul__ = __add__

    def __radd__(self, other):
        raise TypeError("unsupported operand type(s) for +: "
                        f"{type(other).__name__!r} and {type(self).__name__!r}")

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class IntMatrix(_Record, namedtuple("IntMatrix", "rows entries")):
    """Immutable row-major square matrix of integers with ``rows`` rows and columns."""

    __slots__ = ()

    def __new__(cls, rows: int, entries: Iterable[int]) -> "IntMatrix":
        entries = tuple(entries)   # a list would leave the matrix mutable
        if rows < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * rows:
            raise ValueError("entry count does not match dimensions")
        for e in entries:
            if not isinstance(e, int):
                raise TypeError(f"non-integer entry: {e!r}")
        return super().__new__(cls, rows, entries)

    def to_rows(self) -> list[list[int]]:
        n = self.rows
        return [list(self.entries[i * n:(i + 1) * n]) for i in range(n)]

    def __str__(self) -> str:
        return "\n".join(" ".join(to_decimal(x) for x in row) for row in self.to_rows())


def hankel(terms: Sequence[int], m: int) -> IntMatrix:
    """The m x m Hankel matrix M[i][j] = terms[i+j] of the first 2m-1 terms."""
    if len(terms) < 2 * m - 1:
        raise ValueError(f"a Hankel matrix of size {m} needs {2 * m - 1} terms, got {len(terms)}")
    return IntMatrix(m, tuple(terms[i + j] for i in range(m) for j in range(m)))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product of two matrices of the same size."""
    n = a.rows
    if b.rows != n:
        raise ValueError(f"size mismatch: {n}x{n} times {b.rows}x{b.rows}")
    ae, be = a.entries, b.entries
    bcols = [be[j::n] for j in range(n)]
    out = []
    for i in range(n):
        arow = ae[i * n:(i + 1) * n]
        out.extend(sum(map(mul, arow, bcol)) for bcol in bcols)
    return IntMatrix(n, tuple(out))


def mat_pow(a: IntMatrix, e: int) -> IntMatrix:
    """a**e as sum p_i (a - I)^i; e < 0 needs det(a) = +-1.

    p = (1 + y)^e mod chi(1 + y) with chi = char_poly(a), that is x^e mod
    chi in powers of y = x - 1.
    """
    n = a.rows
    p = _y_pow_mod(e, *_shift_chi(char_poly(a).coeffs))
    while p and not p[-1]:   # a trailing zero would still cost a product
        p.pop()
    one = tuple(int(i % (n + 1) == 0) for i in range(n * n))   # I
    y = IntMatrix(n, tuple(map(sub, a.entries, one)))          # a - I
    total, power = [0] * (n * n), IntMatrix(n, one)
    for i, c in enumerate(p):
        power = mat_mul(power, y) if i else power
        total = [t + c * x for t, x in zip(total, power.entries)]
    return IntMatrix(n, tuple(total))


_COFACTOR_MAX = 6   # the largest size the cofactor oracle expands
_COFACTOR_REFUSAL = (f"cofactor determinant is an oracle for matrices up to "
                     f"{_COFACTOR_MAX}x{_COFACTOR_MAX}")


def det(a: IntMatrix, method: str = "bareiss") -> int:
    """Exact determinant.

    "bareiss" is the fraction-free elimination used everywhere; "cofactor"
    is the independent test oracle and is limited to matrices up to 6x6.
    """
    if method == "bareiss":
        return _bareiss(a.to_rows())
    if method == "cofactor":
        if a.rows > _COFACTOR_MAX:
            raise ValueError(_COFACTOR_REFUSAL)
        return _cofactor(a.to_rows())
    raise ValueError(f"unknown determinant method: {method!r}")


def _bareiss(m: list[list[int]]) -> int:
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0   # column has no pivot below the diagonal
        pivot, rowk = m[k][k], m[k]
        for rowi in m[k + 1:]:
            lead = rowi[k]
            for j in range(k + 1, n):
                # exact by the Bareiss minor identity
                rowi[j] = (pivot * rowi[j] - lead * rowk[j]) // prev
            rowi[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _cofactor(rows: list[list[int]]) -> int:
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * x * _cofactor(minor)
    return total


def adjugate_inverse(a: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a unimodular matrix, a**-1."""
    return mat_pow(a, -1)


class Polynomial(_Record, namedtuple("Polynomial", "coeffs")):
    """Integer polynomial; coefficients ascending by degree, normalized.

    Supports ``*``, ``**`` and ``str``; the zero polynomial has no
    coefficients.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int]) -> "Polynomial":
        c = tuple(coeffs)
        for x in c:
            if not isinstance(x, int):
                raise TypeError(f"non-integer coefficient: {x!r}")
        while c and c[-1] == 0:
            c = c[:-1]
        return super().__new__(cls, c)

    def __mul__(self, other: object) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return Polynomial(tuple(out))

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("polynomial power must be >= 0")
        result, base = Polynomial((1,)), self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = to_decimal(mag)
            else:
                xk = "x" if k == 1 else f"x^{k}"
                body = xk if mag == 1 else f"{to_decimal(mag)}*{xk}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def char_poly(a: IntMatrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - a), by Faddeev-LeVerrier.

    M_1 = I, c_(n-k) = -tr(a M_k) / k and M_(k+1) = a M_k + c_(n-k) I; every
    division by k is exact because the coefficients are integers.  The pass
    works on row lists and starts from a M_1 = a.  Each M_k is a polynomial
    in a, so a M_k = M_k a, and the columns of a are taken once.
    """
    n = a.rows
    cols = [a.entries[j::n] for j in range(n)]
    coeffs = [0] * n + [1]
    am = a.to_rows()
    for k in range(1, n + 1):
        c = coeffs[n - k] = _exact_div(-sum(row[i] for i, row in enumerate(am)), k)
        if k < n:   # M_(n+1) = 0 by Cayley-Hamilton, so its product is skipped
            for i, row in enumerate(am):   # M_(k+1), in place
                row[i] += c
            am = [[sum(map(mul, row, col)) for col in cols] for row in am]
    return Polynomial(tuple(coeffs))


def _shift_chi(chi: Sequence[int]) -> tuple[list[int], list[int]]:
    """d(y) = chi(1 + y) and g = (d - chi(0)) / (1 + y), for ``_y_pow_mod``.

    With chi = x*h + c_0, g(y) = h(1 + y).  Both depend on chi alone, so
    callers that power x modulo one chi at many e shift it once.
    """
    if not chi or chi[-1] != 1:
        raise ValueError("remainder needs a monic divisor")
    d = _shift(chi)
    g = d[1:]   # synthetic division by 1 + y, top down
    for j in range(len(g) - 2, -1, -1):
        g[j] -= g[j + 1]
    return d, g


def _y_pow_mod(e: int, d: Sequence[int], g: Sequence[int]) -> list[int]:
    """p = (1 + y)^e mod d, for any integer e; (d, g) = ``_shift_chi(chi)``.

    So x^e = sum p_i (x - 1)^i mod chi.  The kernel works on a list of
    k = deg(d) coefficients.  The leading bits of e > 0 that stay below k
    give p = sum C(m, i) y^i outright.  Each further bit squares p
    (symmetric products, k(k+1)/2 multiplies) and reduces by d over its
    nonzero low coefficients only, and a 1 bit multiplies by 1 + y, an O(k)
    shift-add.  For e < 0 it divides by 1 + y instead: d = c_0 + (1 + y)g,
    so when c_0 = chi(0) = +-1 (for chi = det(xI - a): when a is
    unimodular) (1 + y)^-1 = -c_0 * g, and p = p(-1) + (1 + y)s gives
    p / (1 + y) = s - c_0 * p(-1) * g, also O(k).

    The result is exact for any chi; only the speed rests on a root at 1.
    For chi = (x^2 - x - 1)(x - 1)^r, d = y^r (y^2 + y - 1) has two nonzero
    low coefficients, and p mod y^r = sum_(i<r) C(e, i) y^i, so all but
    the coefficients at y^r and y^(r+1) stay polynomial in e in size.
    """
    k = len(d) - 1
    if k == 0:
        return []   # everything is 0 mod 1
    c0 = d[0] - g[0]   # chi(0), as d = chi(0) + (1 + y)g
    if e < 0 and c0 not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det = {(-1) ** k * c0})")
    low = [(i, di) for i, di in enumerate(d[:k]) if di]   # y^k = -sum d_i y^i
    bits = bin(abs(e))[2:]
    lead = k.bit_length() - 1 if e > 0 else 0   # leading bits whose value m < k
    m = int(bits[:lead] or "0", 2)
    p = [1] + [0] * (k - 1)
    for i in range(m):   # (1 + y)^m, no reduction
        p[i + 1] = p[i] * (m - i) // (i + 1)
    for bit in bits[lead:]:
        sq = [0] * (2 * k - 1)
        for i, a in enumerate(p):   # p^2 by symmetric products
            if a:
                sq[2 * i] += a * a
                a2 = 2 * a
                for j in range(i + 1, k):
                    sq[i + j] += a2 * p[j]
        for top in range(2 * k - 2, k - 1, -1):
            t = sq[top]
            if t:
                for i, di in low:
                    sq[top - k + i] -= t * di
        p = sq[:k]
        if bit == "1":
            if e > 0:   # (1 + y) * p, then y^k = -sum d_i y^i
                t = p[-1]
                p = [a + b - t * di for a, b, di in zip(p, [0] + p, d)]
            else:       # s - c_0 * p(-1) * g, where p = p(-1) + (1 + y)s
                s, t = [0] * k, 0
                for j in range(k - 1, 0, -1):
                    t = s[j - 1] = p[j] - t
                t = -c0 * (p[0] - t)
                p = [a + t * gi for a, gi in zip(s, g)]
    return p


def _shift(c: Sequence[int]) -> list[int]:
    """Coefficients of c(x + 1), by repeated synthetic division by x - 1.

    A Taylor shift (J. von zur Gathen and J. Gerhard, ISSAC 1997).
    """
    a = list(c)
    for i in range(len(a) - 1):
        t = a[-1]
        for j in range(len(a) - 2, i - 1, -1):
            t = a[j] = a[j] + t
    return a
