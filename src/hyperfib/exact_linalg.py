"""Dense exact integer linear algebra on square matrices.

Every matrix of the paper is square, the companion (Q-) matrix and the
Hankel windows alike, so ``IntMatrix`` is square by construction, and
``hankel`` lays a run of 2m-1 terms out as the m x m matrix of a window.
Entries are arbitrary-precision Python ints and never touch floating point.
Determinants use fraction-free (Bareiss) elimination whose interior
divisions are exact; a cofactor expansion is kept as an independent oracle
for small matrices.  Faddeev-LeVerrier gives the characteristic polynomial
chi in exact integer steps.  ``mat_pow`` is binary powering over
``mat_mul``; for e < 0 its base is the inverse that Cayley-Hamilton gives
as a polynomial in a when a is unimodular.  ``Polynomial`` carries the
result of ``char_poly`` and offers only products, powers and text.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from operator import mul


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
    """a**e by binary powering over ``mat_mul``; e < 0 needs det(a) = +-1.

    For e < 0 the base is a^-1 = -c_0 (a^(n-1) + c_(n-1) a^(n-2) + ... +
    c_1 I), by Cayley-Hamilton with char_poly(a) = x^n + ... + c_1 x + c_0,
    taken by Horner.  c_0 = (-1)^n det(a) is its own inverse exactly when a
    is unimodular; any other matrix is refused.
    """
    n = a.rows
    one = IntMatrix(n, tuple(int(i % (n + 1) == 0) for i in range(n * n)))
    if e < 0:
        chi = char_poly(a).coeffs
        if chi[0] not in (1, -1):
            raise ValueError(f"matrix is not unimodular (det = {(-1) ** n * chi[0]})")
        inv = one
        for c in chi[n - 1:0:-1]:
            entries = list(mat_mul(inv, a).entries)
            entries[::n + 1] = [x + c for x in entries[::n + 1]]   # + c I
            inv = IntMatrix(n, entries)
        a, e = IntMatrix(n, tuple(-chi[0] * x for x in inv.entries)), -e
    power = one
    while e:
        if e & 1:
            power = mat_mul(power, a)
        e >>= 1
        if e:
            a = mat_mul(a, a)
    return power


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

