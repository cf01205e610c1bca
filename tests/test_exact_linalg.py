import re
import sys
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperfib.exact_linalg as exact_linalg
from hyperfib.cassini import SecondOrderPair
from hyperfib.exact_linalg import (
    IntMatrix,
    Polynomial,
    _shift_chi,
    _y_pow_mod,
    adjugate_inverse,
    char_poly,
    det,
    hankel,
    mat_mul,
    mat_pow,
)
from hyperfib.qmatrix import build_q, reconstruct
from hyperfib.sequences import _chi
from hyperfib.verify import Failure, VerifyReport

Q4 = IntMatrix(4, (
    0, 1, 0, 0,
    0, 0, 1, 0,
    0, 0, 0, 1,
    1, -1, -2, 3,
))
A20 = IntMatrix(4, (
    0, 1, 3, 7,
    1, 3, 7, 14,
    3, 7, 14, 26,
    7, 14, 26, 46,
))
A23 = IntMatrix(4, (
    7, 14, 26, 46,
    14, 26, 46, 79,
    26, 46, 79, 133,
    46, 79, 133, 221,
))


@st.composite
def square_matrices(draw, max_size=6, bound=50):
    n = draw(st.integers(1, max_size))
    entries = draw(st.lists(st.integers(-bound, bound), min_size=n * n, max_size=n * n))
    return IntMatrix(n, tuple(entries))


@st.composite
def sparse_matrices(draw, max_size=6):
    # mostly zeros, so a pivot often vanishes partway through the elimination
    n = draw(st.integers(1, max_size))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.integers(-50, 50))
    return IntMatrix(n, tuple(draw(st.lists(entry, min_size=n * n, max_size=n * n))))


@st.composite
def unimodular_matrices(draw, max_size=7):
    """Products of elementary integer row operations applied to I."""
    n = draw(st.integers(1, max_size))
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "negate":
            rows[i] = [-x for x in rows[i]]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif i != j:
            k = draw(st.integers(-3, 3))
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix(n, tuple(x for row in rows for x in row))


def _identity(n):
    return IntMatrix(n, tuple(int(i == j) for i in range(n) for j in range(n)))


def _repeated_product(a, e):
    """a multiplied e times onto I; the mat_pow oracle for e >= 0."""
    product = _identity(a.rows)
    for _ in range(e):
        product = mat_mul(product, a)
    return product


def _cofactor_adjugate(a):
    """adj(a) from cofactor minors, independent of Faddeev-LeVerrier."""
    n = a.rows
    if n == 1:
        return _identity(1)
    rows = a.to_rows()
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [x for k, row in enumerate(rows) if k != i for x in row[:j] + row[j + 1:]]
            adj[j][i] = (-1) ** (i + j) * det(IntMatrix(n - 1, minor), method="cofactor")
    return IntMatrix(n, tuple(x for row in adj for x in row))


class TestIntMatrix:
    def test_validates_shape(self):
        with pytest.raises(ValueError):
            IntMatrix(2, (1, 2, 3))
        with pytest.raises(ValueError):
            IntMatrix(0, ())

    def test_square_by_construction(self):
        with pytest.raises(ValueError, match="entry count"):
            IntMatrix(2, (1, 2, 3, 4, 5, 6))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            IntMatrix(2, (1, 0.5, 2, 3))

    @pytest.mark.parametrize("build", [
        IntMatrix,
        lambda rows, entries: IntMatrix._make((rows, entries)),
        lambda rows, entries: IntMatrix(1, (0,))._replace(rows=rows, entries=entries),
    ], ids=["call", "_make", "_replace"])
    def test_every_constructor_checks(self, build):
        assert build(2, (1, 2, 3, 4)) == IntMatrix(2, (1, 2, 3, 4))
        assert build(2, [1, 2, 3, 4]).entries == (1, 2, 3, 4)   # stored as a tuple
        with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
            build(0, ())
        with pytest.raises(ValueError, match="^entry count does not match dimensions$"):
            build(2, (1, 2, 3))
        with pytest.raises(TypeError, match=r"^non-integer entry: 0\.5$"):
            build(2, (1, 0.5, 2, 3))

    def test_accessors(self):
        m = IntMatrix(3, (1, 2, 3, 4, 5, 6, 7, 8, 9))
        assert m.to_rows() == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_str(self):
        assert str(IntMatrix(2, (1, -2, 0, 3))) == "1 -2\n0 3"

    def test_str_past_the_digit_limit(self):
        m = reconstruct(3, 30_000)   # entries of about 6,300 digits
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            text = str(m)
            sys.set_int_max_str_digits(0)
            assert [[int(x) for x in line.split(" ")] for line in text.split("\n")] == m.to_rows()
        finally:
            sys.set_int_max_str_digits(old)


class TestHankel:
    def test_reads_the_first_2m_minus_1_terms(self):
        assert hankel([1, 2, 3], 2).to_rows() == [[1, 2], [2, 3]]
        assert hankel([1, 2, 3, 4, 5, 6], 2) == hankel([1, 2, 3], 2)
        assert hankel((7,), 1).to_rows() == [[7]]

    @pytest.mark.parametrize("terms, m", [([1, 2], 2), ([], 1), ([0] * 8, 5)])
    def test_rejects_a_short_run(self, terms, m):
        message = f"^a Hankel matrix of size {m} needs {2 * m - 1} terms, got {len(terms)}$"
        with pytest.raises(ValueError, match=message):
            hankel(terms, m)


class TestMatMul:
    def test_identity(self):
        m = IntMatrix(3, (2, 3, 5, 7, 11, 13, 17, 19, 23))
        assert mat_mul(_identity(3), m) == m

    def test_worked_product(self):
        assert mat_mul(mat_pow(Q4, 3), A20) == A23

    def test_hand_product(self):
        a = IntMatrix(2, (1, 1, 0, 1))
        b = IntMatrix(2, (1, 0, 1, 1))
        assert mat_mul(a, b).to_rows() == [[2, 1], [1, 1]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(_identity(2), _identity(3))


class TestMatPow:
    def test_zeroth_power_is_identity(self):
        m = IntMatrix(2, (5, 1, 2, 7))
        assert mat_pow(m, 0) == _identity(2)

    def test_inverse_law(self):
        assert mat_mul(mat_pow(Q4, -2), mat_pow(Q4, 2)) == _identity(4)

    def test_negative_power_needs_unimodular(self):
        with pytest.raises(ValueError):
            mat_pow(IntMatrix(2, (2, 0, 0, 1)), -1)

    @given(st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=40)
    def test_additivity_for_unimodular(self, m, n):
        assert mat_pow(Q4, m + n) == mat_mul(mat_pow(Q4, m), mat_pow(Q4, n))

    @given(unimodular_matrices(), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_repeated_product_and_inverse(self, a, e):
        assert mat_pow(a, e) == _repeated_product(a, e)
        assert mat_mul(mat_pow(a, -e), mat_pow(a, e)) == _identity(a.rows)

    @given(square_matrices(max_size=4, bound=9), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_repeated_product_any_matrix(self, a, e):
        assert mat_pow(a, e) == _repeated_product(a, e)


class TestDet:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity(self, n):
        assert det(_identity(n)) == 1
        assert det(_identity(n), method="cofactor") == 1

    def test_q_matrix(self):
        assert det(Q4) == -1
        assert det(Q4, method="cofactor") == -1

    def test_window_at_zero(self):
        assert det(A20, method="cofactor") == 1
        assert det(A20) == 1

    def test_zero_column_early_exit(self):
        m = IntMatrix(3, (0, 1, 2, 0, 3, 4, 0, 5, 6))
        assert det(m) == 0

    def test_pivot_swap(self):
        m = IntMatrix(2, (0, 1, 1, 0))
        assert det(m) == -1

    def test_cofactor_size_cap(self):
        with pytest.raises(ValueError):
            det(_identity(7), method="cofactor")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            det(_identity(2), method="gauss")

    @given(st.one_of(square_matrices(), sparse_matrices()))
    @settings(max_examples=200, deadline=None)
    def test_bareiss_matches_cofactor(self, m):
        assert det(m, method="bareiss") == det(m, method="cofactor")

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_multiplicativity(self, data):
        n = data.draw(st.integers(1, 4))
        ents = st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n)
        a = IntMatrix(n, tuple(data.draw(ents)))
        b = IntMatrix(n, tuple(data.draw(ents)))
        assert det(mat_mul(a, b)) == det(a) * det(b)


class TestAdjugateInverse:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_identity(self, n):
        assert adjugate_inverse(_identity(n)) == _identity(n)

    def test_shear(self):
        m = IntMatrix(2, (1, 1, 0, 1))
        assert adjugate_inverse(m).to_rows() == [[1, -1], [0, 1]]

    def test_inverse_property(self):
        assert mat_mul(adjugate_inverse(Q4), Q4) == _identity(4)
        assert mat_mul(Q4, adjugate_inverse(Q4)) == _identity(4)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            adjugate_inverse(IntMatrix(2, (2, 0, 0, 1)))

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            adjugate_inverse(IntMatrix(2, (1, 1, 1, 1)))

    @given(unimodular_matrices())
    @settings(max_examples=80, deadline=None)
    def test_unimodular_products(self, a):
        inv = adjugate_inverse(a)
        identity = _identity(a.rows)
        assert mat_mul(inv, a) == identity
        assert mat_mul(a, inv) == identity
        if a.rows <= 6:
            d = det(a, method="cofactor")
            adj = _cofactor_adjugate(a)
            assert inv == IntMatrix(a.rows, tuple(d * x for x in adj.entries))

    def test_companion_inverse_is_backward_shift(self):
        # Q maps (x_1..x_k) to (x_2..x_k, sum q_j x_j); undoing it recovers
        # x_1 = q_1 * (y_k - sum_{j>=2} q_j y_(j-1)) since q_1 = +-1
        for r in range(17):
            q = build_q(r).q
            k = len(q)
            assert q[0] in (1, -1)
            rows = [[-q[0] * x for x in q[1:]] + [q[0]]]
            rows += [[1 if j == i - 1 else 0 for j in range(k)] for i in range(1, k)]
            assert adjugate_inverse(build_q(r).matrix).to_rows() == rows, r


@pytest.mark.parametrize("invert", [lambda a: mat_pow(a, -1), adjugate_inverse],
                         ids=["mat_pow", "adjugate_inverse"])
@pytest.mark.parametrize("a, d", [
    (IntMatrix(2, (2, 0, 0, 1)), 2),
    (IntMatrix(2, (1, 1, 1, 1)), 0),
    (IntMatrix(2, (1, 2, 2, 1)), -3),
    (IntMatrix(3, (1, 1, 0, 0, 1, 1, 1, 0, 1)), 2),   # odd n: det = -chi(0)
    (IntMatrix(3, (1, 2, 3, 4, 5, 6, 7, 8, 9)), 0),
    (IntMatrix(3, (1, 2, 0, 3, 3, 0, 0, 0, 1)), -3),
])
def test_inverse_refuses_a_non_unimodular_matrix(invert, a, d):
    assert det(a, method="cofactor") == d
    with pytest.raises(ValueError, match=rf"^matrix is not unimodular \(det = {d}\)$"):
        invert(a)


class TestPolynomial:
    def test_normalization(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert Polynomial((0, 0)).coeffs == ()

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Polynomial((1.5,))

    @pytest.mark.parametrize("build", [
        Polynomial,
        lambda coeffs: Polynomial._make((coeffs,)),
        lambda coeffs: Polynomial((1,))._replace(coeffs=coeffs),
    ], ids=["call", "_make", "_replace"])
    def test_every_constructor_checks_and_normalizes(self, build):
        assert build([1, 2, 0, 0]).coeffs == (1, 2)
        assert build((0,)).coeffs == ()
        with pytest.raises(TypeError, match=r"^non-integer coefficient: 1\.5$"):
            build((1, 1.5))

    def test_arithmetic(self):
        p = Polynomial((1, 1))          # 1 + x
        q = Polynomial((-1, 1))         # x - 1
        assert p * q == Polynomial((-1, 0, 1))
        assert q ** 3 == Polynomial((-1, 3, -3, 1))

    def test_empty_factor(self):
        p, zero = Polynomial((1, 1)), Polynomial(())
        assert zero * p == p * zero == zero * zero == zero

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Polynomial((1, 1)) ** -1

    def test_str(self):
        assert str(Polynomial((-1, 1, 2, -3, 1))) == "x^4 - 3*x^3 + 2*x^2 + x - 1"
        assert str(Polynomial(())) == "0"
        assert str(Polynomial((-5,))) == "-5"


@pytest.mark.parametrize("op", [
    lambda: 2 * IntMatrix(1, (5,)),
    lambda: IntMatrix(1, (5,)) * 2,
    lambda: IntMatrix(1, (5,)) + IntMatrix(1, (5,)),
    lambda: IntMatrix(1, (5,)) * IntMatrix(1, (5,)),
    lambda: 2 * Polynomial((1, 1)),
    lambda: Polynomial((1, 1)) * 2,
    lambda: Polynomial((1, 1)) + Polynomial((1, 1)),
    lambda: 2 * build_q(1),
    lambda: build_q(1) * 2,
    lambda: build_q(1) + build_q(1),
    lambda: 2 * Failure("a", 1, 2),
    lambda: Failure("a", 1, 2) * 2,
    lambda: Failure("a", 1, 2) + Failure("a", 1, 2),
    lambda: 2 * VerifyReport("zero", 1, (), 0.0),
    lambda: VerifyReport("zero", 1, (), 0.0) * 2,
    lambda: VerifyReport("zero", 1, (), 0.0) + VerifyReport("zero", 1, (), 0.0),
    lambda: 2 * SecondOrderPair(1, 1, 0, 1, 2, 1),
    lambda: SecondOrderPair(1, 1, 0, 1, 2, 1) * 2,
    lambda: SecondOrderPair(1, 1, 0, 1, 2, 1) + SecondOrderPair(1, 1, 0, 1, 2, 1),
    lambda: (1,) + IntMatrix(1, (5,)),
    lambda: () + IntMatrix(1, (5,)),
    lambda: (1,) + Polynomial((1, 1)),
    lambda: () + Polynomial((1, 1)),
    lambda: (1,) + build_q(1),
    lambda: () + build_q(1),
    lambda: (1,) + Failure("a", 1, 2),
    lambda: () + Failure("a", 1, 2),
    lambda: (1,) + VerifyReport("zero", 1, (), 0.0),
    lambda: () + VerifyReport("zero", 1, (), 0.0),
    lambda: (1,) + SecondOrderPair(1, 1, 0, 1, 2, 1),
    lambda: () + SecondOrderPair(1, 1, 0, 1, 2, 1),
], ids=["int*matrix", "matrix*int", "matrix+matrix", "matrix*matrix",
        "int*poly", "poly*int", "poly+poly",
        "int*qmatrix", "qmatrix*int", "qmatrix+qmatrix",
        "int*failure", "failure*int", "failure+failure",
        "int*report", "report*int", "report+report",
        "int*pair", "pair*int", "pair+pair",
        "tuple+matrix", "empty+matrix", "tuple+poly", "empty+poly",
        "tuple+qmatrix", "empty+qmatrix", "tuple+failure", "empty+failure",
        "tuple+report", "empty+report", "tuple+pair", "empty+pair"])
def test_records_have_no_tuple_arithmetic(op):
    with pytest.raises(TypeError, match="^unsupported operand type"):
        op()


def _shift(c, s):
    """Coefficients of c(x + s), by repeated synthetic division by x - s."""
    a = list(c)
    for i in range(len(a) - 1):
        t = a[-1]
        for j in range(len(a) - 2, i - 1, -1):
            t = a[j] = a[j] + s * t
    return a


def _x_pow_mod(e, chi):
    """x^e mod the monic chi in powers of x: the kernel ``_y_pow_mod``, shifted back."""
    return _shift(_y_pow_mod(e, *_shift_chi(chi)), -1)


def _remainder(coeffs, chi):
    """coeffs mod the monic chi by long division, padded to deg(chi); the _x_pow_mod oracle."""
    k = len(chi) - 1
    out = list(coeffs) + [0] * k
    for top in range(len(out) - 1, k - 1, -1):
        t = out[top]
        for i in range(k + 1):
            out[top - k + i] -= t * chi[i]
    return out[:k]


def _step_powers(step, chi, count):
    """step^0..step^(count-1) mod chi, one product and long division each."""
    powers = [_remainder([1], chi)]
    while len(powers) < count:
        powers.append(_remainder((Polynomial(powers[-1]) * step).coeffs, chi))
    return powers


_FIB = (-1, -1, 1)   # x^2 - x - 1


class TestXPowMod:
    def test_worked_powers(self):
        assert _x_pow_mod(4, _FIB) == [2, 3]       # x^4 = 3x + 2
        assert _x_pow_mod(10, _FIB) == [34, 55]    # F(9), F(10)
        assert _x_pow_mod(-1, _FIB) == [-1, 1]     # x^-1 = x - 1
        assert _x_pow_mod(-10, _FIB) == [89, -55]  # F(-11), F(-10)
        assert _x_pow_mod(0, _FIB) == [1, 0]
        with pytest.raises(ValueError, match="^the power kernel needs"):
            _x_pow_mod(7, (1,))

    def test_needs_monic_chi(self):
        with pytest.raises(ValueError, match="monic"):
            _x_pow_mod(3, (1, 2))
        with pytest.raises(ValueError, match="monic"):
            _x_pow_mod(3, ())

    def test_negative_power_needs_unit_constant_term(self):
        # h(1) = +-1 takes the split, but chi(0) = 3, then 0, has no inverse
        with pytest.raises(ValueError, match=r"^matrix is not unimodular \(det = 3\)$"):
            _x_pow_mod(-1, (3, -3, 1))      # x^2 - 3x + 3
        with pytest.raises(ValueError, match=r"^matrix is not unimodular \(det = 0\)$"):
            _x_pow_mod(-3, (0, 2, -3, 1))   # (x^2 - 2x)(x - 1)
        assert _x_pow_mod(3, (3, -3, 1)) == [-9, 6]

    @given(st.integers(-9, 9), st.sampled_from([1, -1]), st.integers(0, 10))
    @example(-1, -1, 10)   # (x^2 - x - 1)(x - 1)^10, generation 10
    @example(-1, -1, 0)    # x^2 - x - 1, generation 0
    @example(-2, 1, 3)     # h = x^2 - 2x + 2: chi(0) = -2
    @example(0, 1, 4)      # h = x^2: chi(0) = 0
    @settings(max_examples=40, deadline=None)
    def test_matches_long_division(self, b, h1, m):
        # chi = h(x) (x - 1)^m with h = x^2 + b x + c monic and h(1) = h1:
        # every power of x for |e| <= 300 against long division.  The
        # companion of chi has det (-1)^(m+2) chi(0) = h(0) = c
        c = h1 - 1 - b
        chi = (Polynomial((c, b, 1)) * Polynomial((-1, 1)) ** m).coeffs
        for e, expected in enumerate(_step_powers(Polynomial((0, 1)), chi, 301)):
            assert _x_pow_mod(e, chi) == expected, e
        if c not in (1, -1):
            refusal = rf"^matrix is not unimodular \(det = {c}\)$"
            for e in range(1, 301):
                with pytest.raises(ValueError, match=refusal):
                    _x_pow_mod(-e, chi)
            return
        inverse = Polynomial(tuple(-chi[0] * x for x in chi[1:]))   # -c_0 (chi - c_0) / x
        for e, expected in enumerate(_step_powers(inverse, chi, 301)):
            assert _x_pow_mod(-e, chi) == expected, -e

    @given(st.sampled_from([1, -1]), st.sampled_from([1, -1]), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_negative_powers_invert(self, c, h1, m):
        # chi = h(x) (x - 1)^m with h = x^2 + b x + c, h(1) = h1 and h(0) = c
        # = +-1, so chi(0) = +-1: x^-e is the inverse of x^e modulo chi
        chi = (Polynomial((c, h1 - 1 - c, 1)) * Polynomial((-1, 1)) ** m).coeffs
        inverse = Polynomial(tuple(-chi[0] * x for x in chi[1:]))   # -c_0 (chi - c_0) / x
        one = _remainder([1], chi)
        for e, expected in enumerate(_step_powers(inverse, chi, 41)):
            power = _x_pow_mod(-e, chi)
            assert power == expected, -e
            product = Polynomial(power) * Polynomial(_x_pow_mod(e, chi))
            assert _remainder(product.coeffs, chi) == one, e

    @given(st.integers(-9, 9), st.sampled_from([1, -1]), st.integers(0, 10),
           st.lists(st.integers(-300, 300), min_size=1, max_size=4))
    @example(-1, -1, 10, [300, -300, 299, -1])   # (x^2 - x - 1)(x - 1)^10
    @example(-1, -1, 0, [300, -300, 2])          # chi = x^2 - x - 1, chi(1) = -1
    @settings(max_examples=60, deadline=None)
    def test_root_at_one_of_any_multiplicity(self, b, h1, m, exponents):
        # chi = h(x) (x - 1)^m, h = x^2 + b x + c with h(1) = h1 != 0: the
        # split finds the multiplicity m, and m coefficients of x^e in powers
        # of x - 1 stay binomials
        c = h1 - 1 - b
        chi = (Polynomial((c, b, 1)) * Polynomial((-1, 1)) ** m).coeffs
        assert _shift_chi(chi)[0] == (m, chi[0])
        top = max(abs(e) for e in exponents) + 1
        powers = _step_powers(Polynomial((0, 1)), chi, top)
        if chi[0] in (1, -1):
            inverse = Polynomial(tuple(-chi[0] * x for x in chi[1:]))
            inverses = _step_powers(inverse, chi, top)
        for e in exponents:
            if e >= 0:
                assert _x_pow_mod(e, chi) == powers[e], e
                binomials = [comb(e, i) for i in range(m)]
                assert _y_pow_mod(e, *_shift_chi(chi))[:m] == binomials, e
            elif chi[0] in (1, -1):
                assert _x_pow_mod(e, chi) == inverses[-e], e
            else:
                with pytest.raises(ValueError, match="not unimodular"):
                    _x_pow_mod(e, chi)

    @given(st.integers(-9, 9), st.sampled_from([1, -1]), st.integers(1, 10))
    @example(-1, -1, 1)      # chi = (x^2 - x - 1)(x - 1), generation 1
    @settings(max_examples=25, deadline=None)
    def test_root_at_one_with_a_unit_cofactor(self, b, h1, m):
        # chi = h(x) (x - 1)^m, h = x^2 + b x + c monic with h(1) = h1, so
        # the cofactor q(y) = h(1 + y) of y^m has the unit q(0) = h1
        c = h1 - 1 - b
        chi = (Polynomial((c, b, 1)) * Polynomial((-1, 1)) ** m).coeffs
        (v, _), (q, _) = _shift_chi(chi)
        assert (v, q) == (m, [h1, b + 2, 1])
        powers = _step_powers(Polynomial((0, 1)), chi, 501)
        for e, expected in enumerate(powers):
            assert _x_pow_mod(e, chi) == expected, e
        if chi[0] not in (1, -1):
            with pytest.raises(ValueError, match="not unimodular"):
                _x_pow_mod(-1, chi)
            return
        inverse = Polynomial(tuple(-chi[0] * x for x in chi[1:]))
        for e, expected in enumerate(_step_powers(inverse, chi, 501)):
            assert _x_pow_mod(-e, chi) == expected, -e

    @pytest.mark.parametrize("chi, text", [
        ((1,), "1"),
        ((Polynomial((-1, 1)) ** 10).coeffs,
         "x^10 - 10*x^9 + 45*x^8 - 120*x^7 + 210*x^6 - 252*x^5 + 210*x^4 - 120*x^3 "
         "+ 45*x^2 - 10*x + 1"),
        ((-1, -1, 0, 1), "x^3 - x - 1"),
        ((Polynomial((-3, 0, 1)) * Polynomial((-1, 1)) ** 3).coeffs,
         "x^5 - 3*x^4 + 8*x^2 - 9*x + 3"),
        ((2, 0, 1), "x^2 + 2"),
    ])
    def test_refuses_any_other_chi(self, chi, text):
        refusal = ("the power kernel needs chi = (x - 1)^v h(x) with h monic of degree 2 "
                   f"and h(1) = +-1, not {text}")
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            _shift_chi(chi)

    @pytest.mark.parametrize("chi, modulus", [
        # y^2 + y - 1: the cofactor of y^r for r >= 1, and all of d for r = 0
        *((_chi(r).coeffs, [-1, 1, 1]) for r in range(0, 41)),
        # h = x^2 - 3x + 1 has h(1) = -1: d = y^3 (y^2 - y - 1)
        ((Polynomial((1, -3, 1)) * Polynomial((-1, 1)) ** 3).coeffs, [-1, -1, 1]),
    ])
    def test_squares_modulo_the_cofactor_of_the_root_at_one(self, chi, modulus):
        # the split: v = deg chi - 2 binomials, and the pair modulo q
        assert _shift_chi(chi) == ((len(chi) - 3, chi[0]), (modulus, [modulus[1] - 1, 1]))


def _pair_split(d0, d1):
    """``_shift_chi``'s split for d = d0 + d1 y + y^2 taken whole: v = 0, q = d."""
    return (0, d0 - d1 + 1), ([d0, d1, 1], [d1 - 1, 1])   # chi(0) = d(-1)


def _pair_oracle(d0, d1, top):
    """(1 + y)^e mod d for 0 <= e < top, and for -top < e <= 0 when d(-1) = +-1."""
    (_, c0), (d, g) = _pair_split(d0, d1)
    powers = _step_powers(Polynomial((1, 1)), d, top)
    if c0 not in (1, -1):
        return powers, None
    return powers, _step_powers(Polynomial(tuple(-c0 * x for x in g)), d, top)


class TestPowPair:
    @given(st.integers(-9, 9), st.integers(-9, 9))
    @example(-1, 1)   # y^2 + y - 1, the Fibonacci cofactor
    @example(0, 0)    # y^2: 1 + y has no inverse
    @example(2, 1)    # d(-1) = 2
    @settings(max_examples=80, deadline=None)
    def test_matches_long_division(self, d0, d1):
        split = _pair_split(d0, d1)
        powers, inverses = _pair_oracle(d0, d1, 601)
        for e, expected in enumerate(powers):
            assert _y_pow_mod(e, *split) == expected, e
        for e in range(1, 601):
            if inverses is None:
                refusal = rf"^matrix is not unimodular \(det = {d0 - d1 + 1}\)$"
                with pytest.raises(ValueError, match=refusal):
                    _y_pow_mod(-e, *split)
            else:
                assert _y_pow_mod(-e, *split) == inverses[e], -e

    @pytest.mark.parametrize("d0, d1", [(-1, 1), (1, 3), (-4, -2), (9, 9), (-5, -5)])
    def test_around_powers_of_two(self, d0, d1):
        # each d(-1) = +-1; e = +-(2^j +- 1): a run of 0 bits ending in a 1, and a run of 1 bits
        split = _pair_split(d0, d1)
        powers, inverses = _pair_oracle(d0, d1, 2**12 + 2)
        for j in range(13):
            for e in {2**j - 1, 2**j + 1}:
                assert _y_pow_mod(e, *split) == powers[e], e
                assert _y_pow_mod(-e, *split) == inverses[e], -e

    @pytest.mark.parametrize("chi, pairs", [
        *((_chi(r).coeffs, True) for r in range(0, 41)),
        # h(1) = -2: refused before any loop runs
        ((Polynomial((-3, 0, 1)) * Polynomial((-1, 1)) ** 3).coeffs, False),
    ])
    def test_pair_loop_runs_for_every_generation(self, monkeypatch, chi, pairs):
        actual, calls = exact_linalg._pow_pair, []

        def spied(e, d0, d1, g0):
            calls.append((d0, d1, g0))
            return actual(e, d0, d1, g0)

        monkeypatch.setattr(exact_linalg, "_pow_pair", spied)
        if not pairs:
            with pytest.raises(ValueError, match="^the power kernel needs"):
                _shift_chi(chi)
            return
        split = _shift_chi(chi)
        exponents = [0, 1, 2, 7, 600, 20001] + ([-1, -600, -20001] if chi[0] in (1, -1) else [])
        for e in exponents:
            _y_pow_mod(e, *split)
        assert calls == [(-1, 1, 0)] * len(exponents)


def _x_minus(matrix):
    """Entries of xI - matrix, as polynomials."""
    return [
        [Polynomial((-x, 1)) if i == j else Polynomial((-x,)) for j, x in enumerate(row)]
        for i, row in enumerate(matrix.to_rows())
    ]


def _poly_det(rows):
    """Cofactor determinant over polynomial entries; the char_poly oracle."""
    if len(rows) == 1:
        return rows[0][0]
    total = []
    for j, entry in enumerate(rows[0]):
        if not entry.coeffs:
            continue   # a zero entry adds nothing
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = (entry * _poly_det(minor)).coeffs
        total += [0] * (len(term) - len(total))
        for k, c in enumerate(term):
            total[k] += -c if j % 2 else c
    return Polynomial(tuple(total))


class TestCharPoly:
    def test_identity(self):
        assert char_poly(_identity(2)) == Polynomial((1, -2, 1))

    def test_companion_example(self):
        # x^4 - 3x^3 + 2x^2 + x - 1, the negated last row
        assert char_poly(Q4) == Polynomial((-1, 1, 2, -3, 1))

    def test_factorization(self):
        assert char_poly(Q4) == Polynomial((-1, -1, 1)) * Polynomial((-1, 1)) ** 2

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_cofactor_expansion(self, data):
        n = data.draw(st.integers(1, 5))
        ents = data.draw(st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n))
        m = IntMatrix(n, tuple(ents))
        assert char_poly(m) == _poly_det(_x_minus(m))

    @given(st.lists(st.integers(-8, 8), min_size=2, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_companion_coefficients(self, q_row):
        k = len(q_row)
        rows = [[1 if j == i + 1 else 0 for j in range(k)] for i in range(k - 1)]
        rows.append(list(q_row))
        companion = IntMatrix(k, tuple(x for row in rows for x in row))
        expected = Polynomial(tuple(-c for c in q_row) + (1,))
        assert char_poly(companion) == expected
        assert char_poly(companion) == _poly_det(_x_minus(companion))
