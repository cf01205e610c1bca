import hashlib
import re
import sys
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperfib.sequences as sequences
from hyperfib.cassini import SecondOrderPair
from hyperfib.exact_linalg import (
    IntMatrix,
    Polynomial,
    adjugate_inverse,
    char_poly,
    det,
    hankel,
    mat_mul,
    mat_pow,
)
from hyperfib.qmatrix import build_q, reconstruct
from hyperfib.sequences import Strategy, _chi, _power_setup, _y_pow, hyperfib
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


def _x_pow_mod(e, r):
    """x^e mod the chi of generation r in powers of x: the kernel ``_y_pow``, shifted back."""
    return _shift(_y_pow(e, r), -1)


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


def _inverse_powers(chi, count):
    """x^0..x^-(count-1) mod chi, for chi(0) = +-1: each step subtracts
    p(0) chi / chi(0) from p, which leaves a multiple of x, and divides by x."""
    powers = [_remainder([1], chi)]
    while len(powers) < count:
        p = powers[-1]
        t = p[0] * chi[0]
        powers.append([a - t * c for a, c in zip(p[1:] + [0], chi[1:])])
    return powers


def _near_powers_of_two(step, back, chi):
    """{e: step^e mod chi} at e = 2^j +- 1, j <= 12, with back = step^-1 mod chi.

    step^(2^j) takes j squarings, each product reduced by long division:
    2^j + 1 is a run of 0 bits ending in a 1, and 2^j - 1 a run of 1 bits.
    """
    powers, power = {}, _remainder(step.coeffs, chi)
    for j in range(13):
        if j:
            power = _remainder((Polynomial(power) * Polynomial(power)).coeffs, chi)
        for e, factor in ((2**j - 1, back), (2**j + 1, step)):
            powers[e] = _remainder((Polynomial(power) * factor).coeffs, chi)
    return powers


def _inverse(chi):
    """x^-1 mod chi, -c_0 (chi - c_0) / x, for chi(0) = c_0 = +-1."""
    return Polynomial(tuple(-chi[0] * x for x in chi[1:]))


def _comb(e, i):
    """C(e, i) for any integer e, with C(e, i) = (-1)^i C(i - e - 1, i) for e < 0."""
    return comb(e, i) if e >= 0 else (-1) ** i * comb(i - e - 1, i)


def _rig_weights(monkeypatch, chi):
    """Make ``sequences._weights`` give the weight row of the monic chi at every r."""
    monkeypatch.setattr(sequences, "_weights", lambda f, k: tuple(-c for c in chi[:-1]))


_GENERATIONS = [*range(41), 60]
_EXPONENTS = [*range(-300, 301),
              *(s * (2**j + d) for j in range(13) for d in (-1, 1) for s in (1, -1)),
              *(s * (10**5 + j) for j in range(-3, 4) for s in (1, -1))]
_PAPER_CHI = [_chi(r).coeffs for r in range(41)]


class TestXPowMod:
    """``sequences._y_pow``: x^e mod the chi of generation r, (x^2 - x - 1)(x - 1)^r."""

    def test_worked_powers(self):
        assert _x_pow_mod(4, 0) == [2, 3]       # x^4 = 3x + 2
        assert _x_pow_mod(10, 0) == [34, 55]    # F(9), F(10)
        assert _x_pow_mod(-1, 0) == [-1, 1]     # x^-1 = x - 1
        assert _x_pow_mod(-10, 0) == [89, -55]  # F(-11), F(-10)
        assert _x_pow_mod(0, 0) == [1, 0]
        assert _x_pow_mod(3, 1) == [-1, 0, 2]   # x^3 = 2x^2 - 1 mod x^3 - 2x^2 + 1
        assert _y_pow(-1, 0) == [0, 1]          # (1 + y)^-1 = y mod y^2 + y - 1

    def test_negative_power_needs_unit_constant_term(self):
        # chi(0) = (-1)^(r+1) at every r, so x is a unit modulo chi and no
        # negative power needs a refusal
        for r in range(61):
            chi = _chi(r).coeffs
            assert chi[0] == (-1) ** (r + 1), r
            assert _x_pow_mod(-1, r) == _remainder(_inverse(chi).coeffs, chi), r

    def test_matches_long_division(self):
        # every e in -300..300, and e = +-(2^j +- 1) for j <= 12
        x = Polynomial((0, 1))
        for r in _GENERATIONS:
            chi = _chi(r).coeffs
            inverse = _inverse(chi)
            for e, expected in enumerate(_step_powers(x, chi, 301)):
                assert _x_pow_mod(e, r) == expected, (r, e)
            for e, expected in enumerate(_inverse_powers(chi, 301)):
                assert _x_pow_mod(-e, r) == expected, (r, -e)
            for e, expected in _near_powers_of_two(x, inverse, chi).items():
                assert _x_pow_mod(e, r) == expected, (r, e)
            for e, expected in _near_powers_of_two(inverse, x, chi).items():
                assert _x_pow_mod(-e, r) == expected, (r, -e)

    def test_far_powers_are_unchanged(self):
        # e = +-(10^5 + j), j = -3..3: the sha256 of the hex coefficients
        # that the earlier kernel gave, which split any chi = (x - 1)^v h(x)
        # and squared the pair modulo h(1 + y)
        powers = [_y_pow(s * (10**5 + j), r)
                  for r in _GENERATIONS for j in range(-3, 4) for s in (1, -1)]
        text = ";".join(",".join(map(hex, p)) for p in powers)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ddf168f9c945de30743c9033f82eaccc3684b212fffe2af97811e936dfbdef2d")

    @given(st.integers(0, 20), st.integers(0, 10**4))
    @example(0, 10**4)
    @example(16, 1)
    @settings(max_examples=40, deadline=None)
    def test_negative_powers_invert(self, r, e):
        # x^-e is the inverse of x^e modulo chi: their product is 1
        chi = _chi(r).coeffs
        product = Polynomial(_x_pow_mod(-e, r)) * Polynomial(_x_pow_mod(e, r))
        assert _remainder(product.coeffs, chi) == _remainder([1], chi)

    def test_root_at_one_of_any_multiplicity(self):
        # x = 1 is a root of chi of multiplicity r, so modulo y^r the power
        # is the binomials C(e, 0..r-1), for e < 0 too
        for r in _GENERATIONS:
            for e in _EXPONENTS:
                assert _y_pow(e, r)[:r] == [_comb(e, i) for i in range(r)], (r, e)

    def test_root_at_one_with_a_unit_cofactor(self):
        # in powers of y = x - 1, chi is y^r (y^2 + y - 1): the cofactor of
        # the root x = 1 has the unit q(0) = -1 at every r
        for r in range(61):
            assert _shift(_chi(r).coeffs, 1) == [0] * r + [-1, 1, 1], r

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
    def test_refuses_any_other_chi(self, monkeypatch, chi, text):
        # a weight row whose chi is not the paper's is refused with its
        # text; chi = 1 is an empty row at r = 0, of the wrong length
        _rig_weights(monkeypatch, chi)
        refusal = f"the power kernel needs chi = (x^2 - x - 1)(x - 1)^r, not {text}"
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            _power_setup(max(len(chi) - 3, 0), 1)

    @pytest.mark.parametrize("chi, modulus", [
        # y^2 + y - 1: the cofactor of y^r for r >= 1, and all of d for r = 0
        *((chi, [-1, 1, 1]) for chi in _PAPER_CHI),
        # h = x^2 - 3x + 1 has h(1) = -1: d = y^3 (y^2 - y - 1)
        ((Polynomial((1, -3, 1)) * Polynomial((-1, 1)) ** 3).coeffs, [-1, -1, 1]),
    ])
    def test_squares_modulo_the_cofactor_of_the_root_at_one(self, monkeypatch, chi, modulus):
        # every d = chi(1 + y) here is y^r q, q monic of degree 2 with q(0) =
        # -1, but only the Fibonacci cofactor q = y^2 + y - 1 is the paper's
        r = len(chi) - 3
        assert _shift(chi, 1) == [0] * r + modulus
        _rig_weights(monkeypatch, chi)
        if modulus == [-1, 1, 1]:
            assert len(_power_setup(r, 1)) == r + 2
        else:
            with pytest.raises(ValueError, match="^the power kernel needs"):
                _power_setup(r, 1)


class TestPowPair:
    """(1 + y)^e mod y^2 + y - 1 is the Fibonacci pair F(e+1) + F(e) y."""

    def test_matches_long_division(self):
        # ``_y_pow`` at r = 0 is the pair, at every e in -600..600; the inverse of 1 + y is y
        d, step, back = [-1, 1, 1], Polynomial((1, 1)), Polynomial((0, 1))
        for e, expected in enumerate(_step_powers(step, d, 601)):
            assert _y_pow(e, 0) == expected, e
        for e, expected in enumerate(_step_powers(back, d, 601)):
            assert _y_pow(-e, 0) == expected, -e

    @pytest.mark.parametrize("d0, d1", [(-1, 1)])   # y^2 + y - 1, the Fibonacci cofactor
    def test_around_powers_of_two(self, d0, d1):
        # e = +-(2^j +- 1), j <= 12: a run of 0 bits ending in a 1, and a run of 1 bits
        d, step, back = [d0, d1, 1], Polynomial((1, 1)), Polynomial((0, 1))
        for e, expected in _near_powers_of_two(step, back, d).items():
            assert _y_pow(e, 0) == expected, e
        for e, expected in _near_powers_of_two(back, step, d).items():
            assert _y_pow(-e, 0) == expected, -e

    @pytest.mark.parametrize("chi, pairs", [
        *((chi, True) for chi in _PAPER_CHI),
        # h(1) = -2: refused before any power is taken
        ((Polynomial((-3, 0, 1)) * Polynomial((-1, 1)) ** 3).coeffs, False),
    ])
    def test_pair_loop_runs_for_every_generation(self, monkeypatch, chi, pairs):
        # each power reads one Fibonacci pair, at its own exponent
        r, calls = len(chi) - 3, []

        def spy(name):
            actual = getattr(sequences, name)

            def spied(e, *args):
                calls.append(e)
                return actual(e, *args)

            monkeypatch.setattr(sequences, name, spied)

        if not pairs:
            _rig_weights(monkeypatch, chi)
            spy("_y_pow")
            with pytest.raises(ValueError, match="^the power kernel needs"):
                hyperfib(r, 10, Strategy.MATRIX_POWER)
            assert calls == []
            return
        spy("_fib_pair")
        exponents = [0, 1, 2, 7, 600, 20001, -1, -600, -20001]
        for e in exponents:
            _y_pow(e, r)
        assert calls == exponents


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
