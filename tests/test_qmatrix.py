from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfib.cassini import build_window
from hyperfib.exact_linalg import det, mat_mul
from hyperfib.qmatrix import (
    QMatrix,
    _power_setup,
    _power_terms,
    build_q,
    infer_recurrence,
    q_closed_tail,
    reconstruct,
)
from hyperfib.sequences import HyperfibSequence, Strategy, hyperfib, sequence
from test_exact_linalg import _x_pow_mod


class TestBuildQ:
    def test_second_generation(self):
        qm = build_q(2)
        assert qm.q == (1, -1, -2, 3)
        assert qm.matrix.to_rows() == [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, -1, -2, 3],
        ]

    def test_generation_zero_is_classical(self):
        assert build_q(0).q == (1, 1)
        assert build_q(0).matrix.to_rows() == [[0, 1], [1, 1]]

    def test_first_generation(self):
        # matches the three-term form F(n+3) = 2 F(n+2) - F(n)
        assert build_q(1).q == (-1, 0, 2)

    def test_rejects_negative_generation(self):
        with pytest.raises(ValueError):
            build_q(-1)

    @pytest.mark.parametrize("r", range(0, 7))
    def test_weights_run_the_sequence(self, r):
        q = build_q(r).q
        for n in range(-10, 41):
            assert hyperfib(r, n + r + 2) == sum(
                q[i] * hyperfib(r, n + i) for i in range(r + 2)
            ), (r, n)

    @pytest.mark.parametrize("r", range(1, 11))
    def test_determinant_is_minus_one(self, r):
        assert det(build_q(r).matrix) == -1


class TestClosedTail:
    @pytest.mark.parametrize("r, tail", [
        (1, (-1, 0, 2)),
        (2, (-1, -2, 3)),
        (3, (1, -5, 4)),
    ])
    def test_values(self, r, tail):
        assert q_closed_tail(r) == tail

    @pytest.mark.parametrize("r", range(1, 13))
    def test_matches_build_q(self, r):
        assert q_closed_tail(r) == build_q(r).q[-3:]

    def test_undefined_at_zero(self):
        with pytest.raises(ValueError):
            q_closed_tail(0)


class TestReconstruct:
    def test_power_zero(self):
        assert reconstruct(2, 0) == build_window(4, 0, 2)

    def test_worked_example(self):
        assert reconstruct(2, 3).to_rows() == [
            [7, 14, 26, 46],
            [14, 26, 46, 79],
            [26, 46, 79, 133],
            [46, 79, 133, 221],
        ]

    def test_negative_index(self):
        assert reconstruct(2, -3).entries[0] == 1   # F(-3) of generation 2

    @pytest.mark.parametrize("r", [-1, -2, -5])
    def test_rejects_negative_generation(self, r):
        with pytest.raises(ValueError, match="^generation must be >= 0$"):
            reconstruct(r, 5)

    @pytest.mark.parametrize("r", range(0, 5))
    def test_equals_direct_window(self, r):
        for n in range(-10, 41):
            assert reconstruct(r, n) == build_window(r + 2, n, r), (r, n)

    @pytest.mark.parametrize("r", range(0, 17))
    def test_q_steps_the_window(self, r):
        # reconstruct takes the window at i as Q^i times the window at 0
        # without multiplying by Q; this ties Q itself to that step
        q = build_q(r).matrix
        for i in range(r + 2):
            assert mat_mul(q, build_window(r + 2, i, r)) == build_window(r + 2, i + 1, r), i

    @pytest.mark.parametrize("r", [0, 1, 5, 12])
    @pytest.mark.parametrize("n", [10**4, -10**4])
    def test_reads_the_closed_form_only_at_zero(self, monkeypatch, r, n):
        # matpow takes its run at 0 from the recurrence walk and reads no
        # closed form at all, so it stays an oracle independent of it;
        # build_q still seeds its run at 0 from the closed form
        seeds = []
        actual = HyperfibSequence._seed

        def recorded(self, start):
            seeds.append(start)
            return actual(self, start)

        monkeypatch.setattr(HyperfibSequence, "_seed", recorded)
        window = reconstruct(r, n)
        assert seeds == []
        value = hyperfib(r, n, Strategy.MATRIX_POWER)
        assert seeds == []
        build_q(r)
        assert seeds == [0]
        monkeypatch.undo()
        assert window == build_window(r + 2, n, r)
        assert value == sequence(r).term(n)

    @pytest.mark.parametrize("r", range(0, 17))
    def test_matpow_is_the_closed_form_on_the_terms_grid(self, r):
        for n in (20_000, -20_000):
            assert hyperfib(r, n, Strategy.MATRIX_POWER) == sequence(r).term(n), n

    @pytest.mark.parametrize("r", range(0, 17))
    def test_matpow_term_is_the_top_left_entry(self, r):
        for n in [-10**4, *range(-50, 51), 10**4]:
            assert hyperfib(r, n, Strategy.MATRIX_POWER) == reconstruct(r, n).entries[0], n


def _x_basis_terms(r, n, count):
    """F_r(n..n+count-1) as sum p_i F_r(i+j), p = x^n mod chi, in powers of x."""
    k = r + 2
    run = sequence(r).terms(0, 3 * k - 2)
    p = _x_pow_mod(n, r)
    return [sum(c * run[i + j] for i, c in enumerate(p)) for j in range(count)]


class TestPowerTerms:
    @pytest.mark.parametrize("r", range(0, 17))
    def test_matches_the_x_basis_formula(self, r):
        for count in (1, 2 * r + 3):
            setup = _power_setup(r, count)
            for n in (0, 1, -1, 2, -2, 513, -513, 20_000, -20_000):
                assert _power_terms(setup, n, count) == _x_basis_terms(r, n, count), (n, count)


@st.composite
def _recurrence_inputs(draw, kind):
    # (terms, max_order, k): terms stepped by random integer weights of order
    # k <= max_order from random initial values, or any integers (k None);
    # 2 * max_order to 2 * max_order + 4 terms
    max_order = draw(st.integers(1, 5))
    length = 2 * max_order + draw(st.integers(0, 4))
    if kind == "arbitrary":
        terms = draw(st.lists(st.integers(-9, 9), min_size=length, max_size=length))
        return terms, max_order, None
    k = draw(st.integers(1, max_order))
    weights = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    terms = draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
    while len(terms) < length:
        terms.append(sum(w * t for w, t in zip(weights, terms[-k:])))
    return terms, max_order, k


def _fits(terms, weights):
    # a(j+k) = sum_i c_i * a(j+i-1) for every window of the terms
    k = len(weights)
    return all(sum(c * t for c, t in zip(weights, terms[j:j + k])) == terms[j + k]
               for j in range(len(terms) - k))


class TestInferRecurrence:
    def test_fibonacci(self):
        assert infer_recurrence([0, 1, 1, 2, 3, 5, 8, 13], 4) == [1, 1]

    def test_second_generation(self):
        prefix = [0, 1, 3, 7, 14, 26, 46, 79, 133, 221]
        assert infer_recurrence(prefix, 5) == [1, -1, -2, 3]

    def test_constant(self):
        assert infer_recurrence([5, 5, 5, 5], 2) == [1]

    def test_no_recurrence_found(self):
        assert infer_recurrence([1, 1, 2, 6, 24, 120], 2) == []

    def test_rational_coefficients(self):
        assert infer_recurrence([4, 2, 1], 1) == [Fraction(1, 2)]

    def test_insufficient_terms(self):
        with pytest.raises(ValueError):
            infer_recurrence([1, 2, 3], 2)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            infer_recurrence([1, 2, 3, 4], 0)

    @pytest.mark.parametrize(
        ("terms", "max_order", "expected"),
        [
            ([0] * 6, 3, [0]),
            ([5, 1, 2, 4, 8, 16], 3, [0, 2]),   # first weight zero at the least order
            ([0, 0, 0, 1], 2, []),
            ([0, 0, 1, 0, 0, 1], 3, [1, 0, 0]),
            ([Fraction(1, 2), 1, 2, 4], 2, [2]),
            ([1, -1, 1, -1], 2, [-1]),
        ],
    )
    def test_degenerate_inputs(self, terms, max_order, expected):
        assert infer_recurrence(terms, max_order) == expected

    @given(_recurrence_inputs("generated"))
    @settings(max_examples=150, deadline=None)
    def test_finds_a_recurrence_no_longer_than_the_generating_one(self, case):
        terms, max_order, k = case
        found = infer_recurrence(terms, max_order)
        assert found and len(found) <= k
        assert _fits(terms, found)

    @given(_recurrence_inputs("arbitrary"))
    @settings(max_examples=150, deadline=None)
    def test_any_recurrence_found_fits_every_window(self, case):
        terms, max_order, _ = case
        found = infer_recurrence(terms, max_order)
        assert not found or _fits(terms, found)

    @pytest.mark.parametrize("r", range(0, 31))
    def test_agrees_with_back_substitution(self, r):
        order = r + 2
        prefix = sequence(r).terms(0, 2 * order + 4)
        assert infer_recurrence(prefix, order + 1) == list(build_q(r).q)


class TestQMatrixType:
    def test_fields(self):
        qm = build_q(3)
        assert isinstance(qm, QMatrix)
        assert qm.r == 3
        assert len(qm.q) == 5
        assert qm.matrix.rows == 5
        # shifted identity above the coefficient row
        rows = qm.matrix.to_rows()
        for i in range(4):
            for j in range(5):
                assert rows[i][j] == (1 if j == i + 1 else 0)
