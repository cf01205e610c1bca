import math
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfib.sequences import (
    HyperfibSequence,
    Strategy,
    binomial_poly,
    fibonacci,
    hyperfib,
    sequence,
)

ALL_STRATEGIES = (Strategy.PREFIX_SUM, Strategy.RECURRENCE, Strategy.MATRIX_POWER)


class TestFibonacci:
    def test_initial_value(self):
        assert fibonacci(0) == 0
        assert fibonacci(1) == 1

    def test_forward(self):
        assert fibonacci(10) == 55

    def test_backward(self):
        assert fibonacci(-4) == -3

    @given(st.integers(1, 300))
    def test_negafibonacci_oracle(self, n):
        assert fibonacci(-n) == (-1) ** (n + 1) * fibonacci(n)

    def test_doubling_matches_recurrence(self):
        expected = [hyperfib(0, n, Strategy.RECURRENCE) for n in range(-3000, 3001)]
        assert [fibonacci(n) for n in range(-3000, 3001)] == expected


class TestBinomialPoly:
    def test_ordinary(self):
        assert binomial_poly(5, 2) == 10

    @pytest.mark.parametrize("t", [-7, -1, 0, 3, 100])
    def test_empty_product(self, t):
        assert binomial_poly(t, 0) == 1

    def test_negative_upper(self):
        assert binomial_poly(-1, 2) == 1   # (-1)(-2)/2

    def test_rejects_negative_lower(self):
        with pytest.raises(ValueError):
            binomial_poly(3, -1)

    @given(st.integers(-60, 60), st.integers(0, 12))
    def test_falling_factorial_oracle(self, t, k):
        numerator = math.prod(t - i for i in range(k))
        q, rem = divmod(numerator, math.factorial(k))
        assert rem == 0
        assert binomial_poly(t, k) == q

    @given(st.integers(0, 80), st.integers(0, 12))
    def test_matches_comb_for_nonnegative(self, t, k):
        assert binomial_poly(t, k) == math.comb(t, k)


def _correction(r, n):
    """F(n+2) - F(n+1) - F(n) of generation r, by the closed form per term."""
    seq = sequence(r)
    return seq.term(n + 2) - seq.term(n + 1) - seq.term(n)


def _figurate(d, count):
    """The first count d-dimensional figurate numbers: d-fold running sums of 1s."""
    row = [1] * count
    for _ in range(d):
        row = [sum(row[:i + 1]) for i in range(count)]
    return row


class TestPolytopic:
    """The correction term of generation r runs the (r-1)-topic numbers."""

    def test_triangular(self):
        assert [_correction(3, n) for n in range(-1, 7)] == [1, 3, 6, 10, 15, 21, 28, 36]

    def test_naturals(self):
        assert [_correction(2, n) for n in range(-1, 7)] == [1, 2, 3, 4, 5, 6, 7, 8]

    @pytest.mark.parametrize("r", range(1, 9))
    def test_first_term_is_one(self, r):
        assert _correction(r, -1) == 1

    @pytest.mark.parametrize("r", range(2, 7))
    def test_correction_term_is_polytopic(self, r):
        assert [_correction(r, n) for n in range(-1, 39)] == _figurate(r - 1, 40)


class TestHyperfib:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_worked_value(self, strategy):
        assert hyperfib(2, 9, strategy) == 221

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("r", range(0, 7))
    def test_zero_start(self, r, strategy):
        assert hyperfib(r, 0, strategy) == 0

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_second_generation_small(self, strategy):
        assert hyperfib(2, 2, strategy) == 3

    def test_first_generation_prefix_sums(self):
        # cumulative sums of 0, 1, 1, 2, 3, 5
        assert hyperfib(1, 5, Strategy.PREFIX_SUM) == 12

    def test_backward_values(self):
        assert hyperfib(2, -1, Strategy.RECURRENCE) == 0
        assert hyperfib(1, -2, Strategy.RECURRENCE) == -1
        assert hyperfib(3, -4, Strategy.RECURRENCE) == -1

    def test_generation_zero_is_fibonacci(self):
        for n in range(-15, 30):
            assert hyperfib(0, n) == fibonacci(n)

    def test_prefix_rejects_negative_index(self):
        with pytest.raises(ValueError):
            hyperfib(1, -5, Strategy.PREFIX_SUM)

    def test_rejects_negative_generation(self):
        with pytest.raises(ValueError):
            hyperfib(-1, 3)

    def test_cross_strategy_agreement(self):
        # the acceptance suite runs the full declared ranges
        for r in range(0, 4):
            for n in range(0, 61):
                values = {hyperfib(r, n, s) for s in ALL_STRATEGIES}
                assert len(values) == 1, (r, n, values)
            for n in range(-15, 0):
                assert hyperfib(r, n, Strategy.RECURRENCE) == hyperfib(
                    r, n, Strategy.MATRIX_POWER
                ), (r, n)


class TestIdentities:
    @pytest.mark.parametrize("r", range(1, 6))
    def test_difference_drops_one_generation(self, r):
        for n in range(-20, 101):
            assert hyperfib(r, n + 1) - hyperfib(r, n) == hyperfib(r - 1, n + 1)

    @given(st.integers(1, 6), st.integers(-40, 120))
    @settings(max_examples=60)
    def test_difference_property(self, r, n):
        assert hyperfib(r, n + 1) - hyperfib(r, n) == hyperfib(r - 1, n + 1)

    def test_first_generation_three_term_form(self):
        for n in range(-10, 101):
            assert hyperfib(1, n + 3) == 2 * hyperfib(1, n + 2) - hyperfib(1, n)

    def test_second_generation_linear_correction(self):
        for n in range(0, 101):
            assert hyperfib(2, n + 2) == hyperfib(2, n + 1) + hyperfib(2, n) + n + 2

    def test_first_generation_closed_form(self):
        for n in range(0, 201):
            assert hyperfib(1, n) == fibonacci(n + 2) - 1

    @pytest.mark.parametrize("r", range(1, 25))
    def test_zero_run_and_corner(self, r):
        assert all(hyperfib(r, n) == 0 for n in range(-r, 1))
        assert hyperfib(r, -r - 1) == (-1) ** r


class TestHyperfibSequence:
    def test_rejects_negative_generation(self):
        with pytest.raises(ValueError):
            HyperfibSequence(-2)

    def test_term_matches_recurrence(self):
        seq = HyperfibSequence(3)
        for n in range(-12, 40):
            assert seq.term(n) == hyperfib(3, n, Strategy.RECURRENCE)

    def test_terms_range(self):
        assert HyperfibSequence(1).terms(-3, 6) == [0, -1, 0, 0, 1, 2, 4, 7, 12]

    @given(st.integers(0, 24), st.integers(-400, 400), st.integers(0, 40))
    @settings(max_examples=150)
    def test_terms_match_recurrence(self, r, start, length):
        # runs may be empty, cross the zero run at -r..0, or step through
        # k = -2, where the carried correction restarts
        assert sequence(r).terms(start, start + length) == [
            hyperfib(r, k, Strategy.RECURRENCE) for k in range(start, start + length)
        ]

    def test_concurrent_terms_agree(self):
        seq = HyperfibSequence(2)
        indices = [n for n in range(-80, 200)] * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(seq.term, indices))
        expected = {n: hyperfib(2, n) for n in range(-80, 200)}
        assert results == [expected[n] for n in indices]
