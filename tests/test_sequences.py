import tracemalloc
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperfib.sequences as sequences
from hyperfib.sequences import (
    _FOLD,
    HyperfibSequence,
    Strategy,
    _prefix_row,
    _recurrence,
    _walk,
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
        # one walk each way yields F(0..3000) and F(1..-3000)
        forward = list(islice(_walk(0, 1), 3001))
        backward = list(islice(_walk(0, -1), 3002))
        assert [fibonacci(n) for n in range(0, 3001)] == forward
        assert [fibonacci(n) for n in range(1, -3001, -1)] == backward


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

    @pytest.mark.parametrize("r", [*range(0, 21), 40, 60])
    def test_matpow_at_large_generation_and_index(self, r):
        # the matpow power carries C(n, i) for i < r in every result, so the
        # binomials are checked up to i = 59 and |n| = 20000 against the closed form
        near = {1, 20000} | {m for j in range(15) for m in (2**j - 1, 2**j, 2**j + 1)}
        for n in sorted(near | {-m for m in near}):
            assert hyperfib(r, n, Strategy.MATRIX_POWER) == sequence(r).term(n), (r, n)


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


def _check_walks(r, n):
    # the walk's first steps + 1 terms, W(0..steps), are F_r(0..n) forward
    # and F_r(1), F_r(0), ..., F_r(n) backward, and _recurrence is the last
    sign, steps = (1, n) if n >= 0 else (-1, 1 - n)
    walked = list(islice(_walk(r, sign), steps + 1))
    assert walked == (sequence(r).terms(0, n + 1) if n >= 0
                      else sequence(r).terms(n, 2)[::-1])
    assert walked[-1] == _recurrence(r, n)
    if n >= 0:
        assert list(_prefix_row(r, n)) == walked


class TestWalks:
    @pytest.mark.parametrize("r", range(0, 11))
    def test_edges(self, r):
        # the zero run ends at -r, where the backward correction restarts
        for n in sorted({0, 1, -1, -2, -r + 1, -r, -r - 1, -r - 2}):
            _check_walks(r, n)

    @given(st.integers(0, 10), st.integers(-300, 300))
    @settings(max_examples=150, deadline=None)
    def test_walks_are_the_terms(self, r, n):
        _check_walks(r, n)

    @pytest.mark.parametrize(
        "n", [512, -512, 513, -513, 1024, -1025, 1535, -1537, 1500, -1500, 3000, -3000,
              -511, -1023, -1022, -1534, 511, 1023]
    )
    @pytest.mark.parametrize("r", [0, 1, 2, 7, 16, 24])
    def test_walks_across_folds(self, r, n):
        # _recurrence crosses the n or 1 - n steps in blocks of 512, the
        # partial one first by the walk, then one map per full block; 512,
        # 1024, -511 and -1023 have no partial block, 513 and -512 one of 1
        # step, 1535 and -1022 one of 511 steps.  The prefix row is held
        # against the same walk: at r = 0 it is F(0..n) itself, and at
        # r = 24 a chain of 24 running sums
        _check_walks(r, n)

    def test_prefix_row_holds_a_few_values(self):
        # the row F_3(0..30000) of terms up to about 6,300 digits would take
        # about 80 MiB at once; the lazy running sums hold r + 2 = 5 values
        # of at most about 2.6 KiB each
        tracemalloc.start()
        try:
            [last] = deque(_prefix_row(3, 30_000), maxlen=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert last == sequence(3).term(30_000)
        assert peak < 256 * 2**10

    @given(st.integers(0, 210), st.integers(-6000, 6000))
    @settings(max_examples=60, deadline=None)
    def test_mapped_walks_are_the_terms(self, r, n):
        # the big pair crosses each full block by one map, the small pair by
        # the columns
        assert _recurrence(r, n) == sequence(r).term(n)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("r", [0, 1, 2, 7, 16, 199, 200, 260])
    def test_mapped_walks_at_block_edges(self, r, sign):
        # walks of n or 1 - n steps with no partial block, one of 1 step or
        # one of 511 steps, up to 40 full blocks; backward, full blocks that
        # start at step r - 1, r or r + 1, around the singular step of the
        # carried correction, C(0, r-1) -> C(-1, r-1)
        seq = sequence(r)
        ns = {sign * (_FOLD * q + d) for q in range(41) for d in (-1, 0, 1)}
        if sign < 0:
            ns |= {1 - _FOLD * q - d for q in range(1, 41) for d in (-1, 0, 1)}
            ns |= {edge - _FOLD * q for edge in (-r, -r - 1, -2, -3) for q in (1, 2)}
            ns |= {1 - step - _FOLD * q for step in (r - 1, r, r + 1) for q in (1, 2)}
        for n in sorted(ns):
            assert _recurrence(r, n) == seq.term(n), n

    def test_calls_no_closed_form(self, monkeypatch):
        expected = {n: sequence(5).term(n) for n in (3000, -3000)}

        def closed_form(*args):
            raise AssertionError("the oracle called the closed form")

        def recurrence(*args):
            raise AssertionError("the prefix oracle called the recurrence route")

        # an empty cache, so the plain map is walked here too
        sequences._plain.cache_clear()
        monkeypatch.setattr(sequences, "_fib_pair", closed_form)
        monkeypatch.setattr(HyperfibSequence, "_seed", closed_form)
        for n, value in expected.items():
            assert _recurrence(5, n) == value
        # the prefix route calls neither the closed form nor a generation-r walk
        monkeypatch.setattr(sequences, "_walk", recurrence)
        monkeypatch.setattr(sequences, "_recurrence", recurrence)
        assert hyperfib(5, 3000, Strategy.PREFIX_SUM) == expected[3000]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_columns_are_their_definition(self, sign):
        # column i is the pair that _FOLD steps s, t = t, s + sign*(t + b_j)
        # take from (0, 0), with b_j = C(j, i) forward and C(-1-j, i) =
        # (-1)^i * C(i+j, i) backward
        m = 199
        us, vs = sequences._columns(sign, m)
        assert len(us) == len(vs) == m
        for i in range(m):
            s = t = 0
            for j in range(_FOLD):
                b = comb(j, i) if sign > 0 else (-1) ** i * comb(i + j, i)
                s, t = t, s + sign * (t + b)
            assert (us[i], vs[i]) == (s, t), i


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
