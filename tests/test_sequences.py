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

    def test_doubling_matches_matrix_powers(self):
        # [[1, 1], [1, 0]]^n = [[F(n+1), F(n)], [F(n), F(n-1)]], and its
        # inverse [[0, 1], [1, -1]] for n < 0, powered here by 2 x 2 products,
        # at n = +-(2^j + d): the doubling loop's runs of 0 and of 1 bits
        for j in range(17):
            for d in (-1, 0, 1):
                for n in (2**j + d, -(2**j + d)):
                    step = ((1, 1), (1, 0)) if n >= 0 else ((0, 1), (1, -1))
                    (f1, f0), _ = _matrix_power(step, abs(n))
                    assert sequences._fib_pair(n) == (f0, f1), n


def _matrix_product(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def _pair_count_edges(j_max):
    """Step counts 2^j - 2 .. 2^j + 1, j = 1..j_max: after a head of 0 or 1
    steps, _recurrence doubles over the bits of steps // 2, which here is
    2^(j-1) - 1, all ones, or 2^(j-1), a single set bit."""
    return sorted({2**j + d for j in range(1, j_max + 1) for d in (-2, -1, 0, 1)})


def _plain_map(sign, size):
    """(g(size-1), g(size), g(size+1)) of g(-1), g(0) = 1, 0 and g(m+2) =
    g(m) + sign*g(m+1), by a plain loop."""
    x, y = 1, 0
    for _ in range(size):
        x, y = y, x + sign * y
    return x, y, x + sign * y


def _matrix_power(m, e):
    """m^e for e >= 0, by binary powering over 2 x 2 products."""
    result = ((1, 0), (0, 1))
    while e:
        if e & 1:
            result = _matrix_product(result, m)
        m, e = _matrix_product(m, m), e >> 1
    return result


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
        # walks of about 500 to 3000 steps at fixed indices, both signs; the
        # prefix row is held against the same walk: at r = 0 it is F(0..n)
        # itself, and at r = 24 a chain of 24 running sums
        _check_walks(r, n)

    @pytest.mark.parametrize("r", [0, 1, 2, 7, 16, 24])
    def test_walks_across_fold_edges(self, r):
        # walks of q * 16 + head steps, heads of 0, 1 and 15 steps before
        # 16-step block counts of one set bit (1, 2) and of several (3, 6,
        # 11, 95); and the pair-count edges of _recurrence's doubling loop
        # up to 1025 steps
        steps = [q * 16 + head for q in (1, 2, 3, 6, 11, 95) for head in (0, 1, 15)]
        for n in sorted({m for k in steps + _pair_count_edges(10) for m in (k, 1 - k)}):
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
        # walks of n or 1 - n steps 16 * q + d, q <= 40, d = -1, 0, 1; the
        # pair-count edges of the doubling loop up to 2^16 + 1 steps; and,
        # backward, blocks that start at step r - 1, r or r + 1, around the
        # singular step of the carried correction, C(0, r-1) -> C(-1, r-1)
        seq = sequence(r)
        ns = {sign * (16 * q + d) for q in range(41) for d in (-1, 0, 1)}
        ns |= {steps if sign > 0 else 1 - steps for steps in _pair_count_edges(16)}
        if sign < 0:
            ns |= {1 - 16 * q - d for q in range(1, 41) for d in (-1, 0, 1)}
            ns |= {edge - 16 * q for edge in (-r, -r - 1, -2, -3) for q in (1, 2)}
            ns |= {1 - step - 16 * q for step in (r - 1, r, r + 1) for q in (1, 2)}
        for n in sorted(ns):
            assert _recurrence(r, n) == seq.term(n), n

    def test_calls_no_closed_form(self, monkeypatch):
        expected = {n: sequence(5).term(n) for n in (3000, -3000)}

        def closed_form(*args):
            raise AssertionError("the oracle called the closed form")

        def recurrence(*args):
            raise AssertionError("the prefix oracle called the recurrence route")

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
        # column i is the pair that size steps s, t = t, s + sign*(t + b_j)
        # take from (0, 0), with b_j = C(j, i) forward and C(-1-j, i) =
        # (-1)^i * C(i+j, i) backward; at 2q steps, q = 0..56, from the map
        # of two steps to the power q, by 2 x 2 products here, which is the
        # plain loop's (g(size-1), g(size), g(size+1))
        step = ((1, sign), (sign, 2))
        block = ((1, 0), (0, 1))
        for q in range(57):
            size, m = 2 * q, 199 if q == 8 else 40
            plain = block[0][0], block[0][1], block[1][1]
            assert plain == _plain_map(sign, size)
            us, vs = sequences._columns(sign, m, size, plain)
            assert len(us) == len(vs) == m
            for i in range(m):
                s = t = 0
                for j in range(size):
                    b = comb(j, i) if sign > 0 else (-1) ** i * comb(i + j, i)
                    s, t = t, s + sign * (t + b)
                assert (us[i], vs[i]) == (s, t), (size, i)
            block = _matrix_product(block, step)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_map_per_walk(self, monkeypatch, sign):
        # every walk crosses all but its head of 0 or 1 steps in one block,
        # an empty one at 0 and 1 steps: one call for the columns, and two
        # rows of binomials, the columns' and the block's start, whatever
        # the bits of the step count
        actual_columns, actual_binomials = sequences._columns, sequences._binomials
        calls = []

        def columns(*args):
            calls.append("columns")
            return actual_columns(*args)

        def binomials(*args):
            calls.append("binomials")
            return actual_binomials(*args)

        monkeypatch.setattr(sequences, "_columns", columns)
        monkeypatch.setattr(sequences, "_binomials", binomials)
        walks = [*range(16)]
        walks += [q * 16 + head for q in (1, 2, 3, 7, 11, 2**9 - 1, 2**9)
                  for head in (0, 1, 15)]
        for steps in walks + _pair_count_edges(12):
            n = steps if sign > 0 else 1 - steps
            calls.clear()
            _recurrence(7, n)
            assert calls.count("columns") == 1, n
            assert calls.count("binomials") == 2, n

    @pytest.mark.parametrize("r", [0, 1, 2, 7, 16, 60, 200])
    def test_mapped_walks_at_far_indices(self, r):
        # walks of 2^j * 16 + d steps, j <= 10, d = -1, 0, 1; the pair-count
        # edges of the doubling loop up to 2^16 + 1 steps; and walks of about
        # 10^5 steps; both signs
        seq = sequence(r)
        ns = {10**5 + d for d in (-1, 0, 1)} | {-(10**5) - d for d in (-1, 0, 1)}
        steps = [2**j * 16 + d for j in range(11) for d in (-1, 0, 1)]
        ns |= {m for k in steps + _pair_count_edges(16) for m in (k, 1 - k)}
        for n in sorted(ns):
            assert _recurrence(r, n) == seq.term(n), n


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
