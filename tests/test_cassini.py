import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfib.cassini import (
    SecondOrderPair,
    build_window,
    cassini_det,
    general_cassini,
    general_cassini_walk,
    predicted_sign,
    shifted_fib_det,
    zero_det_check,
)
from hyperfib.exact_linalg import det
from hyperfib.qmatrix import build_q, reconstruct
from hyperfib.sequences import fibonacci, hyperfib


def _parity_sign(n):
    return -1 if n % 2 else 1


class TestBuildWindow:
    def test_worked_example(self):
        assert build_window(4, 3, 2).to_rows() == [
            [7, 14, 26, 46],
            [14, 26, 46, 79],
            [26, 46, 79, 133],
            [46, 79, 133, 221],
        ]

    def test_single_entry(self):
        for r, n in [(0, 5), (2, -3), (3, 10)]:
            assert build_window(1, n, r).to_rows() == [[hyperfib(r, n)]]

    def test_first_generation(self):
        assert build_window(3, 0, 1).to_rows() == [
            [0, 1, 2],
            [1, 2, 4],
            [2, 4, 7],
        ]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_window(0, 0, 1)

    @given(st.integers(1, 6), st.integers(-10, 30), st.integers(0, 5))
    @settings(max_examples=60)
    def test_symmetry_and_corners(self, m, n, r):
        w = build_window(m, n, r)
        assert all(w.get(i, j) == w.get(j, i) for i in range(m) for j in range(m))
        assert w.get(0, 0) == hyperfib(r, n)
        assert w.get(m - 1, m - 1) == hyperfib(r, n + 2 * m - 2)


class TestPredictedSign:
    def test_examples(self):
        assert predicted_sign(1, 0) == 1
        assert predicted_sign(2, 3) == -1
        assert predicted_sign(2, 0) == 1

    def test_rejects_generation_zero(self):
        with pytest.raises(ValueError):
            predicted_sign(0, 4)


class TestCassiniDet:
    def test_worked_example(self):
        assert cassini_det(2, 3) == -1

    def test_first_generation_alternates(self):
        for n in range(0, 6):
            assert cassini_det(1, n) == _parity_sign(n)

    def test_classical_two_by_two(self):
        # F_1 F_3 - F_2^2 = 2 - 1
        assert cassini_det(0, 1) == 1

    def test_classical_cassini_identity(self):
        for n in range(1, 101):
            assert fibonacci(n - 1) * fibonacci(n + 1) - fibonacci(n) ** 2 == _parity_sign(n)

    def test_two_by_two_window_sign_flips(self):
        # det [[F_n, F_{n+1}], [F_{n+1}, F_{n+2}]] is (-1)^(n+1): the window
        # determinant equals -(F_{n-1}F_{n+1} - F_n^2) after a shift, and the
        # r >= 1 sign formula extended to r = 0 gives the same exponent
        for n in range(0, 31):
            assert cassini_det(0, n) == _parity_sign(n + 1)


class TestShiftedFibDet:
    def test_small_values(self):
        assert shifted_fib_det(0) == 1
        assert shifted_fib_det(1) == -1
        assert shifted_fib_det(4) == 1

    def test_alternates(self):
        for n in range(0, 51):
            assert shifted_fib_det(n) == _parity_sign(n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            shifted_fib_det(-1)


class TestZeroDet:
    @pytest.mark.parametrize("m, n, r", [(4, 0, 1), (6, -2, 2), (5, 7, 0)])
    def test_examples(self, m, n, r):
        assert zero_det_check(m, n, r) == 0

    def test_rejects_small_windows(self):
        with pytest.raises(ValueError):
            zero_det_check(4, 0, 2)

    def test_sweep(self):
        for r in range(0, 3):
            for m in range(r + 3, r + 6):
                for n in range(-4, 11):
                    assert zero_det_check(m, n, r) == 0, (m, n, r)


class TestGeneralCassini:
    def test_fibonacci_lucas(self):
        pair = SecondOrderPair(alpha=1, beta=1, a0=0, a1=1, b0=2, b1=1)
        assert general_cassini(pair, 2) == (-2, -2)

    def test_identical_sequences(self):
        pair = SecondOrderPair(alpha=3, beta=-2, a0=1, a1=4, b0=1, b1=4)
        lhs, rhs = general_cassini(pair, 7)
        assert lhs == rhs == 0

    def test_shifted_fibonacci(self):
        pair = SecondOrderPair(alpha=1, beta=1, a0=0, a1=1, b0=1, b1=1)
        assert general_cassini(pair, 3) == (1, 1)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            general_cassini(SecondOrderPair(1, 1, 0, 1, 2, 1), 0)

    @pytest.mark.parametrize("pair", [
        SecondOrderPair(1, 1, 0, 1, 2, 1), SecondOrderPair(3, -2, 1, 4, -5, 0),
        SecondOrderPair(-2, 0, 7, -1, 2, 3), SecondOrderPair(0, 0, 0, 0, 0, 0)])
    def test_last_step_of_the_walk(self, pair):
        walk = list(general_cassini_walk(pair, 40))
        assert [general_cassini(pair, m) for m in range(1, 41)] == walk

    def test_keeps_only_the_last_pair(self):
        # holding every step would peak at about 2.5 MiB here
        pair = SecondOrderPair(1, 2, 0, 1, 2, 1)
        tracemalloc.start()
        try:
            lhs, rhs = general_cassini(pair, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lhs == rhs == -(2 ** 4000) and peak < 256 * 1024

    @given(
        st.integers(-9, 9), st.integers(-9, 9),
        st.integers(-9, 9), st.integers(-9, 9),
        st.integers(-9, 9), st.integers(-9, 9),
        st.integers(1, 50),
    )
    @settings(max_examples=120)
    def test_identity_holds(self, alpha, beta, a0, a1, b0, b1, m):
        lhs, rhs = general_cassini(SecondOrderPair(alpha, beta, a0, a1, b0, b1), m)
        assert lhs == rhs


class TestReconstructionDeterminant:
    def test_reconstructed_window_determinant(self):
        # det(Q^n A) = det(Q)^n det(A), and det(Q) = -1
        for r in range(1, 4):
            base = det(build_window(r + 2, 0, r))
            for n in (-5, -2, 0, 1, 4, 9):
                assert det(reconstruct(r, n)) == _parity_sign(n) * base, (r, n)

    @pytest.mark.parametrize("r", [1, 5, 12])
    @pytest.mark.parametrize("n", [-20_000, 20_000])
    def test_closed_form_window_equals_power_route(self, r, n):
        # the closed-form seed far from 0 against Q^n times the window at 0
        assert build_window(r + 2, n, r) == reconstruct(r, n)
