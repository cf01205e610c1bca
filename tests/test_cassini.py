import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperfib.cassini as cassini
from hyperfib.cassini import (
    SecondOrderPair,
    _cassini_misses,
    _chi,
    _run_dets,
    build_window,
    cassini_det,
    general_cassini,
    hankel,
    predicted_sign,
    shifted_fib_det,
    zero_det_check,
)
from hyperfib.exact_linalg import det
from hyperfib.qmatrix import build_q, reconstruct
from hyperfib.sequences import fibonacci, hyperfib, sequence


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
        rows = w.to_rows()
        assert all(rows[i][j] == rows[j][i] for i in range(m) for j in range(m))
        assert rows[0][0] == hyperfib(r, n)
        assert rows[m - 1][m - 1] == hyperfib(r, n + 2 * m - 2)


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


class _OffByOne(int):
    """An alpha whose products are one too large, so no pair keeps the recurrence."""

    def __mul__(self, other):
        return int(self) * other + 1

    __rmul__ = __mul__


def _sides_that_differ(pair, m_max):
    """(m, lhs, rhs) for each m in 1..m_max where general_cassini(pair, m) differs."""
    return [(m, *sides) for m in range(1, m_max + 1)
            if (sides := general_cassini(pair, m))[0] != sides[1]]


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

    @given(st.builds(SecondOrderPair, *[st.integers(-9, 9)] * 6), st.integers(1, 80))
    @settings(max_examples=100)
    def test_misses_nothing(self, pair, m_max):
        assert _cassini_misses(pair, m_max) == []

    @pytest.mark.parametrize("pair", [
        SecondOrderPair(1, 1, 0, 1, 2, 1), SecondOrderPair(3, -2, 1, 4, -5, 0),
        SecondOrderPair(-2, 0, 7, -1, 2, 3)])
    def test_misses_where_the_sides_differ(self, pair):
        pair = pair._replace(alpha=_OffByOne(pair.alpha))
        misses = _cassini_misses(pair, 40)
        assert misses == _sides_that_differ(pair, 40) and len(misses) > 30

    @given(st.builds(SecondOrderPair, st.integers(-9, 9).map(_OffByOne), *[st.integers(-9, 9)] * 5),
           st.integers(1, 40))
    @settings(max_examples=100)
    def test_misses_where_the_sides_differ_on_any_pair(self, pair, m_max):
        assert _cassini_misses(pair, m_max) == _sides_that_differ(pair, m_max)

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


def _window_dets(run, sizes):
    """For each m in sizes, det of each m x m window of run, one Bareiss each."""
    return [[det(hankel(run[i:i + 2 * m - 1], m)) for i in range(len(run) - 2 * m + 2)]
            for m in sizes]


@st.composite
def _runs(draw, kind):
    # (r, run): a run stepped by chi's recurrence from random initial values,
    # the same with one entry off, or any integers; long enough for 1-4
    # starts of the largest window, r+6
    r = draw(st.integers(0, 6))
    k, length = r + 2, 2 * (r + 6) - 1 + draw(st.integers(0, 3))
    if kind == "arbitrary":
        return r, draw(st.lists(st.integers(-9, 9), min_size=length, max_size=length))
    chi = _chi(r).coeffs
    run = draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
    while len(run) < length:
        run.append(-sum(c * x for c, x in zip(chi, run[-k:])))
    if kind == "perturbed":
        run[draw(st.integers(0, length - 1))] += draw(st.integers(-3, 3).filter(bool))
    return r, run


def _perturbed_hyperfib_runs(r):
    # the hyperfibonacci run across its zero run, then each entry off in turn
    run = sequence(r).terms(-r - 4, r + 10)
    yield run
    for p in range(len(run)):
        bad = list(run)
        bad[p] += 5
        yield bad


class TestOversizedDets:
    # the oversized sizes r+3..r+6; the properties take every size from
    # m = r+1, below k = r+2, in one call
    @given(_runs("annihilated"))
    @settings(max_examples=60, deadline=None)
    def test_annihilated_runs_need_no_elimination(self, case):
        r, run = case
        sizes = range(r + 3, r + 7)
        expected = _window_dets(run, sizes)
        assert all(not any(dets) for dets in expected)

        def refused(rows):
            raise AssertionError("eliminated a window chi annihilates")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cassini, "_bareiss", refused)
            assert _run_dets(run, r, sizes) == expected

    @given(_runs("perturbed"))
    @settings(max_examples=100, deadline=None)
    def test_one_perturbed_entry(self, case):
        r, run = case
        sizes = range(r + 1, r + 7)
        assert _run_dets(run, r, sizes) == _window_dets(run, sizes)

    @given(_runs("arbitrary"))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_runs(self, case):
        r, run = case
        sizes = range(r + 1, r + 7)
        assert _run_dets(run, r, sizes) == _window_dets(run, sizes)

    @pytest.mark.parametrize("r", range(0, 7))
    def test_every_single_perturbation(self, r):
        sizes = range(r + 1, r + 7)
        for p, run in enumerate(_perturbed_hyperfib_runs(r)):
            assert _run_dets(run, r, sizes) == _window_dets(run, sizes), p


class TestCassiniDets:
    # the windows that get eliminated or chained: m = r+1 and k = r+2
    @given(_runs("annihilated"))
    @settings(max_examples=60, deadline=None)
    def test_annihilated_runs_need_one_elimination(self, case):
        # below k every window is eliminated; of size k only the first
        r, run = case
        sizes = [r + 1, r + 2]
        expected = _window_dets(run, sizes)
        actual, eliminated = cassini._bareiss, []

        def counted(rows):
            eliminated.append(len(rows))
            return actual(rows)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cassini, "_bareiss", counted)
            assert _run_dets(run, r, sizes) == expected
        assert eliminated == [r + 1] * len(expected[0]) + [r + 2]

    @given(_runs("perturbed"))
    @settings(max_examples=100, deadline=None)
    def test_one_perturbed_entry(self, case):
        r, run = case
        assert _run_dets(run, r, [r + 2]) == _window_dets(run, [r + 2])

    @given(_runs("arbitrary"))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_runs(self, case):
        r, run = case
        assert _run_dets(run, r, [r + 2]) == _window_dets(run, [r + 2])

    @pytest.mark.parametrize("r", range(1, 7))
    def test_every_single_perturbation(self, r):
        for p, run in enumerate(_perturbed_hyperfib_runs(r)):
            assert _run_dets(run, r, [r + 2]) == _window_dets(run, [r + 2]), p
