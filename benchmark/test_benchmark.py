"""Tests of the benchmark itself: inputs, oracle, failure counting, tracing."""

from __future__ import annotations

import sys
from itertools import islice

import pytest

import oracle
import workloads
from worker import load_package, run

hf = load_package()


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_same_seed_same_inputs(workload):
    first = list(islice(workloads.inputs(workload, 7), 300))
    assert first == list(islice(workloads.inputs(workload, 7), 300))
    assert first != list(islice(workloads.inputs(workload, 8), 300))


def test_oracle_matches_brute_force():
    for r in range(9):
        for n in range(-40, 61):
            assert oracle.term_mod(r, n) == hf.hyperfib(r, n) % oracle.P, (r, n)


def test_decimal_mod_ignores_the_digit_limit():
    value = -(hf.hyperfib(3, 40_000))   # about 8,400 digits
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        pytest.skip("interpreter has no int/str digit limit")
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        text = str(value)
        sys.set_int_max_str_digits(4300)
        assert oracle.decimal_mod(text) == value % oracle.P
    finally:
        sys.set_int_max_str_digits(old)


def test_window_oracle_is_not_predicted_sign():
    for r in range(1, 6):
        for n in range(-10, 10):
            assert oracle.window_det(r + 2, n, r) == hf.cassini_det(r, n)
            assert oracle.window_det(r + 4, n, r) == 0


def test_wrong_term_is_counted(monkeypatch):
    real = hf.cli.hyperfib
    monkeypatch.setattr(hf.cli, "hyperfib", lambda *args: real(*args) + 1)
    record = run(hf, "terms", seed=3, max_ops=4)
    assert record["attempted"] == 4
    assert len(record["failures"]) == 4


def test_wrong_and_raising_windows_are_counted(monkeypatch):
    calls = []

    def flaky(r, n):
        calls.append(n)
        if len(calls) == 1:
            raise ArithmeticError("injected")
        return 0

    monkeypatch.setattr(hf.cassini, "cassini_det", flaky)
    monkeypatch.setattr(hf.cassini, "zero_det_check", lambda m, n, r: 0)
    record = run(hf, "windows", seed=3, max_ops=3)
    assert record["attempted"] == 3
    assert len(record["failures"]) == 3
    assert len(record["latencies_s"]) == 2   # the raising op has no latency


def test_wrong_verify_counts_are_caught():
    op = next(workloads.inputs("verify", 1))
    cases = oracle.verify_cases(op.r, op.n, op.n + workloads.VERIFY_WIDTH)

    def output(extra):
        return "".join(f"suite {name}: {count + extra} cases, 0 failures (0.00s)\n"
                       for name, count in cases.items()) + "PASS: 6 suites\n"

    assert workloads.check(op, (0, output(0), "")) is None
    assert workloads.check(op, (0, output(1), "")) is not None
    assert workloads.check(op, (1, output(0), "")) is not None


def test_clean_run_passes_every_check():
    for workload in sorted(workloads.WHY):
        record = run(hf, workload, seed=5, max_ops=2)
        assert record["failures"] == [], workload


def test_trace_records_layers_and_restores_them():
    original = hf.cassini.det
    record = run(hf, "windows", seed=2, max_ops=2, trace=True)
    assert hf.cassini.det is original
    spans = record["spans"]
    assert spans["exact_linalg.det"]["calls"] == 2 * workloads.WINDOW_RUN
    assert spans["cassini.build_window"]["calls"] == 2 * workloads.WINDOW_RUN
    for span in spans.values():
        assert 0 <= span["self_s"] <= span["s"] + 1e-9
