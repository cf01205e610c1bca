import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperfib.cli as cli
import hyperfib.sequences as sequences
import hyperfib.verify as verification
from hyperfib.cassini import build_window, hankel, predicted_sign
from hyperfib.cli import main
from hyperfib.exact_linalg import IntMatrix, Polynomial, det
from hyperfib.sequences import Strategy, fibonacci, hyperfib
from hyperfib.verify import Failure, verify_all
from test_cassini import _OffByOne, _sides_that_differ


def _child_env():
    """The environment for a `python -m hyperfib` child that imports this src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# Runs argv[2:] as its one child and writes the child's exit code and peak
# RSS in KiB to the descriptor argv[1].  os.wait4's ru_maxrss counts the
# peak RSS of the process that spawned the child too, so the child is
# spawned from this small process, not from the one that measures.
LAUNCHER = """\
import os, subprocess, sys
child = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(child.pid, 0)
os.write(int(sys.argv[1]), b"%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss))
"""


def _streamed_seq(args, read):
    """What read takes from a `hyperfib seq` child's stdout before closing
    it, then the child's exit code and its own peak RSS in KiB."""
    report, report_end = os.pipe()
    argv = [sys.executable, "-S", "-c", LAUNCHER, str(report_end),
            sys.executable, "-m", "hyperfib", "seq", *args]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=_child_env(), pass_fds=[report_end]) as launcher:
        os.close(report_end)
        head = read(launcher.stdout)
        launcher.stdout.close()
        with open(report, "rb") as lines:
            code, peak_kib = map(int, lines.read().split())
    return head, code, peak_kib


def _crosscheck_per_case(r_max, n_min, n_max):
    """The crosscheck suite as one hyperfib call per case and strategy."""
    cases, failures = 0, []
    for r in range(0, r_max + 1):
        expected = verification.sequence(r).terms(n_min, n_max + 1)
        for n, reference in zip(range(n_min, n_max + 1), expected):
            cases += 1
            for strat in Strategy:
                if strat is Strategy.PREFIX_SUM and n < 0:
                    continue
                value = hyperfib(r, n, strat)
                if value != reference:
                    failures.append(Failure(f"r={r} n={n} {strat.value}", value, reference))
    return cases, tuple(failures)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def default_digit_limit():
    """Run the test under the interpreter's default int/str digit limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("interpreter has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield sys.int_info.default_max_str_digits
    finally:
        sys.set_int_max_str_digits(old)


def parse_decimal(text):
    # in pieces short enough for any digit limit, so the check needs none lifted
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 500):
        piece = digits[i:i + 500]
        value = value * 10 ** len(piece) + int(piece)
    return -value if text.startswith("-") else value


QMATRIX_R2_JSON = (
    '{"r": 2, "q": ["1", "-1", "-2", "3"], "matrix": [["0", "1", "0", "0"], '
    '["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "-1", "-2", "3"]]'
)


@pytest.mark.parametrize("argv, stdout", [
    ("term --r 2 --n 9 --format csv", "221\n"),
    ("hankel --m 3 --n 0 --r 1 --format csv", "0,1,2\n1,2,4\n2,4,7\n"),
    ("qmatrix --r 2 --verbose --format csv",
     "0,1,0,0\n0,0,1,0\n0,0,0,1\n1,-1,-2,3\n"
     "q: 1 -1 -2 3\n"
     "closed tail (q_r, q_r+1, q_r+2): -1 -2 3 [matches]\n"),
    ("qmatrix --r 2 --verbose --format json",
     QMATRIX_R2_JSON + ', "closed_tail": ["-1", "-2", "3"]}\n'),
    ("qmatrix --r 0 --verbose --format json",
     '{"r": 0, "q": ["1", "1"], "matrix": [["0", "1"], ["1", "1"]]}\n'),
])
def test_exact_stdout(capsys, argv, stdout):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (0, stdout, "")


class TestTerm:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "term", "--r", "2", "--n", "9")
        assert code == 0
        assert out == "221\n"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "term", "--r", "2", "--n", "9", "--format", "json")
        assert code == 0
        assert out == '{"r": 2, "n": 9, "value": "221"}\n'

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "term", "--r", "3", "--n", "40", "--format", "json")
        line = out.rstrip("\n")
        assert json.dumps(json.loads(line)) == line

    def test_json_preserves_big_values(self, capsys):
        _, out, _ = run(capsys, "term", "--r", "0", "--n", "500", "--format", "json")
        assert json.loads(out)["value"] == str(fibonacci(500))

    def test_strategy_flag(self, capsys):
        for strategy in ("prefix", "recurrence", "matpow"):
            code, out, _ = run(capsys, "term", "--r", "1", "--n", "5",
                               "--strategy", strategy)
            assert code == 0
            assert out == "12\n"

    def test_default_is_every_strategy(self, capsys):
        # with no --strategy, term reads the closed form; it prints what
        # each strategy defined at (r, n) gives
        for r in range(7):
            for n in range(-30, 61):
                out = run(capsys, "term", "--r", str(r), "--n", str(n))
                strategies = list(Strategy)[n < 0:]   # prefix needs n >= 0
                assert out == (0, f"{hyperfib(r, n, strategies[0])}\n", ""), (r, n)
                assert len({hyperfib(r, n, s) for s in strategies}) == 1, (r, n)
        big = ["term", "--r", "3", "--n", "-100000"]
        assert run(capsys, *big) == run(capsys, *big, "--strategy", "recurrence")
        for fmt in ("plain", "json", "csv"):
            assert run(capsys, *big, "--format", fmt) == run(
                capsys, *big, "--format", fmt, "--strategy", "matpow"), fmt
        for n in ("511", "512", "1500"):   # the prefix sums go in blocks of 512 terms
            edge = ["term", "--r", "8", "--n", n]
            assert run(capsys, *edge) == run(capsys, *edge, "--strategy", "prefix"), n

    def test_wrong_weight_row_fails_loudly(self, capsys, monkeypatch):
        # one weight off by one at r = 3 gives a chi of another shape, which
        # the power kernel refuses rather than powers
        actual = sequences._weights

        def rigged(f, k):
            q = list(actual(f, k))
            if k == 5:
                q[1] += 1
            return tuple(q)

        monkeypatch.setattr(sequences, "_weights", rigged)
        with pytest.raises(ValueError, match="^the power kernel needs"):
            hyperfib(3, 10, Strategy.MATRIX_POWER)
        code, out, err = run(capsys, "term", "--r", "3", "--n", "10", "--strategy", "matpow")
        assert (code, out) == (2, "")
        assert err.startswith("error: the power kernel needs") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_weight_row_of_the_right_shape_fails_loudly(self, capsys, monkeypatch):
        # weights giving chi = (x^2 - 3x + 1)(x - 1)^3 = y^3 (y^2 - y - 1) at
        # r = 3: the root x = 1 has the right multiplicity and its cofactor
        # a unit at 0, but chi is not the paper's, so the power is refused
        # rather than taken (it would give 3690, where the term is 894)
        chi = (Polynomial((1, -3, 1)) * Polynomial((-1, 1)) ** 3).coeffs
        actual = sequences._weights

        def rigged(f, k):
            return tuple(-c for c in chi[:-1]) if k == 5 else actual(f, k)

        monkeypatch.setattr(sequences, "_weights", rigged)
        with pytest.raises(ValueError, match="^the power kernel needs"):
            hyperfib(3, 10, Strategy.MATRIX_POWER)
        code, out, err = run(capsys, "term", "--r", "3", "--n", "10", "--strategy", "matpow")
        assert (code, out) == (2, "")
        assert err.startswith("error: the power kernel needs") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_default_calls_no_strategy(self, capsys, monkeypatch):
        def raising(*args):
            raise AssertionError("the default route called hyperfib")

        monkeypatch.setattr(cli, "hyperfib", raising)
        assert run(capsys, "term", "--r", "3", "--n", "-20") == (0, "-515\n", "")
        assert run(capsys, "term", "--r", "2", "--n", "9") == (0, "221\n", "")

    def test_negative_index(self, capsys):
        code, out, _ = run(capsys, "term", "--r", "1", "--n", "-2")
        assert code == 0
        assert out == "-1\n"

    def test_prefix_rejects_negative(self, capsys):
        code, _, err = run(capsys, "term", "--r", "1", "--n", "-2",
                           "--strategy", "prefix")
        assert code == 2
        assert "error" in err

    def test_rejects_negative_generation(self, capsys):
        code, _, _ = run(capsys, "term", "--r", "-1", "--n", "3")
        assert code == 2

    def test_prints_past_the_digit_limit(self, capsys, default_digit_limit):
        code, out, err = run(capsys, "term", "--r", "3", "--n", "100000")
        assert code == 0 and err == ""
        text = out.rstrip("\n")
        assert len(text) > 4 * default_digit_limit
        assert parse_decimal(text) == hyperfib(3, 100_000, Strategy.MATRIX_POWER)

    def test_leaves_the_digit_limit_alone(self, capsys):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("interpreter has no int/str digit limit")
        before = sys.get_int_max_str_digits()
        run(capsys, "term", "--r", "0", "--n", "50000")
        run(capsys, "verify", "--r-max", "1", "--n-min", "0", "--n-max", "1")
        assert sys.get_int_max_str_digits() == before


class TestSeq:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "seq", "--r", "1", "--from", "0", "--to", "5")
        assert code == 0
        assert out.splitlines() == ["0 0", "1 1", "2 2", "3 4", "4 7", "5 12"]

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "seq", "--r", "1", "--from", "3", "--to", "5",
                        "--format", "csv")
        assert out.splitlines() == ["3,4", "4,7", "5,12"]

    def test_json(self, capsys):
        _, out, _ = run(capsys, "seq", "--r", "2", "--from", "-2", "--to", "3",
                        "--format", "json")
        payload = json.loads(out)
        assert payload == {
            "r": 2, "from": -2, "to": 3,
            "values": ["0", "0", "0", "1", "3", "7"],
        }

    @pytest.mark.parametrize("r, n_from, n_to", [
        (2, -2, 3), (0, -7, 7), (5, -40, 40), (13, -300, 2), (3, 9, 9), (1, -1, -1), (4, 0, 0),
    ])
    def test_json_is_json_dumps_text(self, capsys, r, n_from, n_to):
        # printed a term at a time, byte for byte what json.dumps gives
        values = [str(v) for v in verification.sequence(r).terms(n_from, n_to + 1)]
        expected = json.dumps({"r": r, "from": n_from, "to": n_to, "values": values})
        argv = ["seq", "--r", str(r), "--from", str(n_from), "--to", str(n_to), "--format", "json"]
        assert run(capsys, *argv) == (0, expected + "\n", "")

    def test_rejects_reversed_range(self, capsys):
        code, _, err = run(capsys, "seq", "--r", "1", "--from", "5", "--to", "0")
        assert code == 2
        assert "error" in err


class TestQMatrix:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "qmatrix", "--r", "2", "--format", "plain")
        assert code == 0
        assert out.splitlines() == ["0 1 0 0", "0 0 1 0", "0 0 0 1", "1 -1 -2 3"]

    def test_verbose_closed_tail(self, capsys):
        _, out, _ = run(capsys, "qmatrix", "--r", "2", "--verbose")
        lines = out.splitlines()
        assert "q: 1 -1 -2 3" in lines
        assert any("closed tail" in line and "[matches]" in line for line in lines)

    def test_verbose_generation_zero(self, capsys):
        code, out, _ = run(capsys, "qmatrix", "--r", "0", "--verbose")
        assert code == 0
        assert "closed tail: undefined for r = 0" in out.splitlines()

    def test_json(self, capsys):
        _, out, _ = run(capsys, "qmatrix", "--r", "1", "--format", "json")
        payload = json.loads(out)
        assert payload["q"] == ["-1", "0", "2"]
        assert payload["matrix"] == [["0", "1", "0"], ["0", "0", "1"], ["-1", "0", "2"]]

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "qmatrix", "--r", "0", "--format", "csv")
        assert out.splitlines() == ["0,1", "1,1"]


class TestHankel:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "hankel", "--m", "3", "--n", "0", "--r", "1")
        assert code == 0
        assert out.splitlines() == ["0 1 2", "1 2 4", "2 4 7"]

    def test_json(self, capsys):
        _, out, _ = run(capsys, "hankel", "--m", "2", "--n", "1", "--r", "0",
                        "--format", "json")
        assert json.loads(out) == {
            "m": 2, "n": 1, "r": 0,
            "matrix": [["1", "1"], ["1", "2"]],
        }

    def test_rejects_bad_size(self, capsys):
        code, _, _ = run(capsys, "hankel", "--m", "0", "--n", "0", "--r", "1")
        assert code == 2


class TestDet:
    def test_oversized_window_is_zero(self, capsys):
        code, out, _ = run(capsys, "det", "--m", "5", "--n", "0", "--r", "1")
        assert code == 0
        assert out == "0\n"

    def test_methods_agree(self, capsys):
        for method in ("bareiss", "cofactor"):
            code, out, _ = run(capsys, "det", "--m", "4", "--n", "3", "--r", "2",
                               "--method", method)
            assert code == 0
            assert out == "-1\n"

    def test_cofactor_size_cap(self, capsys):
        code, _, err = run(capsys, "det", "--m", "7", "--n", "0", "--r", "5",
                           "--method", "cofactor")
        assert code == 2
        assert "error" in err

    def test_cofactor_size_cap_comes_before_the_window(self, capsys, monkeypatch):
        def build_window(*args):
            raise AssertionError("the window was built")

        monkeypatch.setattr(cli, "build_window", build_window)
        with pytest.raises(ValueError) as refused:
            det(IntMatrix(7, [0] * 49), method="cofactor")
        code, _, err = run(capsys, "det", "--m", "7", "--n", "0", "--r", "1",
                           "--method", "cofactor")
        assert code == 2
        assert err == f"error: {refused.value}\n"

    def test_oversized_window_is_decided_on_its_run(self):
        # a 30000 x 30000 window would hold 9 * 10^8 entries.  The run alone
        # peaks near 200 MiB, so a child takes it: a child forked later
        # reports this process's peak RSS as its own (test_seq_streams)
        script = ("import sys, hyperfib.cli as cli\n"
                  "def build_window(*args): raise AssertionError('the window was built')\n"
                  "cli.build_window = build_window\n"
                  "sys.exit(cli.main(['det', '--m', '30000', '--n', '0', '--r', '2']))\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=_child_env(), timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")

    @pytest.mark.parametrize("m", range(1, 11))
    def test_prints_the_windows_det(self, capsys, m):
        # below, at and above the (r+2)-window, on both sides of the zero run
        for n in (-20, -3, 0, 7, 40):
            for r in range(7):
                out = run(capsys, "det", "--m", str(m), "--n", str(n), "--r", str(r))
                assert out == (0, f"{det(build_window(m, n, r))}\n", ""), (n, r)


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--r-max", "4",
                           "--n-min", "-5", "--n-max", "20")
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for line in lines if line.startswith("suite ")) == 6
        assert lines[-1].startswith("PASS:")

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--r-max", "1",
                           "--n-min", "0", "--n-max", "0", "--suite", "qdet")
        assert code == 0
        assert "suite qdet: 1 cases, 0 failures" in out

    def test_empty_suite_selection(self, capsys):
        code, _, err = run(capsys, "verify", "--r-max", "1",
                           "--n-min", "0", "--n-max", "0", "--suite", "")
        assert code == 2
        assert "error" in err

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--r-max", "1",
                           "--n-min", "0", "--n-max", "0", "--suite", "bogus")
        assert code == 2
        assert "bogus" in err

    def test_all_with_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--r-max", "1", "--n-min", "0",
                           "--n-max", "0", "--suite", "all,bogus")
        assert code == 2
        assert "bogus" in err

    def test_reversed_range(self, capsys):
        code, _, _ = run(capsys, "verify", "--r-max", "2",
                         "--n-min", "5", "--n-max", "0")
        assert code == 2

    def test_r_max_zero_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--r-max", "0",
                         "--n-min", "0", "--n-max", "1")
        assert code == 2

    def test_failure_exit_code(self, capsys, monkeypatch):
        def broken(r_max, n_min, n_max, rng):
            return 1, [Failure("r=1", 0, -1)]

        monkeypatch.setitem(verification.SUITES, "qdet", broken)
        code, out, _ = run(capsys, "verify", "--r-max", "1",
                           "--n-min", "0", "--n-max", "0", "--suite", "qdet")
        assert code == 1
        assert "FAIL:" in out
        assert "computed 0, expected -1" in out

    def test_huge_crosscheck_mismatch_is_reported(self, capsys, monkeypatch,
                                                 default_digit_limit):
        big = -(7 * 10**5_200 + 3)

        def rigged(setup, n, count):
            return [big] * count

        monkeypatch.setattr(verification, "_power_terms", rigged)
        code, out, err = run(capsys, "verify", "--r-max", "1", "--n-min", "0",
                             "--n-max", "0", "--suite", "crosscheck")
        assert code == 1 and err == ""
        assert out.splitlines()[-1].startswith("FAIL:")
        computed = out.split("computed ")[1].split(",")[0]
        assert parse_decimal(computed) == big


class TestBenchCommand:
    def test_all_strategies(self, capsys):
        code, out, _ = run(capsys, "bench", "--r", "0", "--n", "20",
                           "--strategy", "all", "--repeat", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value: 6765"
        assert [line.split(":")[0] for line in lines[1:]] == [
            "prefix", "recurrence", "matpow",
        ]

    def test_prefix_rejects_negative(self, capsys):
        code, _, err = run(capsys, "bench", "--r", "1", "--n", "-5",
                           "--strategy", "prefix", "--repeat", "1")
        assert code == 2
        assert "error" in err

    def test_unknown_strategy(self, capsys):
        code, _, _ = run(capsys, "bench", "--r", "1", "--n", "5",
                         "--strategy", "magic", "--repeat", "1")
        assert code == 2

    def test_all_with_unknown_strategy(self, capsys):
        code, _, err = run(capsys, "bench", "--r", "1", "--n", "5",
                           "--strategy", "all,magic", "--repeat", "1")
        assert code == 2
        assert "magic" in err

    def test_zero_repeat(self, capsys):
        code, _, _ = run(capsys, "bench", "--r", "1", "--n", "5",
                         "--strategy", "all", "--repeat", "0")
        assert code == 2

    def test_value_mismatch_fails(self, capsys, monkeypatch):
        def rigged(r, n, strategy):
            return 7 if strategy is Strategy.MATRIX_POWER else 6

        monkeypatch.setattr(cli, "hyperfib", rigged)
        code, _, err = run(capsys, "bench", "--r", "0", "--n", "5",
                           "--strategy", "recurrence,matpow", "--repeat", "1")
        assert code == 1
        assert "different value" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    def test_missing_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("argv, option, out_of_range, message", [
        (["term", "--n", "1"], "--r", "-1", "must be >= 0"),
        (["hankel", "--n", "1", "--r", "1"], "--m", "0", "must be >= 1"),
        (["verify", "--r-max", "1", "--n-min", "0", "--n-max", "1"], "--seed", "-1",
         "seed must fit in 64 bits"),
    ], ids=["nonneg", "positive", "seed"])
    def test_checked_ints_read_like_type_int(self, capsys, argv, option, out_of_range, message):
        # a non-integer reads as argparse's own type=int error, not a helper's name
        for value, expected in (("x", "invalid int value: 'x'"),
                                ("1.5", "invalid int value: '1.5'"),
                                (out_of_range, message)):
            code, out, err = run(capsys, *argv, option, value)
            assert (code, out) == (2, ""), value
            assert err.endswith(f" error: argument {option}: {expected}\n"), err

    def test_one_parser_serves_every_call(self, capsys):
        # one process, one parser: each call prints what it prints alone,
        # so no call's options or defaults leak into the next
        def masked(text):
            return re.sub(r"\(\d+\.\d\ds\)", "(time)", text)

        for argv in (["term", "--r", "3", "--n", "-7", "--format", "json"],
                     ["term", "--r", "3", "--n", "-7"],
                     ["term", "--r", "3", "--format", "csv"],
                     ["verify", "--r-max", "2", "--n-min", "-3", "--n-max", "3"]):
            alone = subprocess.run([sys.executable, "-m", "hyperfib", *argv],
                                   capture_output=True, text=True, env=_child_env(),
                                   timeout=60)
            code, out, err = run(capsys, *argv)
            assert (code, masked(out), err) == (
                alone.returncode, masked(alone.stdout), alone.stderr), argv
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("exc, code, err", [
        (KeyboardInterrupt, 130, ""),
        (MemoryError, 2, "error: out of memory\n"),
    ])
    def test_interrupt_and_memory_exhaustion(self, capsys, monkeypatch, exc, code, err):
        def raising(*args):
            raise exc

        monkeypatch.setattr(cli, "hyperfib", raising)
        assert run(capsys, "term", "--r", "1", "--n", "5",
                   "--strategy", "recurrence") == (code, "", err)

    def test_closed_pipe_exits_quietly(self):
        # the reader takes one line and leaves; the rest of the run (about
        # 2.6 MB) cannot fit in the pipe, so a later write meets the closed end
        with subprocess.Popen(
            [sys.executable, "-m", "hyperfib", "seq", "--r", "2", "--from", "0", "--to", "5000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert (first, proc.wait(timeout=60), err) == (b"0 0\n", 141, b"")

    def test_seq_streams(self):
        # the whole run would hold about 440 MiB of terms; streamed, the
        # child stops at the closed pipe with only a few terms alive
        first, code, peak_kib = _streamed_seq(
            ["--r", "2", "--from", "0", "--to", "100000"], lambda out: out.readline())
        assert (first, code) == (b"0 0\n", 141)
        assert peak_kib < 100 * 1024

    def test_seq_streams_while_this_process_holds_more(self):
        # the child's measured peak is its own, not that of the process
        # that measures it
        held = b"\1" * (160 << 20)   # written, so resident
        self.test_seq_streams()
        del held

    def test_seq_json_streams(self):
        # the same run as one JSON line: the child prints it a term at a
        # time, so it too stops at the closed pipe with a few terms alive
        head = b'{"r": 2, "from": 0, "to": 100000, "values": ["0", "1", "3", "7", "14", '
        first, code, peak_kib = _streamed_seq(
            ["--r", "2", "--from", "0", "--to", "100000", "--format", "json"],
            lambda out: out.read(len(head)))
        assert (first, code) == (head, 141)
        assert peak_kib < 100 * 1024


class TestVerifyModule:
    def test_validations(self):
        with pytest.raises(ValueError):
            verify_all(0, 0, 1)
        with pytest.raises(ValueError):
            verify_all(2, 5, 0)
        with pytest.raises(ValueError):
            verify_all(2, 0, 5, [])
        with pytest.raises(ValueError):
            verify_all(2, 0, 5, ["nope"])

    def test_all_with_unknown_name(self):
        with pytest.raises(ValueError, match="nope"):
            verify_all(1, 0, 1, ["all", "nope"])

    def test_all_expansion_and_order(self):
        reports = verify_all(1, 0, 2)
        assert [r.suite for r in reports] == [
            "cassini", "qdet", "zero", "crosscheck", "general", "charpoly",
        ]
        assert not any(r.failures for r in reports)

    def test_subset_dedup(self):
        reports = verify_all(1, 0, 1, ["qdet", "cassini", "qdet"])
        assert [r.suite for r in reports] == ["cassini", "qdet"]

    def test_one_name_as_a_string(self):
        [report] = verify_all(3, 0, 5, "cassini")
        assert (report.suite, report.cases, report.failures) == ("cassini", 18, ())
        with pytest.raises(ValueError, match=r"unknown suite\(s\): nope$"):
            verify_all(1, 0, 1, "nope")
        with pytest.raises(ValueError, match="no suites selected"):
            verify_all(1, 0, 1, "")

    def test_failures_keep_their_values(self, monkeypatch):
        actual = verification._power_terms

        def rigged(setup, n, count):
            return [value + 1 for value in actual(setup, n, count)]

        monkeypatch.setattr(verification, "_power_terms", rigged)
        [report] = verify_all(1, 5, 5, ["crosscheck"])
        assert report.failures == (
            Failure("r=0 n=5 matpow", 6, 5),
            Failure("r=1 n=5 matpow", 13, 12),
        )

    @pytest.mark.parametrize("n, failing", [
        (5, ("prefix", "recurrence", "matpow")),
        (-3, ("recurrence", "matpow")),
    ])
    def test_crosscheck_reads_the_closed_form(self, monkeypatch, n, failing):
        # the closed-form run is off by one at (r=1, n) alone, so every
        # strategy defined there disagrees with it, and nothing else does
        class Rigged(verification.sequence):
            def terms(self, start, stop):
                values = super().terms(start, stop)
                if self.r == 1:
                    values[n - start] += 1
                return values

        monkeypatch.setattr(verification, "sequence", Rigged)
        [report] = verify_all(2, -4, 6, ["crosscheck"])
        value = hyperfib(1, n)
        assert report.cases == 3 * 11
        assert report.failures == tuple(
            Failure(f"r=1 n={n} {name}", value, value + 1) for name in failing
        )

    def test_one_power_per_matpow_case(self, monkeypatch):
        # every matpow case is an independent power of 1 + y mod chi(1 + y)
        actual, powers = sequences._y_pow, []

        def counted(e, r):
            powers.append(e)
            return actual(e, r)

        monkeypatch.setattr(sequences, "_y_pow", counted)
        [report] = verify_all(3, -6, 8, ["crosscheck"])
        assert not report.failures and report.cases == 4 * 15
        assert powers == list(range(-6, 9)) * 4

    @pytest.mark.parametrize("n_min, n_max, n", [(600, 610, 610), (-620, -610, -620)])
    def test_recurrence_checks_a_mapped_block(self, monkeypatch, n_min, n_max, n):
        # the walk maps no block, so past one full block the end case is
        # read from _recurrence, which maps it
        actual = sequences._columns

        def rigged(sign, r, size, plain):
            ps, qs = actual(sign, r, size, plain)
            return [ps[0] + 1, *ps[1:]] if ps else ps, qs

        monkeypatch.setattr(sequences, "_columns", rigged)
        [report] = verify_all(3, n_min, n_max, ["crosscheck"])
        assert report.cases == 4 * 11
        assert [f.case for f in report.failures] == [f"r={r} n={n} recurrence" for r in (1, 2, 3)]

    @pytest.mark.parametrize("n_min, n_max", [(-6, 8), (3, 9), (-9, -2), (0, 0), (-1, -1),
                                              (600, 600), (-600, -600)])
    def test_walks_once_per_generation(self, monkeypatch, n_min, n_max):
        # a walk runs only for the checked indices before an end case, so a
        # single index is read from _recurrence alone
        calls = []

        def spy(name):
            actual = getattr(verification, name)

            def spied(r, *args):
                calls.append((name, r, *args[:1]))
                return actual(r, *args)

            monkeypatch.setattr(verification, name, spied)

        for name in ("_prefix_row", "_walk", "_recurrence", "_power_setup"):
            spy(name)
        [report] = verify_all(3, n_min, n_max, ["crosscheck"])
        assert not report.failures
        expected = []
        lo, hi = max(n_min, 0), min(n_max, -1)
        for r in range(4):
            if n_max >= 0:
                expected += [("_prefix_row", r, n_max), *[("_walk", r, 1)] * (lo < n_max),
                             ("_recurrence", r, n_max)]
            if n_min < 0:
                expected += [*[("_walk", r, -1)] * (hi > n_min), ("_recurrence", r, n_min)]
            expected += [("_power_setup", r, 1)]
        assert calls == expected

    @pytest.mark.parametrize("n", [30_000, -30_000])
    def test_crosscheck_holds_the_checked_terms(self, n):
        # one case far out: the walks keep only the checked terms, of up to
        # about 6,300 digits, not the run from 0 (about 80 MiB forward)
        tracemalloc.start()
        try:
            [report] = verify_all(1, n, n, "crosscheck")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.cases == 2 and not report.failures
        assert peak < 16 * 2**20

    @given(st.integers(1, 4), st.integers(-12, 12), st.integers(0, 12),
           st.sets(st.tuples(st.integers(0, 4), st.integers(-12, 24)), max_size=8))
    @settings(max_examples=30, deadline=None)
    @example(3, -8, 12, {(0, -8), (1, -3), (1, 0), (2, 4), (3, -1), (3, 11)})
    def test_report_equals_one_call_per_case(self, r_max, n_min, width, rigged):
        # the closed-form run is off at the rigged (r, n); the suite must
        # report what a hyperfib call per case and strategy reports
        class Rigged(verification.sequence):
            def terms(self, start, stop):
                values = super().terms(start, stop)
                for r, n in rigged:
                    if r == self.r and start <= n < stop:
                        values[n - start] += 3 + n
                return values

        n_max = n_min + width
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verification, "sequence", Rigged)
            [report] = verify_all(r_max, n_min, n_max, ["crosscheck"])
            expected = _crosscheck_per_case(r_max, n_min, n_max)
        assert (report.cases, report.failures) == expected

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_zero_suite_reports_each_window_over_a_bad_term(self, monkeypatch, bad):
        # one term of generation 2's run is off, inside (-1) or past (5) its
        # zero run; each oversized window holding it fails with its own
        # determinant, sizes outer and starts inner, unless that is still 0
        class Rigged(verification.sequence):
            def terms(self, start, stop):
                values = super().terms(start, stop)
                if self.r == 2 and start <= bad < stop:
                    values[bad - start] += 7
                return values

        monkeypatch.setattr(verification, "sequence", Rigged)
        [report] = verify_all(2, -6, 6, ["zero"])
        expected = []
        for m in range(5, 9):
            for n in range(-6, 7):
                if n <= bad <= n + 2 * m - 2:
                    d = det(hankel(Rigged(2).terms(n, n + 2 * m - 1), m))
                    if d:
                        expected.append(Failure(f"m={m} n={n} r=2", d, 0))
        assert report.cases == 3 * 4 * 13
        assert len(expected) > 10
        assert report.failures == tuple(expected)

    def test_cassini_suite_reports_each_window_over_a_bad_term(self, monkeypatch):
        # terms of generations 1 and 3 are off; every (r+2)-window holding
        # one fails with its own determinant, generations outer and starts
        # inner, unless that still equals the predicted sign
        bad = {(1, -2), (1, 9), (3, 4)}

        class Rigged(verification.sequence):
            def terms(self, start, stop):
                values = super().terms(start, stop)
                for r, n in bad:
                    if r == self.r and start <= n < stop:
                        values[n - start] += 5
                return values

        monkeypatch.setattr(verification, "sequence", Rigged)
        [report] = verify_all(3, -6, 12, ["cassini"])
        expected = []
        for r in range(1, 4):
            m = r + 2
            for n in range(-6, 13):
                d = det(hankel(Rigged(r).terms(n, n + 2 * m - 1), m))
                if d != predicted_sign(r, n):
                    expected.append(Failure(f"r={r} n={n}", d, predicted_sign(r, n)))
        assert report.cases == 3 * 19
        assert len(expected) > 10
        assert report.failures == tuple(expected)

    def test_seed_determinism(self):
        first = verify_all(1, 0, 1, ["general"], seed=99)
        second = verify_all(1, 0, 1, ["general"], seed=99)
        assert first[0].cases == second[0].cases == 10000
        assert not first[0].failures and not second[0].failures

    @given(st.integers(0, 2**64 - 1), st.integers(1, 2), st.integers(-3, 3))
    @settings(max_examples=15, deadline=None)
    def test_fixed_seed_gives_equal_reports(self, seed, r_max, n_min):
        # the general loop is rigged to miss once more on pairs with a0 > a1,
        # which the seed decides, so equal failures mean equal draws and labels
        actual = verification._cassini_misses

        def rigged(pair, m_max):
            return actual(pair, m_max) + [(m_max, pair.a0, pair.a1)] * (pair.a0 > pair.a1)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verification, "_cassini_misses", rigged)
            first, second = (
                [(rep.suite, rep.cases, rep.failures)
                 for rep in verify_all(r_max, n_min, n_min + 2, seed=seed)]
                for _ in range(2))
        assert first == second
        assert sum(cases for _, cases, _ in first) > 10000
        assert any(suite == "general" and failures for suite, _, failures in first)

    def test_rigged_pairs_report_the_sides_that_differ(self, monkeypatch):
        # every drawn alpha's products are off by one; the failures are then
        # the sides of general_cassini, in the order of the draws and of m
        actual, drawn = verification._draw, []

        def rigged(rng):
            pair = actual(rng)
            drawn.append(pair._replace(alpha=_OffByOne(pair.alpha)))
            return drawn[-1]

        monkeypatch.setattr(verification, "_draw", rigged)
        [report] = verify_all(1, 0, 1, "general", seed=7)
        expected = [Failure(f"{pair} m={m}", lhs, rhs)
                    for pair in drawn for m, lhs, rhs in _sides_that_differ(pair, 50)]
        assert len(drawn) == 200 and len(expected) > 5000
        assert (report.cases, report.failures) == (10000, tuple(expected))

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=50)
    def test_draw_is_six_randints(self, seed):
        drawn, reference = random.Random(seed), random.Random(seed)
        for _ in range(30):
            assert verification._draw(drawn) == tuple(reference.randint(-9, 9) for _ in range(6))
        assert drawn.getstate() == reference.getstate()
