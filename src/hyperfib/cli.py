"""Command-line front end.

Subcommands: term, seq, qmatrix, hankel, det, verify, bench.  Values are
arbitrary-precision, so JSON output renders them as decimal strings.  Every
value is rendered by ``_text``, which leaves the interpreter's int/str digit
limit alone.  Exit codes: 0 success, 1 verification failure, 2 usage or
input error or out of memory, 130 interrupted, 141 stdout closed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from collections.abc import Callable, Iterable

from . import verify as verification
from .cassini import _run_dets, build_window
from .exact_linalg import _COFACTOR_MAX, _COFACTOR_REFUSAL, det, to_decimal
from .qmatrix import build_q, q_closed_tail
from .sequences import Strategy, hyperfib, sequence


def _text(value) -> str:
    """Decimal text of an int of any size; str() of anything else."""
    return to_decimal(value) if isinstance(value, int) else str(value)


def _emit(fmt: str, payload: Callable[[], dict] | None, rows: Iterable) -> None:
    """Print payload() as one JSON line for json, else one line per row.

    Only the output asked for is built; a caller that prints its own JSON
    passes no payload.  A row is a line of text or a sequence of values,
    which plain joins with spaces and csv with commas.
    """
    if fmt == "json":
        import json   # deferred: only this format needs it

        print(json.dumps(payload()))
        return
    sep = "," if fmt == "csv" else " "
    for row in rows:
        print(row if isinstance(row, str) else sep.join(map(_text, row)))


def _style(text: str, ok: bool) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    color = "32" if ok else "31"
    return f"\x1b[{color}m{text}\x1b[0m"


def cmd_term(args) -> int:
    if args.strategy is None:
        value = sequence(args.r).term(args.n)   # the closed form
    else:
        value = hyperfib(args.r, args.n, Strategy(args.strategy))
    _emit(args.format,
          lambda: {"r": args.r, "n": args.n, "value": _text(value)},
          [[value]])
    return 0


def cmd_seq(args) -> int:
    if args.n_from > args.n_to:
        raise ValueError("--from must not exceed --to")
    values = sequence(args.r)._run(args.n_from, args.n_to + 1)   # streamed
    if args.format != "json":
        _emit(args.format, None, zip(range(args.n_from, args.n_to + 1), values))
        return 0
    # the text json.dumps gives the payload, printed a term at a time;
    # decimal strings need no escaping
    head = f'{{"r": {args.r}, "from": {args.n_from}, "to": {args.n_to}, "values": ['
    for v in values:
        print(head, '"', _text(v), '"', sep="", end="")
        head = ", "
    print("]}")
    return 0


def cmd_qmatrix(args) -> int:
    qm = build_q(args.r)
    tail = q_closed_tail(args.r) if args.r >= 1 else None

    def payload():
        out = {"r": args.r, "q": [_text(x) for x in qm.q],
               "matrix": [[_text(x) for x in row] for row in qm.matrix.to_rows()]}
        if args.verbose and tail is not None:
            out["closed_tail"] = [_text(x) for x in tail]
        return out

    def rows():
        # the verbose lines join with spaces in every format
        yield from qm.matrix.to_rows()
        if not args.verbose:
            return
        yield "q: " + " ".join(map(_text, qm.q))
        if tail is None:
            yield "closed tail: undefined for r = 0"
        else:
            agrees = tail == qm.q[-3:]
            yield ("closed tail (q_r, q_r+1, q_r+2): " + " ".join(map(_text, tail))
                   + (" [matches]" if agrees else " [MISMATCH]"))

    _emit(args.format, payload, rows())
    return 0


def cmd_hankel(args) -> int:
    window = build_window(args.m, args.n, args.r)
    _emit(args.format,
          lambda: {"m": args.m, "n": args.n, "r": args.r,
                   "matrix": [[_text(x) for x in row] for row in window.to_rows()]},
          window.to_rows())
    return 0


def cmd_det(args) -> int:
    m, n, r = args.m, args.n, args.r
    if args.method == "bareiss":   # decided on the run; no M x M window is built
        [[value]] = _run_dets(sequence(r).terms(n, n + 2 * m - 1), r, [m])
    elif m > _COFACTOR_MAX:   # before building M x M
        raise ValueError(_COFACTOR_REFUSAL)
    else:
        value = det(build_window(m, n, r), method="cofactor")
    print(_text(value))
    return 0


def cmd_verify(args) -> int:
    names = [part for part in args.suite.split(",") if part]
    reports = verification.verify_all(
        args.r_max, args.n_min, args.n_max, names, seed=args.seed
    )
    total_cases = 0
    total_failures = 0
    for report in reports:
        total_cases += report.cases
        total_failures += len(report.failures)
        print(
            f"suite {report.suite}: {report.cases} cases, "
            f"{len(report.failures)} failures ({report.elapsed:.2f}s)"
        )
        for failure in report.failures[:20]:
            print(f"  {failure.case}: computed {_text(failure.computed)}, "
                  f"expected {_text(failure.expected)}")
        if len(report.failures) > 20:
            print(f"  ... and {len(report.failures) - 20} more")
    ok = total_failures == 0
    verdict = "PASS" if ok else "FAIL"
    print(_style(
        f"{verdict}: {len(reports)} suites, {total_cases} cases, {total_failures} failures",
        ok,
    ))
    return 0 if ok else 1


def cmd_bench(args) -> int:
    strategies = _parse_strategies(args.strategy)
    if Strategy.PREFIX_SUM in strategies and args.n < 0:
        raise ValueError("prefix strategy is defined only for n >= 0")
    value = None
    rows = []
    for strat in strategies:
        times = []
        result = None
        for _ in range(args.repeat):
            start = time.perf_counter()
            result = hyperfib(args.r, args.n, strat)
            times.append(time.perf_counter() - start)
        if value is None:
            value = result
        elif result != value:
            print(
                f"error: strategy {strat.value} returned a different value",
                file=sys.stderr,
            )
            return 1
        rows.append((strat.value, times))
    print(f"value: {_text(value)}")
    for name, times in rows:
        print(
            f"{name}: best {min(times):.6f}s, "
            f"mean {sum(times) / len(times):.6f}s ({len(times)} runs)"
        )
    return 0


def _parse_strategies(text: str) -> list[Strategy]:
    parts = [p for p in text.split(",") if p]
    if not parts:
        raise ValueError("no strategies selected")
    known = {s.value for s in Strategy}
    unknown = [p for p in parts if p != "all" and p not in known]
    if unknown:
        raise ValueError(f"unknown strategy: {', '.join(unknown)}")
    if "all" in parts:
        return list(Strategy)
    return list(dict.fromkeys(map(Strategy, parts)))


def _checked_int(ok: Callable[[int], bool], message: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:   # argparse's wording for type=int
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value
    return parse


_nonneg = _checked_int(lambda v: v >= 0, "must be >= 0")
_positive = _checked_int(lambda v: v >= 1, "must be >= 1")
_seed = _checked_int(lambda v: 0 <= v < 2**64, "seed must fit in 64 bits")


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=["plain", "json", "csv"], default="plain")


@functools.cache   # argparse keeps no state between parses
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperfib",
        description="Exact hyperfibonacci terms, companion matrices, and "
                    "Cassini-style determinant checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("term", help="one hyperfibonacci term")
    p.add_argument("--r", type=_nonneg, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strategy", choices=[s.value for s in Strategy],
                   help="evaluate by this route instead of the closed form")
    _add_format(p)
    p.set_defaults(func=cmd_term)

    p = sub.add_parser("seq", help="a run of consecutive terms")
    p.add_argument("--r", type=_nonneg, required=True)
    p.add_argument("--from", dest="n_from", type=int, required=True)
    p.add_argument("--to", dest="n_to", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("qmatrix", help="companion matrix of a generation")
    p.add_argument("--r", type=_nonneg, required=True)
    p.add_argument("--verbose", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_qmatrix)

    p = sub.add_parser("hankel", help="Hankel window of terms")
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=_nonneg, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_hankel)

    p = sub.add_parser("det", help="determinant of a Hankel window")
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=_nonneg, required=True)
    p.add_argument("--method", choices=["bareiss", "cofactor"], default="bareiss")
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument("--r-max", dest="r_max", type=_positive, required=True)
    p.add_argument("--n-min", dest="n_min", type=int, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--suite", default="all",
                   help="comma-separated subset of: all "
                        + " ".join(verification.SUITES))
    p.add_argument("--seed", type=_seed, default=verification.DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time the evaluation strategies")
    p.add_argument("--r", type=_nonneg, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strategy", required=True,
                   help="comma-separated strategies, or: all")
    p.add_argument("--repeat", type=_positive, required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse has already printed its message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away; point fd 1 at devnull so the flush at
        # interpreter exit cannot raise again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
