"""Command-line front end.

Subcommands:

* ``derive``      print a derivative of a polynomial map, in any block, of any order
* ``verify``      run a law suite over a seeded random corpus
* ``partitions``  list the set partitions of {1..n}
* ``fdb``         evaluate a partition-sum chain rule against its oracle

Exit codes: 0 all checks passed, 1 a law or identity failed (a witness is
printed), 2 usage or parse error.  A command settles its exit code before it
writes anything; ``fdb`` then writes its report one summand at a time.
Variables in printed derivatives continue the x-numbering after the input
coordinates: for f over x1..xN the covector or vector arguments start at
x(N+1).  ``RFDB_SEED`` sets the default seed;
``--seed`` overrides it.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from collections.abc import Iterable, Iterator

from .corpus import MAX_BLOCKS, CorpusConfig
from .combinators import partial_forward, partial_reverse
from .faa_di_bruno import FdbReport, fdb_report
from .laws import SUITE_NAMES, LawReport, run_suite
from .partitions import enumerate_partitions
from .syntax import MAX_COORDINATES, ParseError, parse_map

DEFAULT_FDB_CAP = 4
DEFAULT_ORDER_CAP = 2000
DEFAULT_PARTITIONS_CAP = 10  # Bell(10) = 115,975 partitions
# a drawn profile of MAX_BLOCKS blocks stays within the widest map derive accepts
MAX_DIM_CAP = MAX_COORDINATES // MAX_BLOCKS


class _Refused(Exception):
    """A command refuses its input: ``main`` prints ``error: <message>`` and any
    further lines to stderr, and exits 2."""


def _json(value: object, indent: int | None = None) -> str:
    """``json.dumps``; the module is imported on first use, so only a command
    that prints JSON loads it."""
    import json
    return json.dumps(value, indent=indent)


def _json_chunks(payload: dict) -> Iterator[str]:
    """The text of ``json.dumps(payload, indent=2)`` and a newline, in pieces:
    a value that is an iterator is written as a list, one item at a time."""

    def dump(value: object, indent: str) -> str:
        return _json(value, 2).replace("\n", "\n" + indent)

    for i, (key, value) in enumerate(payload.items()):
        yield f'{"," if i else "{"}\n  {_json(key)}: '
        if not isinstance(value, Iterator):
            yield dump(value, "  ")
            continue
        sep = "["
        for item in value:
            yield f"{sep}\n    {dump(item, '    ')}"
            sep = ","
        yield "[]" if sep == "[" else "\n  ]"
    yield "\n}\n"


def _check_cap(name: str, value: int, cap: int, remedy: str) -> None:
    """Refuse an input whose cost grows out of proportion to it when it is over its cap."""
    if value > cap:
        raise _Refused(f"{name} {value} exceeds the cap {cap}; {remedy}")


def _read_expr(text: str) -> str:
    if text == "-":
        return sys.stdin.read().strip()
    return text


def _parse_blocks(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        blocks = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad block list {text!r}")
    if not blocks or any(b < 0 for b in blocks):
        raise argparse.ArgumentTypeError(f"bad block list {text!r}")
    return blocks


# a command returns its exit code and the text it writes to stdout
Outcome = tuple[int, Iterable[str]]


def cmd_derive(args: argparse.Namespace) -> Outcome:
    # every monomial of the map gets one exponent per declared coordinate
    _check_cap("--blocks total", sum(args.blocks or ()), MAX_COORDINATES,
               "a map has at most that many coordinates")
    f = parse_map(_read_expr(args.map), args.blocks)
    if args.order < 0:
        raise _Refused("--order must be nonnegative")
    # each order above the first is one more pass of the kernel
    _check_cap("--order", args.order, DEFAULT_ORDER_CAP, "derive builds no higher tower")
    if args.partial is None and args.order and f.domain.block_count != 1:
        raise _Refused("total derivatives need a single-block domain; "
                       "use --partial J or declare one block")
    derivative = partial_reverse if args.mode == "reverse" else partial_forward
    try:
        # a total derivative is the partial one in the only block; order 0 is f
        result = derivative(f, 1 if args.partial is None else args.partial, args.order)
    except (ValueError, IndexError) as err:
        raise _Refused(str(err)) from err
    if args.json:
        return 0, [_json({
            "map": str(result),
            "domain_blocks": list(result.domain.blocks),
            "codomain_dim": result.codomain_dim,
        }) + "\n"]
    return 0, [f"{result}\n"]


def _report_lines(report: LawReport) -> Iterator[str]:
    status = "ok" if report.ok else f"{len(report.failures)} failures"
    yield (f"suite {report.suite}: seed {report.seed}, {report.cases} cases per law, "
           f"{len(report.laws)} laws, {status} ({report.elapsed_ms} ms)\n")
    for law, count in zip(report.laws, report.law_failures):
        verdict = "ok" if count == 0 else f"{count} failures"
        yield f"  {law}: {report.cases} cases, {verdict}\n"
    for failure in report.failures:
        yield f"  FAIL {failure.law}\n"
        for m in failure.maps:
            yield f"    map: {m}\n"
        yield f"    lhs: {failure.lhs}\n"
        yield f"    rhs: {failure.rhs}\n"


def cmd_verify(args: argparse.Namespace) -> Outcome:
    for name in ("cases", "max_dim", "max_deg", "max_order"):
        if getattr(args, name) < 1:
            raise _Refused(f"--{name.replace('_', '-')} must be positive")
    _check_cap("--max-dim", args.max_dim, MAX_DIM_CAP,
               f"a drawn map has up to {MAX_BLOCKS} blocks, and derive takes "
               f"{MAX_COORDINATES} coordinates")
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    if {"fdb-forward", "fdb-reverse"} & set(names):
        # the fdb laws check Bell(max_order + 1) summands per case
        _check_cap("--max-order", args.max_order, DEFAULT_FDB_CAP,
                   "the fdb suites go no higher; pick another --suite")
    seed = args.seed
    if seed is None:
        text = os.environ.get("RFDB_SEED", "42")
        try:
            seed = int(text)
        except ValueError:
            digits = re.fullmatch(r"\s*[+-]?(\d+(?:_\d+)*)\s*", text)
            if digits:  # an integer that int() refuses only for its length: not echoed
                count, limit = len(digits[1].replace("_", "")), sys.get_int_max_str_digits()
                raise _Refused(f"RFDB_SEED has {count} digits, past the interpreter's "
                               f"{limit}-digit limit") from None
            raise _Refused(f"RFDB_SEED must be an integer, got {text!r}") from None
    cfg = CorpusConfig(
        max_dim=args.max_dim, max_degree=args.max_deg, max_order=args.max_order
    )
    reports = [run_suite(name, seed, args.cases, cfg) for name in names]
    code = 0 if all(r.ok for r in reports) else 1
    if args.json:
        payload = [r.to_json() for r in reports]
        return code, [_json(payload[0] if args.suite != "all" else payload, 2) + "\n"]
    return code, [line for report in reports for line in _report_lines(report)]


def cmd_partitions(args: argparse.Namespace) -> Outcome:
    if args.n < 1:
        raise _Refused("n must be at least 1")
    _check_cap("n", args.n, args.max_n, "raise --max-n if you mean it")
    parts = enumerate_partitions(args.n)
    if args.json:
        return 0, [_json({
            "n": args.n,
            "count": len(parts),
            "partitions": [[list(b) for b in p.blocks] for p in parts],
        }) + "\n"]
    return 0, ["".join(f"{p}\n" for p in parts) + f"count {len(parts)}\n"]


def _fdb_lines(report: FdbReport) -> Iterator[str]:
    # the text report prints the JSON payload's strings: one monomial table for both
    payload = report.json_stream()
    yield f"mode {report.mode}, n={report.order}: {len(report.summands)} summands\n"
    for s in payload["summands"]:
        sizes = ",".join(map(str, s["block_sizes"]))
        yield f"  {s['partition']}: sizes [{sizes}], map {s['map']}\n"
    yield f"total:  {payload['total']}\n"
    yield f"oracle: {payload['oracle']}\n"
    yield "verdict: equal\n" if report.equal else f"verdict: NOT equal ({report.first_difference})\n"


def cmd_fdb(args: argparse.Namespace) -> Outcome:
    if args.n < 0:
        raise _Refused("--n must be nonnegative")
    _check_cap("--n", args.n, args.max_n, "raise --max-n if you mean it")
    if args.f == args.g == "-":  # stdin holds one expression
        raise _Refused("--f and --g cannot both read stdin ('-')")
    f = parse_map(_read_expr(args.f))
    try:
        g = parse_map(_read_expr(args.g), (f.codomain_dim,))
    except ParseError as err:
        raise _Refused(err.message, err.caret_text(), f"(--g is read on the {f.codomain_dim} "
                       "outputs of --f, so that the two compose)") from err
    try:
        report = fdb_report(f, g, args.n, args.mode)
    except ValueError as err:
        raise _Refused(str(err)) from err
    # the report holds its total and verdict; its summands are built as they are written
    out = _json_chunks(report.json_stream()) if args.json else _fdb_lines(report)
    return 0 if report.equal else 1, out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once: argparse objects hold reference cycles, so a parser per call is garbage."""
    parser = argparse.ArgumentParser(
        prog="revderiv",
        description="Exact reverse/forward derivatives of polynomial maps "
                    "and their law suites.",
        epilog="exit codes: 0 = all checks passed, 1 = a law failed, 2 = usage/parse error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser(
        "derive",
        help="differentiate a polynomial map",
        description="Print a derivative of a polynomial map in canonical text. "
                    "Derived argument blocks continue the x-numbering after the "
                    "input coordinates.",
    )
    p_derive.add_argument("--map", required=True,
                          help="map expression like '(x1^2, x1*x2)'; '-' reads stdin")
    p_derive.add_argument("--blocks", type=_parse_blocks, default=None, metavar="D1,D2,...",
                          help="domain block dimensions (default: one block)")
    p_derive.add_argument("--order", type=int, default=1,
                          help=f"derivative order, at most {DEFAULT_ORDER_CAP}; "
                               "0 echoes the canonical input")
    p_derive.add_argument("--mode", choices=("reverse", "forward"), default="reverse")
    p_derive.add_argument("--partial", type=int, default=None, metavar="J",
                          help="take the partial derivative in block J (1-based), "
                               "at any --order")
    p_derive.add_argument("--json", action="store_true")
    p_derive.set_defaults(func=cmd_derive)

    p_verify = sub.add_parser(
        "verify",
        help="run law suites over a random corpus",
        description="Verify the combinator laws as exact map equalities over "
                    "seeded random polynomial maps; exits 1 on any failure.",
    )
    p_verify.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="corpus seed (default: $RFDB_SEED or 42)")
    p_verify.add_argument("--cases", type=int, default=100)
    p_verify.add_argument("--max-dim", type=int, default=3,
                          help=f"largest block dimension of a drawn map, at most {MAX_DIM_CAP}")
    p_verify.add_argument("--max-deg", type=int, default=3)
    p_verify.add_argument("--max-order", type=int, default=3,
                          help=f"highest derivative order offset (at most {DEFAULT_FDB_CAP} "
                               "when an fdb suite runs)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_parts = sub.add_parser(
        "partitions",
        help="list set partitions of {1..n}",
        description="Canonical enumeration (finest first, blocks ordered by minimum).",
    )
    p_parts.add_argument("n", type=int)
    p_parts.add_argument("--max-n", type=int, default=DEFAULT_PARTITIONS_CAP,
                         help="safety cap on n (the count is the Bell number of n)")
    p_parts.add_argument("--json", action="store_true")
    p_parts.set_defaults(func=cmd_partitions)

    p_fdb = sub.add_parser(
        "fdb",
        help="evaluate a partition-sum chain rule",
        description="Build the order-(n+1) derivative of g o f as a sum over "
                    "set partitions and compare it with the iterated-derivative "
                    "oracle; exits 1 if they differ.",
    )
    stdin = "; '-' reads stdin (not for both --f and --g)"
    p_fdb.add_argument("--f", required=True, help="inner map expression" + stdin)
    p_fdb.add_argument("--g", required=True, help="outer map expression" + stdin)
    p_fdb.add_argument("--n", type=int, required=True,
                       help="order offset: checks the order-(n+1) derivative")
    p_fdb.add_argument("--mode", choices=("forward", "reverse"), required=True)
    p_fdb.add_argument("--max-n", type=int, default=DEFAULT_FDB_CAP,
                       help="safety cap on n (summand count grows fast)")
    p_fdb.add_argument("--json", action="store_true")
    p_fdb.set_defaults(func=cmd_fdb)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the verdict is settled before anything reaches stdout, so a reader that
    # closes the pipe early cannot change the exit status
    try:
        code, out = args.func(args)
    except (_Refused, ParseError) as err:
        message, *lines = err.args if isinstance(err, _Refused) else (err.message, err.caret_text())
        print(f"error: {message}", *lines, sep="\n", file=sys.stderr)
        return 2
    try:
        for chunk in out:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        # keep the interpreter's final flush from failing on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
