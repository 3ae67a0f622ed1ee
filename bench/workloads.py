"""The benchmark's workloads, their operations and the output gate.

Each workload is a fixed pool of operations.  A run makes whole passes over
its pool, and the workload seed shuffles the order of every pass, so runs
with any seed measure the same work and their numbers can be compared.  The
pool is broad enough (random maps from the corpus, or of every size class)
that no single input decides a result, and each operation's canonical output
is checked against the digest stored for it in ``reference.json``.

An operation is one user-visible call: a ``revderiv`` command through
``cli.main`` or one library report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("verify-suites", "fdb-deep", "tower-wide")

SUITES = ("rd-axioms", "context", "dagger", "stable", "fdb-forward", "fdb-reverse")
# Cases per law in one verify operation.  The CLI default (100) makes one
# operation take seconds; a few cases keep >=100 operations in a run.
VERIFY_CASES = 3
VERIFY_SEEDS = 18  # corpus seeds 0..17, each run for every suite

FDB_PAIRS = 36  # seeded composable pairs
FDB_ORDERS = ((3, "forward"), (3, "reverse"), (4, "forward"), (4, "reverse"))

WIDE_ORDER = 3
WIDE_TERMS = 12
WIDE_DEGREE = 3
# Maps per size; larger maps cost far more per operation, so fewer of them
# keep a pass short while every size still appears.
WIDE_MAPS = {8: 16, 16: 8, 32: 4}
WIDE_COEFFS = tuple(Fraction(k) for k in (-3, -2, -1, 1, 2, 3)) + (Fraction(1, 2), Fraction(-1, 2))

_ELAPSED_RE = re.compile(r'("elapsed_ms": )-?\d+')


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` runs it, ``check`` turns its raw result into
    (verdict ok, canonical output text)."""

    key: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]
    # tower-wide only: (dimension, map text), for the spot check
    wide: tuple[int, str] | None = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_call(rd, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = rd.cli.main(argv)
        return rc, out.getvalue()
    return call


# -- verify-suites -------------------------------------------------------------


def _check_verify(raw: tuple[int, str]) -> tuple[bool, str]:
    rc, out = raw
    ok = rc == 0 and json.loads(out)["failures"] == []
    return ok, _ELAPSED_RE.sub(r"\1_", out)


def verify_op(rd, suite: str, corpus_seed: int) -> Op:
    argv = ["verify", "--suite", suite, "--seed", str(corpus_seed),
            "--cases", str(VERIFY_CASES), "--json"]
    return Op(f"{suite}/{corpus_seed}", _cli_call(rd, argv), _check_verify)


# -- fdb-deep -------------------------------------------------------------------


def fdb_pair(rd, index: int):
    rng = random.Random(f"fdb-deep/{index}")
    return rd.corpus.random_composable_pair(rng, rd.corpus.CorpusConfig())


def _check_fdb(raw: dict) -> tuple[bool, str]:
    return raw["equal"] is True, json.dumps(raw)


def fdb_op(rd, index: int, pair, n: int, mode: str) -> Op:
    f, g = pair

    def call() -> dict:
        return rd.faa_di_bruno.fdb_report(f, g, n, mode).to_json()

    return Op(f"{index}/{n}/{mode}", call, _check_fdb)


# -- tower-wide -----------------------------------------------------------------


def wide_map(n: int, index: int) -> tuple[dict, ...]:
    """A square map on n coordinates; each coordinate has WIDE_TERMS distinct
    monomials of degree <= WIDE_DEGREE, as {exponent tuple: coefficient}."""
    rng = random.Random(f"tower-wide/{n}/{index}")
    coords = []
    for _ in range(n):
        terms: dict[tuple[int, ...], Fraction] = {}
        while len(terms) < WIDE_TERMS:
            exps = [0] * n
            for _ in range(rng.randint(0, WIDE_DEGREE)):
                exps[rng.randrange(n)] += 1
            terms.setdefault(tuple(exps), rng.choice(WIDE_COEFFS))
        coords.append(terms)
    return tuple(coords)


def render_map(coords: tuple[dict, ...]) -> str:
    """Map text in the CLI grammar, written here so that inputs do not depend
    on the program's printer."""
    polys = []
    for terms in coords:
        text = ""
        for mono, c in sorted(terms.items()):
            factors = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(mono) if e
            )
            mag = abs(c)
            body = str(mag) if not factors else factors if mag == 1 else f"{mag}*{factors}"
            if not text:
                text = body if c > 0 else f"-{body}"
            else:
                text += f" + {body}" if c > 0 else f" - {body}"
        polys.append(text)
    return "(" + ", ".join(polys) + ")"


def _check_derive(raw: tuple[int, str]) -> tuple[bool, str]:
    rc, out = raw
    return rc == 0, out


def wide_op(rd, n: int, index: int, text: str, mode: str) -> Op:
    argv = ["derive", "--map", text, "--blocks", str(n), "--order", str(WIDE_ORDER),
            "--mode", mode, "--json"]
    return Op(f"{n}/{index}/{mode}", _cli_call(rd, argv), _check_derive, (n, text))


# -- pools ----------------------------------------------------------------------


def pool(rd, workload: str) -> list[Op]:
    """Every operation of a workload, in pool order."""
    if workload == "verify-suites":
        return [verify_op(rd, suite, s) for suite in SUITES for s in range(VERIFY_SEEDS)]
    if workload == "fdb-deep":
        ops = []
        for i in range(FDB_PAIRS):
            pair = fdb_pair(rd, i)
            ops.extend(fdb_op(rd, i, pair, n, mode) for n, mode in FDB_ORDERS)
        return ops
    if workload == "tower-wide":
        ops = []
        for n, count in WIDE_MAPS.items():
            for i in range(count):
                text = render_map(wide_map(n, i))
                ops.extend(wide_op(rd, n, i, text, mode) for mode in ("reverse", "forward"))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def pass_order(ops: list[Op], seed: int, pass_no: int) -> list[Op]:
    """The seeded order of one pass over the pool."""
    order = list(ops)
    random.Random(f"{seed}/{pass_no}").shuffle(order)
    return order
