"""Concrete syntax for polynomial maps.

A map is a parenthesized comma-separated tuple of polynomials over variables
``x1, x2, ...``:

    (x1^2 - 1, 1/2*x1*x2 + 3)

Printing (``str`` on Polynomial/PolyMap) emits exactly this grammar with
terms in descending graded-lexicographic order, so parse-print-parse is the
identity on canonical forms of maps on at most ``MAX_COORDINATES`` (1,000)
coordinates; a printed map on more, such as a deep derivative tower, does not
parse back.

The tokens are variables ``x<digits>``, numbers ``<digits>`` and the symbols
``-+*/^(),``; whitespace only separates them.  One regex search finds the
first character that starts no token, which is reported before any grammar
error.  Then one compiled regex match reads each term: its sign, its
coefficient or first factor, and the span of its ``*``-joined factors, which
one ``finditer`` splits.  A match stops before the first token the grammar
does not allow there, and the error points at that token, or, when it is an
operator missing its operand, at the token after it.  Each term's monomial is
written once, and variables past ``MAX_COORDINATES`` are rejected.  Parse
errors carry the offending position for caret-style reporting.  Numbers may
have any number of digits: each is read by ``poly._integer``, which reads
past the interpreter's int/str conversion limit, so whatever the printer
writes parses back.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from fractions import Fraction

from .maps import ArityProfile, PolyMap
from .poly import Coefficient, Polynomial, _accumulate, _digits, _integer

MAX_COORDINATES = 1000

# a character that starts no token: not whitespace, a digit, a symbol or an x
# before a digit
_BAD_RE = re.compile(r"x(?!\d)|[^\s\dx+*/^(),-]")
_SPACE_RE = re.compile(r"\s*")
# factor := var ('^' nat)?, as (variable index, exponent or "")
_FACTOR = r"x\d+(?:\s*\^\s*\d+)?"
_FACTOR_RE = re.compile(r"x(\d+)(?:\s*\^\s*(\d+))?")
# term := coeff ('*' factor)* | factor ('*' factor)*, after its sign if any;
# every group is optional, so a term that breaks the grammar still matches
# up to the token that breaks it
_TERM_RE = re.compile(rf"""
    \s*(?P<sign>[-+]?)\s*
    (?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?)?
    (?P<factors>(?(num)|{_FACTOR})(?:\s*\*\s*{_FACTOR})*)?
    \s*""", re.VERBOSE)


class ParseError(ValueError):
    def __init__(self, message: str, source: str, position: int):
        super().__init__(message)
        self.message = message
        self.source = source
        self.position = position

    def caret_text(self) -> str:
        return f"{self.source}\n{' ' * self.position}^"


# raw term: (coefficient, [(0-based variable index, exponent), ...])
_RawTerm = tuple[Coefficient, list[tuple[int, int]]]


def _token(source: str, pos: int) -> int:
    """The position of the first token at or after ``pos``, or the end."""
    return _SPACE_RE.match(source, pos).end()


# poly := ['-'] term (('+' | '-') term)*
def _poly(source: str, pos: int) -> tuple[list[_RawTerm], int, int]:
    """The terms of the polynomial at ``pos``, the position of the token after
    it and the highest 1-based variable index it uses."""
    terms: list[_RawTerm] = []
    top, first = 0, True
    while True:
        m = _TERM_RE.match(source, pos)
        sign, num, den, factors = m.groups()
        if first and sign == "+" or num is None and factors is None:
            raise ParseError("expected a coefficient or a variable", source,
                             m.start("sign") if first and sign == "+" else m.end())
        # coeff := nat ('/' posnat)?; _accumulate stores integral values as ints
        coeff = 1 if num is None else _integer(num)
        if den is not None:
            d = _integer(den)
            if not d:
                raise ParseError("zero denominator", source, m.start("den"))
            coeff = Fraction(coeff, d)
        pairs = []
        for f in _FACTOR_RE.finditer(factors):
            index, exp = f.groups()
            i = _integer(index)
            if not 0 < i <= MAX_COORDINATES:
                raise ParseError("variables are numbered from x1" if i == 0 else
                                 f"x{_digits(i)} exceeds the cap of {MAX_COORDINATES} coordinates",
                                 source, m.start("factors") + f.start())
            if i > top:
                top = i
            pairs.append((i - 1, _integer(exp) if exp else 1))
        terms.append((-coeff if sign == "-" else coeff, pairs))
        pos = m.end()
        op = source[pos:pos + 1]
        if op == "+" or op == "-":
            first = False
            continue
        # an operator missing its operand: '*' always, '^' after a variable
        # with no exponent (exp is the last factor's), '/' after a numerator
        if (op == "*" or op == "^" and factors and not exp
                or op == "/" and den is None and factors == ""):
            raise ParseError("expected 'var'" if op == "*" else "expected 'num'",
                             source, _token(source, pos + 1))
        return terms, pos, top


def _read_map(source: str) -> tuple[list[list[_RawTerm]], int]:
    # map := '(' [ poly (',' poly)* ] ')'
    pos = _token(source, 0)
    if source[pos:pos + 1] != "(":
        raise ParseError("expected '('", source, pos)
    pos, polys, top = _token(source, pos + 1), [], 0
    if source[pos:pos + 1] != ")":
        while True:
            terms, pos, t = _poly(source, pos)
            polys.append(terms)
            top = max(top, t)
            if source[pos:pos + 1] != ",":
                break
            pos += 1
        if source[pos:pos + 1] != ")":
            raise ParseError("expected ')'", source, pos)
    end = _token(source, pos + 1)
    if end != len(source):
        raise ParseError("expected 'end'", source, end)
    return polys, top


def _read_polynomial(source: str) -> tuple[list[list[_RawTerm]], int]:
    terms, pos, top = _poly(source, 0)
    if pos != len(source):
        raise ParseError("expected 'end'", source, pos)
    return [terms], top


def _read(source: str, reader: Callable[[str], tuple[list[list[_RawTerm]], int]]):
    """The raw polynomials ``reader`` reads from ``source`` and their highest
    variable index, after checking that every character starts a token."""
    bad = _BAD_RE.search(source)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", source, bad.start())
    return reader(source)


def _build(source: str, raws: list[list[_RawTerm]], top: int, dim: int,
           declared: str) -> tuple[Polynomial, ...]:
    """The parsed polynomials in ``dim`` coordinates; ``declared`` states ``dim`` in errors."""
    if top > dim:
        first = next(f.start() for f in _FACTOR_RE.finditer(source) if _integer(f[1]) == top)
        raise ParseError(f"uses x{top} but {declared}", source, first)

    def monomials(raw: list[_RawTerm]):
        for coeff, factors in raw:
            mono = [0] * dim
            for i, e in factors:
                mono[i] += e
            yield tuple(mono), coeff

    return tuple(_accumulate(dim, monomials(raw)) for raw in raws)


def parse_polynomial(source: str, dim: int | None = None) -> Polynomial:
    """Parse one polynomial; the coordinate count is declared or inferred."""
    raws, top = _read(source, _read_polynomial)
    dim = top if dim is None else dim
    return _build(source, raws, top, dim, f"only {dim} coordinates are declared")[0]


def parse_map(source: str, blocks: Sequence[int] | None = None) -> PolyMap:
    """Parse a polynomial map.

    With ``blocks`` the domain profile is declared; otherwise the domain is a
    single block whose dimension is the highest variable index used.
    """
    raws, top = _read(source, _read_map)
    profile = ArityProfile((top,) if blocks is None else tuple(blocks))
    dim = profile.total
    return PolyMap(profile, _build(source, raws, top, dim, f"declared blocks cover {dim} coordinates"))
