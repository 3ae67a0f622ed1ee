"""Concrete syntax for polynomial maps.

A map is a parenthesized comma-separated tuple of polynomials over variables
``x1, x2, ...``:

    (x1^2 - 1, 1/2*x1*x2 + 3)

Printing (``str`` on Polynomial/PolyMap) emits exactly this grammar with
terms in descending graded-lexicographic order, so parse-print-parse is the
identity on canonical forms.  Parse errors carry the offending position for
caret-style reporting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .maps import ArityProfile, PolyMap
from .poly import Polynomial, _accumulate

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>x\d+)|(?P<num>\d+)|(?P<sym>[-+*/^(),]))"
)


class ParseError(ValueError):
    def __init__(self, message: str, source: str, position: int):
        super().__init__(message)
        self.message = message
        self.source = source
        self.position = position

    def caret_text(self) -> str:
        return f"{self.source}\n{' ' * self.position}^"


@dataclass(frozen=True)
class _Token:
    kind: str  # "var" | "num" | one of -+*/^(),  | "end"
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = len(source) - len(stripped)
            raise ParseError(f"unexpected character {source[bad]!r}", source, bad)
        if m.lastgroup == "sym":
            tokens.append(_Token(m.group("sym"), m.group("sym"), m.start("sym")))
        elif m.lastgroup == "num":
            tokens.append(_Token("num", m.group("num"), m.start("num")))
        else:
            tokens.append(_Token("var", m.group("var"), m.start("var")))
        pos = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


# raw term: (coefficient, {0-based variable index: exponent})
_RawTerm = tuple[Fraction, dict[int, int]]


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0
        self.max_var = 0  # highest 1-based variable index seen
        self.max_var_pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}", self.source, tok.pos)
        return self.take()

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.source, self.peek().pos)

    # map := '(' [ poly (',' poly)* ] ')'
    def parse_map(self) -> list[list[_RawTerm]]:
        self.expect("(")
        polys: list[list[_RawTerm]] = []
        if self.peek().kind != ")":
            polys.append(self.parse_poly())
            while self.peek().kind == ",":
                self.take()
                polys.append(self.parse_poly())
        self.expect(")")
        self.expect("end")
        return polys

    # poly := ['-'] term (('+' | '-') term)*
    def parse_poly(self) -> list[_RawTerm]:
        sign = Fraction(1)
        if self.peek().kind == "-":
            self.take()
            sign = Fraction(-1)
        terms = [self.parse_term(sign)]
        while self.peek().kind in ("+", "-"):
            op = self.take()
            terms.append(self.parse_term(Fraction(1) if op.kind == "+" else Fraction(-1)))
        return terms

    # term := coeff ('*' factor)* | factor ('*' factor)*
    def parse_term(self, sign: Fraction) -> _RawTerm:
        tok = self.peek()
        exps: dict[int, int] = {}
        if tok.kind == "num":
            coeff = sign * self.parse_coeff()
        elif tok.kind == "var":
            coeff = sign
            self.parse_factor(exps)
        else:
            raise self.fail("expected a coefficient or a variable")
        while self.peek().kind == "*":
            self.take()
            self.parse_factor(exps)
        return coeff, exps

    # coeff := nat ('/' posnat)?
    def parse_coeff(self) -> Fraction:
        num = int(self.expect("num").text)
        if self.peek().kind == "/":
            self.take()
            den_tok = self.expect("num")
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("zero denominator", self.source, den_tok.pos)
            return Fraction(num, den)
        return Fraction(num)

    # factor := var ('^' nat)?
    def parse_factor(self, exps: dict[int, int]) -> None:
        tok = self.expect("var")
        index = int(tok.text[1:])
        if index == 0:
            raise ParseError("variables are numbered from x1", self.source, tok.pos)
        if index > self.max_var:
            self.max_var = index
            self.max_var_pos = tok.pos
        power = 1
        if self.peek().kind == "^":
            self.take()
            power = int(self.expect("num").text)
        exps[index - 1] = exps.get(index - 1, 0) + power


def _build_polynomial(raw: list[_RawTerm], dim: int) -> Polynomial:
    return _accumulate(dim, ((tuple(exps.get(i, 0) for i in range(dim)), coeff)
                             for coeff, exps in raw))


def parse_polynomial(source: str, dim: int | None = None) -> Polynomial:
    """Parse one polynomial; the coordinate count is declared or inferred."""
    parser = _Parser(source)
    raw = parser.parse_poly()
    parser.expect("end")
    if dim is None:
        dim = parser.max_var
    elif parser.max_var > dim:
        raise ParseError(
            f"uses x{parser.max_var} but only {dim} coordinates are declared",
            source,
            parser.max_var_pos,
        )
    return _build_polynomial(raw, dim)


def parse_map(source: str, blocks: Sequence[int] | None = None) -> PolyMap:
    """Parse a polynomial map.

    With ``blocks`` the domain profile is declared; otherwise the domain is a
    single block whose dimension is the highest variable index used.
    """
    parser = _Parser(source)
    raw_polys = parser.parse_map()
    if blocks is not None:
        profile = ArityProfile(tuple(blocks))
        if parser.max_var > profile.total:
            raise ParseError(
                f"uses x{parser.max_var} but declared blocks cover "
                f"{profile.total} coordinates",
                source,
                parser.max_var_pos,
            )
    else:
        profile = ArityProfile((parser.max_var,))
    dim = profile.total
    return PolyMap(profile, tuple(_build_polynomial(raw, dim) for raw in raw_polys))
