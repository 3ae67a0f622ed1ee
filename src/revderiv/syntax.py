"""Concrete syntax for polynomial maps.

A map is a parenthesized comma-separated tuple of polynomials over variables
``x1, x2, ...``:

    (x1^2 - 1, 1/2*x1*x2 + 3)

Printing (``str`` on Polynomial/PolyMap) emits exactly this grammar with
terms in descending graded-lexicographic order, so parse-print-parse is the
identity on canonical forms of maps on at most ``MAX_COORDINATES`` (1,000)
coordinates; a printed map on more, such as a deep derivative tower, does not
parse back.

One regex scan tokenizes the source before any grammar rule runs; each term's
monomial is written once, and variables past ``MAX_COORDINATES`` are rejected.
Parse errors carry the offending position for caret-style reporting; a number
longer than the interpreter's int/str conversion limit is one too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .maps import ArityProfile, PolyMap
from .poly import Coefficient, Polynomial, _accumulate

MAX_COORDINATES = 1000

# no token matches whitespace, so the search itself skips it
_TOKEN_RE = re.compile(r"(?P<var>x\d+)|(?P<num>\d+)|(?P<sym>[-+*/^(),])|(?P<bad>\S)")


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


class _Parser:
    def __init__(self, source: str):
        self.source = source
        # (kind, text, position); kind is "var", "num", "end" or the symbol
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN_RE.finditer(source):
            kind = m.lastgroup
            text, pos = m.group(), m.start()
            if kind == "bad":
                raise ParseError(f"unexpected character {text!r}", source, pos)
            self.tokens.append((text if kind == "sym" else kind, text, pos))
        self.tokens.append(("end", "", len(source)))
        self.i = 0
        self.max_var, self.max_var_pos = 0, 0  # highest 1-based variable index seen, and where

    def at(self, *kinds: str) -> bool:
        return self.tokens[self.i][0] in kinds

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}", self.source, tok[2])
        self.i += 1
        return tok

    def number(self, digits: str, pos: int) -> int:
        """The value of a number token at ``pos``; one longer than the
        interpreter's int/str conversion limit is a parse error there."""
        try:
            return int(digits)
        except ValueError as err:
            raise ParseError(str(err), self.source, pos) from None

    # map := '(' [ poly (',' poly)* ] ')'
    def map(self) -> list[list[_RawTerm]]:
        self.take("(")
        polys = [] if self.at(")") else [self.poly()]
        while self.at(","):
            self.take()
            polys.append(self.poly())
        self.take(")")
        self.take("end")
        return polys

    # poly := ['-'] term (('+' | '-') term)*
    def poly(self) -> list[_RawTerm]:
        terms = [self.term(signed=self.at("-"))]
        while self.at("+", "-"):
            terms.append(self.term(signed=True))
        return terms

    # term := coeff ('*' factor)* | factor ('*' factor)*, after its sign if signed
    def term(self, signed: bool) -> _RawTerm:
        negative = signed and self.take()[0] == "-"
        if self.at("num"):
            coeff, factors = self.coeff(), []
        elif self.at("var"):
            coeff, factors = 1, [self.factor()]
        else:
            raise ParseError("expected a coefficient or a variable", self.source,
                             self.tokens[self.i][2])
        while self.at("*"):
            self.take()
            factors.append(self.factor())
        return (-coeff if negative else coeff), factors

    # coeff := nat ('/' posnat)?, an int when the denominator divides it
    def coeff(self) -> Coefficient:
        num = self.number(*self.take("num")[1:])
        if not self.at("/"):
            return num
        self.take()
        _, text, pos = self.take("num")
        den = self.number(text, pos)
        if den == 0:
            raise ParseError("zero denominator", self.source, pos)
        return num // den if num % den == 0 else Fraction(num, den)

    # factor := var ('^' nat)?
    def factor(self) -> tuple[int, int]:
        _, text, pos = self.take("var")
        index = self.number(text[1:], pos)
        if index == 0:
            raise ParseError("variables are numbered from x1", self.source, pos)
        if index > MAX_COORDINATES:
            raise ParseError(f"x{index} exceeds the cap of {MAX_COORDINATES} coordinates",
                             self.source, pos)
        if index > self.max_var:
            self.max_var, self.max_var_pos = index, pos
        if not self.at("^"):
            return index - 1, 1
        self.take()
        return index - 1, self.number(*self.take("num")[1:])

    def build(self, raws: list[list[_RawTerm]], dim: int, declared: str) -> tuple[Polynomial, ...]:
        """The parsed polynomials in ``dim`` coordinates; ``declared`` states ``dim`` in errors."""
        if self.max_var > dim:
            raise ParseError(f"uses x{self.max_var} but {declared}", self.source, self.max_var_pos)

        def monomials(raw: list[_RawTerm]):
            for coeff, factors in raw:
                mono = [0] * dim
                for i, e in factors:
                    mono[i] += e
                yield tuple(mono), coeff

        return tuple(_accumulate(dim, monomials(raw)) for raw in raws)


def parse_polynomial(source: str, dim: int | None = None) -> Polynomial:
    """Parse one polynomial; the coordinate count is declared or inferred."""
    parser = _Parser(source)
    raw = parser.poly()
    parser.take("end")
    dim = parser.max_var if dim is None else dim
    return parser.build([raw], dim, f"only {dim} coordinates are declared")[0]


def parse_map(source: str, blocks: Sequence[int] | None = None) -> PolyMap:
    """Parse a polynomial map.

    With ``blocks`` the domain profile is declared; otherwise the domain is a
    single block whose dimension is the highest variable index used.
    """
    parser = _Parser(source)
    raws = parser.map()
    profile = ArityProfile((parser.max_var,) if blocks is None else tuple(blocks))
    dim = profile.total
    return PolyMap(profile, parser.build(raws, dim, f"declared blocks cover {dim} coordinates"))
