"""Grammar, canonical printing, and round-trips."""

import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revderiv.corpus import CorpusConfig, random_map, random_profile
from revderiv.maps import ArityProfile, PolyMap
from revderiv.poly import Coefficient, Polynomial, _accumulate
from revderiv.syntax import MAX_COORDINATES, ParseError, parse_map, parse_polynomial
from revderiv.towers import reverse_tower


def test_parse_simple_map():
    m = parse_map("(x1^2 - 1, 1/2*x1*x2 + 3)")
    assert m.domain.blocks == (2,)
    assert m.codomain_dim == 2
    assert str(m) == "(x1^2 - 1, 1/2*x1*x2 + 3)"


def test_parse_with_declared_blocks():
    m = parse_map("(x1*x3)", blocks=(1, 1, 1))
    assert m.domain.blocks == (1, 1, 1)
    m2 = parse_map("(x1)", blocks=(2,))
    assert m2.domain.total == 2


def test_parse_whitespace_and_signs():
    assert str(parse_map(" ( -x1 + 2 ) ")) == "(-x1 + 2)"
    assert str(parse_map("(0)")) == "(0)"
    assert str(parse_map("(3 - 3)")) == "(0)"
    assert str(parse_map("(x1^0)")) == "(1)"
    assert str(parse_map("(2*x1 - 0)")) == "(2*x1)"


def test_parse_constant_map_and_empty_map():
    m = parse_map("(5, -1/2)")
    assert m.domain.total == 0
    assert m.evaluate([]) == (5, Fraction(-1, 2))
    e = parse_map("()")
    assert e.codomain_dim == 0


def test_merges_repeated_terms():
    p = parse_polynomial("x1 + x1 + x1^2")
    assert p == Polynomial.from_dict(1, {(1,): Fraction(2), (2,): Fraction(1)})


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_map("(x1^)")
    assert err.value.position == 4
    assert "^" in err.value.caret_text().splitlines()[1]

    with pytest.raises(ParseError):
        parse_map("x1")  # missing parens
    with pytest.raises(ParseError):
        parse_map("(x1))")
    with pytest.raises(ParseError):
        parse_map("(x0)")  # variables start at x1
    with pytest.raises(ParseError):
        parse_map("(1/0)")
    with pytest.raises(ParseError):
        parse_map("(x1 + )")
    with pytest.raises(ParseError):
        parse_map("(x1 ? 2)")


@pytest.mark.parametrize("parse, args, message, position", [
    (parse_map, ("x1",), "expected '('", 0),
    (parse_map, ("(x1 x2)",), "expected ')'", 4),
    (parse_map, ("(x1))",), "expected 'end'", 4),
    (parse_polynomial, ("x1 x2",), "expected 'end'", 3),
    (parse_map, ("(2*3)",), "expected 'var'", 3),
    (parse_map, ("(x1^)",), "expected 'num'", 4),
    (parse_map, ("(1/x1)",), "expected 'num'", 3),
    (parse_map, ("(x1 + )",), "expected a coefficient or a variable", 6),
    (parse_map, ("(,x1)",), "expected a coefficient or a variable", 1),
    (parse_map, ("(1/0)",), "zero denominator", 3),
    (parse_map, ("(x0)",), "variables are numbered from x1", 1),
    (parse_map, ("(x1*x3, x2)", (1, 1)), "uses x3 but declared blocks cover 2 coordinates", 4),
    (parse_polynomial, ("x1 + x2", 1), "uses x2 but only 1 coordinates are declared", 5),
    # the whole source is tokenized before any grammar rule runs
    (parse_map, ("(x1 +, $)",), "unexpected character '$'", 7),
    (parse_map, ("(x1\u00a0?)",), "unexpected character '?'", 4),
    # a variable index in other Unicode digits (x\u0663 is x3), and one with
    # a leading zero: the error points at the highest index's first occurrence
    (parse_map, ("(x1*x\u0663, x2)", (1, 1)), "uses x3 but declared blocks cover 2 coordinates", 4),
    (parse_map, ("(x\u0660)",), "variables are numbered from x1", 1),
    (parse_map, ("(x2 + x03, x3)", (1, 1)), "uses x3 but declared blocks cover 2 coordinates", 6),
    # an operator after a term that is complete is a grammar error at the
    # operator; one missing its operand is an error at the token after it
    (parse_map, ("(2^3)",), "expected ')'", 2),
    (parse_map, ("(x1^2 ^3)",), "expected ')'", 6),
    (parse_map, ("(1/2/3)",), "expected ')'", 4),
    (parse_map, ("(x1/2)",), "expected ')'", 3),
    (parse_map, ("(1/ )",), "expected 'num'", 4),
    (parse_map, ("(x1^2*x2 ^)",), "expected 'num'", 10),
    (parse_map, ("(x1 *  )",), "expected 'var'", 7),
    (parse_map, ("(+x1)",), "expected a coefficient or a variable", 1),
])
def test_parse_error_messages_and_positions(parse, args, message, position):
    with pytest.raises(ParseError) as err:
        parse(*args)
    assert (err.value.message, err.value.position) == (message, position)
    assert err.value.caret_text() == f"{args[0]}\n{' ' * position}^"


def test_variables_past_the_coordinate_cap_are_rejected():
    assert parse_map(f"(x{MAX_COORDINATES})").domain.total == MAX_COORDINATES
    with pytest.raises(ParseError) as err:
        parse_map(f"(x1 + x{MAX_COORDINATES + 1}*x2)")
    cap = MAX_COORDINATES
    assert (err.value.message, err.value.position) == (
        f"x{cap + 1} exceeds the cap of {cap} coordinates", 6)


LONG = "7" * 5000


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no limit on int/str conversions")
@pytest.mark.parametrize("source, error", [
    (f"({LONG})", None),
    (f"(1/{LONG})", None),
    (f"(x1^{LONG})", None),
    (f"(x{LONG})", (f"x{LONG} exceeds the cap of {MAX_COORDINATES} coordinates", 1)),
], ids=["coefficient", "denominator", "exponent", "variable-index"])
def test_numbers_past_the_int_str_limit_round_trip(source, error):
    # under the interpreter's default 4,300-digit limit a number of any length
    # parses and prints back; a variable index that long is past the cap
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        if error is None:
            assert str(parse_map(source)) == source
        else:
            assert _outcome(parse_map, source) == error
    finally:
        sys.set_int_max_str_digits(limit)


def test_round_trip_holds_up_to_the_coordinate_cap():
    # the order-k reverse tower of a one-variable map has k + 1 coordinates
    t = reverse_tower(parse_map("(x1^999)"), 999)
    assert t.domain.total == MAX_COORDINATES
    assert parse_map(str(t), t.domain.blocks) == t
    past = str(reverse_tower(parse_map("(x1^1000)"), 1000))
    with pytest.raises(ParseError, match=f"x{MAX_COORDINATES + 1} exceeds the cap"):
        parse_map(past)


@pytest.mark.parametrize("dim, coeffs, text", [
    (2, {(1, 0): Fraction(-1, 2), (0, 1): Fraction(1)}, "-1/2*x1 + x2"),
    (1, {(1,): Fraction(1), (0,): Fraction(-3)}, "x1 - 3"),
    (1, {(2,): Fraction(-1), (0,): Fraction(1, 2)}, "-x1^2 + 1/2"),
    (2, {(1, 1): Fraction(2, 3), (0, 1): Fraction(-1)}, "2/3*x1*x2 - x2"),
    (1, {(0,): Fraction(-1)}, "-1"),
    (1, {(0,): -1}, "-1"),  # from_dict keeps int coefficients as given
    (1, {(1,): -3, (0,): 1}, "-3*x1 + 1"),
    (10, {(0,) * 9 + (1,): Fraction(1)}, "x10"),
    (1, {(12,): Fraction(1)}, "x1^12"),
    (1, {}, "0"),
])
def test_printed_text(dim, coeffs, text):
    p = Polynomial.from_dict(dim, coeffs)
    assert str(p) == text
    assert parse_polynomial(text, dim=dim) == p


def test_declared_blocks_must_cover_variables():
    with pytest.raises(ParseError, match="x3"):
        parse_map("(x3)", blocks=(1, 1))
    with pytest.raises(ParseError, match="x2"):
        parse_polynomial("x2", dim=1)


def test_round_trip_on_random_corpus():
    rng = random.Random(41)
    cfg = CorpusConfig()
    for _ in range(200):
        prof = random_profile(rng, cfg)
        m = random_map(rng, prof, rng.randint(0, 3), cfg.max_degree)
        back = parse_map(str(m), blocks=prof.blocks)
        assert back == m
        # parse-print-parse is the identity on canonical text
        assert str(back) == str(m)


def test_round_trip_single_polynomials():
    rng = random.Random(42)
    cfg = CorpusConfig()
    for _ in range(200):
        dim = rng.randint(1, 4)
        p = random_map(rng, ArityProfile((dim,)), 1, cfg.max_degree).coords[0]
        assert parse_polynomial(str(p), dim=dim) == p


@given(st.text(alphabet="x0123456789+-*/^(), \t", max_size=40))
def test_parser_rejects_garbage_cleanly(source):
    # any input either parses to a map or raises ParseError, nothing else
    try:
        result = parse_map(source)
    except ParseError:
        return
    assert isinstance(result, PolyMap)


@given(st.text(max_size=20))
def test_parser_handles_arbitrary_text(source):
    try:
        parse_map(source)
    except ParseError:
        pass


# the tokenizer's earlier regex, which matched the whitespace before each token itself
_OLD_TOKEN_RE = re.compile(r"\s*(?:(?P<var>x\d+)|(?P<num>\d+)|(?P<sym>[-+*/^(),])|(?P<bad>\S))")


def _old_tokens(source):
    """The token list, or the (message, position) of the first bad character,
    as the earlier regex gave them."""
    tokens = []
    for m in _OLD_TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text, pos = m[kind], m.start(kind)
        if kind == "bad":
            return f"unexpected character {text!r}", pos
        tokens.append((text if kind == "sym" else kind, text, pos))
    return tokens + [("end", "", len(source))]


# the earlier tests' alphabets: the grammar's characters, Unicode whitespace and
# characters that start no token
_CHARS = st.text(
    alphabet=st.sampled_from("x0123456789+-*/^(), \t\n\r\x0b\x0c\xa0\u2003\u3000y.=é"), max_size=60,
) | st.text(max_size=30)


@given(_CHARS)
def test_tokens_match_the_earlier_regex(source):
    # a bad character anywhere is reported before any grammar error, and
    # nothing else is
    old = _old_tokens(source)
    try:
        parse_map(source)
    except ParseError as err:
        if isinstance(old, tuple):
            assert (err.message, err.position) == old
        else:
            assert not err.message.startswith("unexpected character")
    else:
        assert isinstance(old, list)


# -- the reference parser -----------------------------------------------------------
# The token-list recursive-descent parser that src/ used before it read one
# regex match per term, kept verbatim as the oracle for the fast path.

_TOKEN_RE = re.compile(r"(?P<var>x\d+)|(?P<num>\d+)|(?P<sym>[-+*/^(),])|(?P<bad>\S)")
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

    def number(self, digits: str) -> int:
        """The value of a number token, of any length: past the interpreter's
        int/str conversion limit, ``Decimal`` reads it exactly."""
        try:
            return int(digits)
        except ValueError:
            return int(Decimal(digits))

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
        num = self.number(self.take("num")[1])
        if not self.at("/"):
            return num
        self.take()
        _, text, pos = self.take("num")
        den = self.number(text)
        if den == 0:
            raise ParseError("zero denominator", self.source, pos)
        return num // den if num % den == 0 else Fraction(num, den)

    # factor := var ('^' nat)?
    def factor(self) -> tuple[int, int]:
        _, text, pos = self.take("var")
        index = self.number(text[1:])
        if index == 0:
            raise ParseError("variables are numbered from x1", self.source, pos)
        if index > MAX_COORDINATES:
            # Decimal prints an int of any length, exactly
            raise ParseError(f"x{Decimal(index)} exceeds the cap of {MAX_COORDINATES} coordinates",
                             self.source, pos)
        if index > self.max_var:
            self.max_var, self.max_var_pos = index, pos
        if not self.at("^"):
            return index - 1, 1
        self.take()
        return index - 1, self.number(self.take("num")[1])

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


def reference_parse_polynomial(source, dim=None):
    parser = _Parser(source)
    raw = parser.poly()
    parser.take("end")
    dim = parser.max_var if dim is None else dim
    return parser.build([raw], dim, f"only {dim} coordinates are declared")[0]


def reference_parse_map(source, blocks=None):
    parser = _Parser(source)
    raws = parser.map()
    profile = ArityProfile((parser.max_var,) if blocks is None else tuple(blocks))
    dim = profile.total
    return PolyMap(profile, parser.build(raws, dim, f"declared blocks cover {dim} coordinates"))


def _outcome(parse, *args):
    """What a parse returns, or the message and position of its ParseError."""
    try:
        return parse(*args)
    except ParseError as err:
        return err.message, err.position


# pieces of terms, so that draws often parse and reach every grammar rule;
# x\u0663 is x3, and x03 names x3 too
_PIECES = st.lists(st.sampled_from(
    ["x1", "x2^2", "x\u0663", "x03", "2*", "1/2*", "4/2", "*x3", " ^ 3", " + ", " - ", ", ", "-",
     "7", "*", "^", "/", "x0", "x1001", "1/0", "\xa0"]), max_size=12).map("".join)
_MAPS = _CHARS | _PIECES.map(lambda body: f"({body})")


@given(_MAPS, st.none() | st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_parse_map_matches_the_reference_parser(source, blocks):
    assert _outcome(parse_map, source, blocks) == _outcome(reference_parse_map, source, blocks)


@given(_CHARS | _PIECES, st.none() | st.integers(0, 4))
def test_parse_polynomial_matches_the_reference_parser(source, dim):
    assert (_outcome(parse_polynomial, source, dim)
            == _outcome(reference_parse_polynomial, source, dim))
