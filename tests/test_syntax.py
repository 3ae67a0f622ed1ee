"""Grammar, canonical printing, and round-trips."""

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revderiv.corpus import CorpusConfig, random_map, random_profile
from revderiv.maps import ArityProfile, PolyMap
from revderiv.poly import Polynomial
from revderiv.syntax import MAX_COORDINATES, ParseError, _Parser, parse_map, parse_polynomial
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
@pytest.mark.parametrize("source, position", [
    (f"({LONG})", 1),
    (f"(1/{LONG})", 3),
    (f"(x1^{LONG})", 4),
    (f"(x{LONG})", 1),
], ids=["coefficient", "denominator", "exponent", "variable-index"])
def test_numbers_past_the_int_str_limit_are_parse_errors(source, position):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError) as err:
            parse_map(source)
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.value.position == position


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


@given(st.text(alphabet=st.sampled_from("x0123456789+-*/^(), \t\n\r\x0b\x0c\xa0\u2003\u3000y.=é"),
               max_size=60) | st.text(max_size=30))
def test_tokens_match_the_earlier_regex(source):
    try:
        got = _Parser(source).tokens
    except ParseError as err:
        got = err.message, err.position
    assert got == _old_tokens(source)
