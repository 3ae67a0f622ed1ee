"""Polynomial arithmetic against independent brute-force oracles."""

import random
import re
import sys
from fractions import Fraction
from operator import itemgetter

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from revderiv.combinators import forward_derivative, reverse_derivative
from revderiv.corpus import random_map
from revderiv.maps import ArityProfile, PolyMap, sum_maps, zero_map
from revderiv.poly import Polynomial, _accumulate, _graded, _Names, _text
from revderiv.syntax import parse_map, parse_polynomial


# -- independent oracles, deliberately naive ---------------------------------


def merge_terms(term_list):
    """Oracle: merge a raw (monomial, coeff) list, dropping zero sums."""
    acc = {}
    for mono, c in term_list:
        acc[mono] = acc.get(mono, Fraction(0)) + c
    return {m: c for m, c in acc.items() if c != 0}


def expand_product(p, q):
    """Oracle: all-pairs exponent addition, then merge."""
    raw = []
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            raw.append((tuple(a + b for a, b in zip(m1, m2)), c1 * c2))
    return merge_terms(raw)


def power_rule(p, i):
    """Oracle: per-monomial power rule e -> e * x^(e-1)."""
    raw = []
    for mono, c in p.terms:
        if mono[i] > 0:
            lowered = list(mono)
            lowered[i] -= 1
            raw.append((tuple(lowered), c * mono[i]))
    return merge_terms(raw)


def naive_substitute(p, args, dim):
    """Oracle: expand each term by repeated all-pairs products, then merge."""
    raw = []
    for mono, c in p.terms:
        term = Polynomial.constant(dim, c)
        for arg, e in zip(args, mono):
            for _ in range(e):
                term = Polynomial.from_dict(dim, expand_product(term, arg))
        raw.extend(term.terms)
    return merge_terms(raw)


def is_canonical(p):
    """Strictly descending in (degree, monomial), with no zero coefficient."""
    keys = [(sum(m), m) for m, _ in p.terms]
    return all(a > b for a, b in zip(keys, keys[1:])) and all(c != 0 for _, c in p.terms)


def has_normal_coefficients(p):
    """Every coefficient is an int, or a Fraction whose denominator is not 1."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for _, c in p.terms)


def direct_eval(p, point):
    total = Fraction(0)
    for mono, c in p.terms:
        v = c
        for x, e in zip(point, mono):
            v *= Fraction(x) ** e
        total += v
    return total


def P(dim, coeffs):
    return Polynomial.from_dict(dim, {m: Fraction(c) for m, c in coeffs.items()})


# -- hypothesis strategies ----------------------------------------------------


@st.composite
def polynomials(draw, dim=None, max_dim=3, max_degree=3, max_terms=4):
    if dim is None:
        dim = draw(st.integers(1, max_dim))
    coeffs = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_degree)) for _ in range(dim))
        c = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        coeffs[mono] = coeffs.get(mono, Fraction(0)) + c
    return Polynomial.from_dict(dim, coeffs)


@st.composite
def substitutions(draw):
    """A polynomial and one argument per coordinate, all in one target space;
    the polynomial may have a constant term, and the arguments may all have at
    most one term (zero included)."""
    p = draw(polynomials(max_degree=2))
    p = p + Polynomial.constant(p.dim, draw(st.integers(-2, 2)))
    dim = draw(st.integers(1, 3))
    max_terms = draw(st.sampled_from((1, 4)))
    return p, [draw(polynomials(dim=dim, max_degree=2, max_terms=max_terms))
               for _ in range(p.dim)]


@st.composite
def poly_lists(draw):
    """Up to four polynomials in one space, plus the negative of the first."""
    dim = draw(st.integers(1, 3))
    ps = [draw(polynomials(dim=dim)) for _ in range(draw(st.integers(0, 4)))]
    return dim, ps + [-p for p in ps[:1]]


@st.composite
def poly_triples(draw):
    dim = draw(st.integers(1, 3))
    return tuple(draw(polynomials(dim=dim)) for _ in range(3))


# -- fixed examples -----------------------------------------------------------


def test_add_identity_and_doubling():
    x1sq = P(1, {(2,): 1})
    zero = Polynomial.zero(1)
    assert x1sq + zero == x1sq
    x1 = P(1, {(1,): 1})
    assert x1 + x1 == P(1, {(1,): 2})


def test_add_cancels_to_constant():
    p = P(2, {(1, 1): 1, (0, 0): 1})
    q = P(2, {(1, 1): -1})
    expected = merge_terms(list(p.terms) + list(q.terms))
    assert (p + q).as_dict() == expected
    assert p + q == P(2, {(0, 0): 1})


def test_scale():
    p = P(1, {(3,): 1, (0,): 2})
    assert p.scale(0) == Polynomial.zero(1)
    assert p.scale(1) == p
    half = P(1, {(1,): 2, (0,): 4}).scale(Fraction(1, 2))
    assert half == P(1, {(1,): 1, (0,): 2})
    # a product with a scalar, on either side, is the scaled polynomial
    assert p * 3 == 3 * p == p.scale(3)
    assert p * Fraction(1, 2) == Fraction(1, 2) * p == p.scale(Fraction(1, 2))
    assert 0 * p == Polynomial.zero(1)


def test_mul():
    x1 = Polynomial.variable(0, 2)
    x2 = Polynomial.variable(1, 2)
    assert x1 * x2 == P(2, {(1, 1): 1})
    p = P(1, {(1,): 1, (0,): 1})
    q = P(1, {(1,): 1, (0,): -1})
    assert (p * q).as_dict() == expand_product(p, q)
    assert p * q == P(1, {(2,): 1, (0,): -1})
    assert p * Polynomial.zero(1) == Polynomial.zero(1)


def test_partial():
    p = P(2, {(2, 1): 1})  # x1^2 x2
    assert p.partial(0).as_dict() == power_rule(p, 0)
    assert p.partial(0) == P(2, {(1, 1): 2})
    assert Polynomial.constant(2, 7).partial(0) == Polynomial.zero(2)
    assert Polynomial.variable(1, 2).partial(0) == Polynomial.zero(2)


def test_evaluate():
    p = P(1, {(2,): 1})
    assert p.evaluate([3]) == 9 == direct_eval(p, [3])
    q = P(2, {(1, 2): Fraction(1, 2)})
    assert q.evaluate([4, 3]) == Fraction(1, 2) * 4 * 9


def test_pow():
    p = P(1, {(1,): 1, (0,): 1})
    assert p ** 0 == Polynomial.constant(1, 1)
    assert p ** 1 == p
    assert p ** 2 == p * p
    assert p ** 3 == p * p * p
    # the first factor is the base itself, not a product with the constant 1
    assert p ** 1 is p
    zero = Polynomial.zero(1)
    assert zero ** 0 == Polynomial.constant(1, 1)
    assert zero ** 1 == zero ** 2 == zero
    with pytest.raises(ValueError):
        p ** -1


def test_substitute():
    # (x^2) o (x+1) = x^2 + 2x + 1
    sq = P(1, {(2,): 1})
    shift = P(1, {(1,): 1, (0,): 1})
    assert sq.substitute([shift]) == P(1, {(2,): 1, (1,): 2, (0,): 1})
    # a term with no variable keeps its coefficient; a zero argument kills
    # every term that uses it
    p = P(2, {(1, 1): 2, (0, 1): 1, (0, 0): Fraction(-3, 2)})
    zero, x = Polynomial.zero(1), P(1, {(1,): 1})
    assert p.substitute([zero, zero]) == Polynomial.constant(1, Fraction(-3, 2))
    assert p.substitute([zero, x]) == P(1, {(1,): 1, (0,): Fraction(-3, 2)})
    assert Polynomial.constant(2, 4).substitute([x, x]) == Polynomial.constant(1, 4)
    assert Polynomial.zero(2).substitute([x, x]) == Polynomial.zero(1)


def test_dim_mismatch_raises():
    with pytest.raises(ValueError):
        P(1, {(1,): 1}) + P(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        P(1, {(1,): 1}) * P(2, {(1, 0): 1})
    with pytest.raises(IndexError):
        P(1, {(1,): 1}).partial(1)
    with pytest.raises(ValueError):
        P(1, {(1,): 1}).evaluate([1, 2])


X1, X12 = Polynomial.variable(0, 1), Polynomial.variable(0, 2)

# (name, refused call, its error, the start of its message)
REFUSALS = [
    ("from_dict-width", lambda: Polynomial.from_dict(2, {(1,): 1}), ValueError,
     "monomial (1,) has 1 exponents, expected 2"),
    ("from_dict-negative", lambda: Polynomial.from_dict(1, {(-1,): 1}), ValueError,
     "negative exponent in monomial (-1,)"),
    ("variable-range", lambda: Polynomial.variable(2, 2), IndexError,
     "coordinate index 2 out of range for dimension 2"),
    ("substitute-count", lambda: X12.substitute([X1]), ValueError,
     "1 substitution arguments, expected 2"),
    ("substitute-spaces", lambda: X12.substitute([X1, X12]), ValueError,
     "substitution arguments live in different spaces"),
    ("substitute-no-dim", lambda: Polynomial.constant(0, 1).substitute([]), ValueError,
     "substituting into a 0-coordinate polynomial needs an explicit dim"),
    ("pad-down", lambda: X12.pad(1), ValueError, "cannot pad from dimension 2 down to 1"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusals_name_the_bad_argument(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_pad_to_its_own_dimension_is_the_polynomial():
    assert X12.pad(2) is X12
    assert X1.pad(2) == X12
    # a 0-coordinate polynomial substitutes into the dimension it is given
    assert Polynomial.constant(0, 4).substitute([], 2) == Polynomial.constant(2, 4)


def test_zero_dim_polynomials():
    c = Polynomial.constant(0, 5)
    assert c.evaluate([]) == 5
    assert c + Polynomial.zero(0) == c


def test_canonical_printing():
    p = P(2, {(2, 0): 1, (0, 0): -1})
    assert str(p) == "x1^2 - 1"
    assert str(Polynomial.zero(3)) == "0"
    assert str(P(1, {(1,): Fraction(1, 2)})) == "1/2*x1"
    assert str(P(1, {(1,): -1})) == "-x1"
    assert str(P(2, {(1, 1): 6})) == "6*x1*x2"
    # graded-lex descending: degree first, then lexicographic
    q = P(2, {(0, 2): 1, (2, 0): 1, (1, 1): 1, (1, 0): 1})
    assert str(q) == "x1^2 + x1*x2 + x2^2 + x1"


def naive_text(p):
    """Oracle: every term's exponents scanned in full, all ``dim`` of them."""
    pieces = []
    for mono, c in p.terms:
        c = Fraction(c)
        body = str(abs(c))
        factors = "*".join([f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mono, 1) if e])
        if factors:
            body = factors if body == "1" else f"{body}*{factors}"
        pieces.append(("-" if c < 0 else "+", body))
    if not pieces:
        return "0"
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in pieces[1:])


def test_printer_against_naive_scan_of_every_exponent():
    rng = random.Random(1200)
    names = _Names()  # one table shared by every polynomial of a width
    for dim in [1, 2, 3, 7, 64, 999, 1000, 1200] + [rng.randint(1, 1200) for _ in range(12)]:
        names.clear()
        for _ in range(8):
            coeffs = {}
            for _ in range(rng.randint(0, 6)):
                mono = [0] * dim
                ends = rng.choice([[], [0], [dim - 1]])  # the first and last exponents too
                for i in rng.sample(range(dim), rng.randint(0, min(dim, 5))) + ends:
                    mono[i] = rng.choice([1, 1, 2, 3, 17])
                coeffs[tuple(mono)] = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 7]))
            p = Polynomial.from_dict(dim, coeffs)
            expected = naive_text(p)
            assert _text(p) == expected
            assert _text(p, names) == expected
            assert _text(p, names) == expected  # now read from the shared table
    assert names


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no limit on int/str conversions")
def test_printing_past_the_int_str_limit():
    # the interpreter's default limit is 4,300 digits; the expected texts are
    # spelled out, not converted from the long ints
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        big = "1" + "0" * 5000
        assert str(Polynomial.constant(1, Fraction(10**5000))) == big
        assert str(Polynomial.constant(1, Fraction(-10**5000))) == "-" + big
        # a 5,000-digit denominator, in a term and alone
        den = "1" + "0" * 4998 + "1"
        p = P(2, {(1, 0): Fraction(-2, 10**4999 + 1), (0, 0): 1})
        assert str(p) == f"-2/{den}*x1 + 1"
        assert str(Polynomial.constant(1, Fraction(1, 10**4999 + 1))) == f"1/{den}"
        # a 5,000-digit exponent
        assert str(P(2, {(0, 10**5000): 3})) == f"3*x2^{big}"
    finally:
        sys.set_int_max_str_digits(limit)


# -- algebraic properties -----------------------------------------------------


@given(poly_triples())
def test_ring_laws(ps):
    p, q, r = ps
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(poly_triples(), st.integers(-3, 3), st.integers(-3, 3))
def test_partial_is_klinear(ps, s, t):
    p, q, _ = ps
    for i in range(p.dim):
        lhs = (p.scale(s) + q.scale(t)).partial(i)
        assert lhs == p.partial(i).scale(s) + q.partial(i).scale(t)


@given(polynomials())
def test_schwarz_symmetry(p):
    for i in range(p.dim):
        for j in range(p.dim):
            assert p.partial(i).partial(j) == p.partial(j).partial(i)


@given(poly_triples())
def test_no_zero_coefficients_stored(ps):
    p, q, r = ps
    outputs = [p + q, p - q, p * q, (p + q) * r, p.scale(0), p.partial(0)]
    for out in outputs:
        assert all(c != 0 for _, c in out.terms)


@given(polynomials())
def test_mul_against_expand_oracle(p):
    q = p + Polynomial.constant(p.dim, 1)
    assert (p * q).as_dict() == expand_product(p, q)


@given(polynomials(), st.data())
def test_mul_by_one_term_or_zero_against_expand_oracle(p, data):
    q = data.draw(polynomials(dim=p.dim, max_terms=1))
    assert (p * q).as_dict() == expand_product(p, q)
    assert (q * p).as_dict() == expand_product(q, p)
    assert (q * q).as_dict() == expand_product(q, q)


@given(polynomials())
def test_partial_against_power_rule_oracle(p):
    for i in range(p.dim):
        assert p.partial(i).as_dict() == power_rule(p, i)


def test_polynomials_are_immutable():
    p = P(1, {(1,): 1})
    with pytest.raises(AttributeError):
        p.dim = 2


@given(substitutions())
# one-term and many-term arguments in one term: x1*x2^2 + 3 at (2*y1*y2, y1 + y2)
@example((P(2, {(1, 2): 1, (0, 0): 3}), [P(2, {(1, 1): 2}), P(2, {(1, 0): 1, (0, 1): 1})]))
# a one-term Fraction argument whose power makes the coefficient integral: 4*x1^2 at y1/2
@example((P(1, {(2,): 4, (1,): 1}), [P(1, {(1,): Fraction(1, 2)})]))
# a constant one-term argument next to a variable: x1^2*x2 - x1 at (3, y1)
@example((P(2, {(2, 1): 1, (1, 0): -1}), [Polynomial.constant(1, 3), P(1, {(1,): 1})]))
# a zero argument drops every term that uses it, even after a many-term power
@example((P(2, {(2, 1): 1, (2, 0): 5, (0, 0): 1}),
          [P(1, {(1,): 1, (0,): 1}), Polynomial.zero(1)]))
def test_substitute_against_naive_expansion(case):
    p, args = case
    result = p.substitute(args)
    assert result.as_dict() == naive_substitute(p, args, args[0].dim)
    assert is_canonical(result) and has_normal_coefficients(result)


# -- the reference re-indexing --------------------------------------------------
# The body of Polynomial.reindex from before it had one relabel path, kept
# verbatim (the polynomial is named p) as the oracle for the relabel and for a
# duplicated source: a permutation-only relabel, and a merge of every other
# routing in one accumulator.


def reference_reindex(p, sources, dim):
    if len(sources) != p.dim:
        raise ValueError(f"{len(sources)} routing sources, expected {p.dim}")
    for s in sources:
        if s is not None and not 0 <= s < dim:
            raise IndexError(f"source coordinate {s} out of range for dimension {dim}")
    if dim == p.dim and None not in sources and len(set(sources)) == dim:
        if dim < 2:
            return p  # the only permutation is the identity
        inverse = [0] * dim
        for i, s in enumerate(sources):
            inverse[s] = i
        relabel = itemgetter(*inverse)  # with two or more items, returns a tuple
        terms = [(relabel(m), c) for m, c in p.terms]
        terms.sort(key=_graded, reverse=True)
        return Polynomial(dim, tuple(terms))

    def routed():
        for m, c in p.terms:
            new = [0] * dim
            for i, e in enumerate(m):
                if e:
                    s = sources[i]
                    if s is None:
                        break
                    new[s] += e
            else:
                yield tuple(new), c

    return _accumulate(dim, routed())


def _outcome(call, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return call(*args)
    except (ValueError, IndexError) as err:
        return type(err), str(err)


@st.composite
def routings(draw):
    """A polynomial in 0..4 coordinates and a source for each coordinate in a
    0..4-coordinate space: a permutation, or any mix of None and sources,
    duplicated ones included, into a wider or a narrower space."""
    n = draw(st.integers(0, 4))
    p = draw(polynomials(dim=n, max_degree=2, max_terms=6))
    if draw(st.booleans()):
        return p, draw(st.permutations(range(n))), n
    dim = draw(st.integers(0, 4))
    return p, draw(st.lists(st.sampled_from([None, *range(dim)]), min_size=n, max_size=n)), dim


@given(routings())
@example((P(0, {(): 3}), [], 0))
@example((Polynomial.zero(0), [], 2))
@example((P(0, {(): Fraction(1, 2)}), [], 2))
@example((P(1, {(2,): 1, (0,): -1}), [0], 1))
@example((P(1, {(2,): 1, (0,): -1}), [None], 1))
@example((P(1, {(2,): 1, (0,): -1}), [None], 0))
@example((P(1, {(2,): 1, (1,): 4}), [2], 3))
@example((P(2, {(1, 0): 1, (0, 1): -1, (0, 0): 2}), [0, 0], 1))  # x1 - x2 + 2 at (y1, y1)
@example((P(2, {(2, 1): 1, (1, 0): 3}), [1, 1], 2))
@example((P(3, {(1, 1, 0): 1, (0, 0, 2): 5}), [1, None, 1], 2))
@example((P(2, {(1, 0): 1}), [0], 2))  # too few sources
@example((P(2, {(1, 0): 1}), [0, 2], 2))  # a source out of range
@example((P(2, {(1, 0): 1}), [0, -1], 2))
@example((P(2, {(1, 0): 1}), [0, 0, 5], 2))
def test_reindex_matches_the_reference(case):
    p, sources, dim = case
    result = _outcome(p.reindex, sources, dim)
    assert result == _outcome(reference_reindex, p, sources, dim)
    if isinstance(result, Polynomial):
        assert is_canonical(result) and has_normal_coefficients(result)


@given(poly_lists())
def test_sum_against_merge_oracle(case):
    dim, ps = case
    total = Polynomial.sum(dim, ps)
    assert total.as_dict() == merge_terms([t for p in ps for t in p.terms])
    assert is_canonical(total)
    for p in ps:
        # an exact cancellation leaves no term behind
        assert Polynomial.sum(dim, [p, -p]) == Polynomial.zero(dim)


@given(poly_lists())
def test_map_sum_against_merge_oracle(case):
    dim, ps = case
    domain = ArityProfile((dim,))
    # two-coordinate maps: (p, p * x1) for each p
    x1 = Polynomial.variable(0, dim)
    maps = [PolyMap(domain, (p, p * x1)) for p in ps]
    total = sum_maps(domain, 2, maps)
    for i in range(2):
        assert total.coords[i].as_dict() == merge_terms(
            [t for f in maps for t in f.coords[i].terms])
    for f in maps:
        assert sum_maps(domain, 2, [f, f.scale(-1)]) == zero_map(domain, 2)
    with pytest.raises(ValueError):
        sum_maps(domain, 3, [zero_map(domain, 2)])


@given(poly_triples(), substitutions(), st.integers(0, 2**32))
def test_every_operation_returns_canonical_terms(ps, case, seed):
    p, q, r = ps
    outputs = [p + q, p - q, -p, p * q, (p + q) * r, p.scale(3), p.scale(0), p ** 2,
               Polynomial.sum(p.dim, [p, q, r, -q]), p.pad(p.dim + 1)]
    # values that a Fraction computation makes integral
    two_x1, half_x1 = P(1, {(1,): 2}), P(1, {(1,): Fraction(1, 2)})
    outputs += [two_x1.scale(Fraction(1, 2)), half_x1 * two_x1,
                Polynomial.constant(p.dim, Fraction(4, 2)), Polynomial.variable(0, p.dim),
                Polynomial.from_dict(1, {(1,): Fraction(6, 3)}),
                p.scale(Fraction(1, 2)), p.scale(Fraction(4, 2))]
    for f in (parse_map("(1/2*x1^2 + 4/2*x1)"),
              random_map(random.Random(seed), ArityProfile((3,)), 2, 3)):
        outputs += [*f.coords, *reverse_derivative(f).coords, *forward_derivative(f).coords]
    outputs += [p.partial(i) for i in range(p.dim)]
    # route coordinate i to the last coordinate, or drop it
    outputs.append(p.reindex([p.dim - 1 if i % 2 else None for i in range(p.dim)], p.dim))
    outputs.append(p.reindex([0] * p.dim, 1))
    # a permutation: relabelled monomials, sorted once
    outputs.append(p.reindex([(i + 1) % p.dim for i in range(p.dim)], p.dim))
    outputs.append(p.reindex(list(reversed(range(p.dim))), p.dim))
    s, args = case
    outputs.append(s.substitute(args))
    for out in outputs:
        assert is_canonical(out), out.terms
        assert has_normal_coefficients(out), out.terms


def test_evaluate_returns_a_fraction_for_int_coefficients():
    p = parse_polynomial("3*x1^2 - 2")
    assert all(type(c) is int for _, c in p.terms)
    for poly, point, value in ((p, [2], 10), (Polynomial.constant(1, 5), [0], 5),
                               (Polynomial.zero(1), [2], 0)):
        result = poly.evaluate(point)
        assert type(result) is Fraction and result == value
