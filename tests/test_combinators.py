"""First-order combinators against hand-checked and oracle-built values."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from revderiv import corpus
from revderiv.combinators import (
    NotDLinearError,
    _partial,
    dagger,
    forward_derivative,
    is_dlinear,
    is_klinear_in_block,
    partial_forward,
    partial_reverse,
    reverse_derivative,
    slice_compose,
)
from revderiv.corpus import CorpusConfig, random_dlinear_map, random_map, random_profile
from revderiv.maps import (
    ArityProfile,
    PolyMap,
    compose,
    flatten,
    identity,
    pair,
    projection,
    reblock,
    select_blocks,
    zero_map,
)
from revderiv.poly import Polynomial
from revderiv.syntax import parse_map


def linear_map(matrix, n):
    """Rows of ``matrix`` are output coordinates over n inputs."""
    coords = []
    for row in matrix:
        p = Polynomial.zero(n)
        for i, c in enumerate(row):
            p = p + Polynomial.variable(i, n).scale(c)
        coords.append(p)
    return PolyMap(ArityProfile((n,)), tuple(coords))


# -- total reverse derivative --------------------------------------------------


def test_reverse_of_square():
    f = parse_map("(x1^2)")
    assert str(reverse_derivative(f)) == "(2*x1*x2)"


def test_reverse_of_identity_is_covector():
    f = identity(2)
    assert reverse_derivative(f) == projection(ArityProfile((2, 2)), 2)


def test_reverse_of_projection_injects():
    prof = ArityProfile((1, 1))
    p1 = projection(prof, 1)
    r = reverse_derivative(flatten(p1))
    assert str(r) == "(x3, 0)"


def test_reverse_requires_single_block():
    f = parse_map("(x1*x2)", blocks=(1, 1))
    with pytest.raises(ValueError):
        reverse_derivative(f)


# -- total forward derivative ---------------------------------------------------


def test_forward_of_square():
    f = parse_map("(x1^2)")
    assert str(forward_derivative(f)) == "(2*x1*x2)"


def test_forward_of_constant_is_zero():
    f = PolyMap(ArityProfile((2,)), (Polynomial.constant(2, 7),))
    assert forward_derivative(f).is_zero()


def test_forward_of_linear_is_matrix_action():
    matrix = [[1, 2, 0], [0, -1, 3]]
    f = linear_map(matrix, 3)
    d = forward_derivative(f)
    # expect row j applied to the fresh vector coordinates x4..x6
    expected = []
    for row in matrix:
        p = Polynomial.zero(6)
        for i, c in enumerate(row):
            p = p + Polynomial.variable(3 + i, 6).scale(c)
        expected.append(p)
    assert d == PolyMap(ArityProfile((3, 3)), tuple(expected))


# -- partial derivatives ---------------------------------------------------------


def test_partial_reverse_product():
    f = parse_map("(x1*x2)", blocks=(1, 1))
    assert str(partial_reverse(f, 1)) == "(x2*x3)"
    assert str(partial_reverse(f, 2)) == "(x1*x3)"
    with pytest.raises(IndexError):
        partial_reverse(f, 3)


def test_pairing_partials_recovers_total():
    rng = random.Random(5)
    cfg = CorpusConfig()
    from revderiv.corpus import random_map

    for _ in range(20):
        prof = random_profile(rng, cfg)
        f = random_map(rng, prof, rng.randint(1, 3), cfg.max_degree)
        parts = [partial_reverse(f, j) for j in range(1, prof.block_count + 1)]
        total = reverse_derivative(flatten(f))
        assert pair(parts) == reblock(total, prof.concat(f.codomain_dim))


def test_partial_forward_is_partial_slot():
    f = parse_map("(x1*x2)", blocks=(1, 1))
    assert str(partial_forward(f, 2)) == "(x1*x3)"


def test_partial_forward_of_constant_block_is_zero():
    f = parse_map("(x1^2)", blocks=(1, 1))  # ignores block 2
    assert partial_forward(f, 2).is_zero()


@pytest.mark.parametrize("derivative", [partial_reverse, partial_forward])
def test_partial_order_conventions(derivative):
    # the block is checked first; then order 0 is f and a negative order is refused
    f = parse_map("(x1^2*x2)", blocks=(1, 1))
    assert derivative(f, 2, 0) is f
    with pytest.raises(IndexError, match="block index 3"):
        derivative(f, 3, 0)
    with pytest.raises(IndexError, match="block index 3"):
        derivative(f, 3, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        derivative(f, 1, -1)


def test_partial_forwards_sum_to_total():
    rng = random.Random(6)
    cfg = CorpusConfig()
    from revderiv.corpus import random_map

    for _ in range(20):
        prof = random_profile(rng, cfg)
        f = random_map(rng, prof, rng.randint(1, 3), cfg.max_degree)
        nb = prof.block_count
        fine = ArityProfile(prof.blocks + prof.blocks)
        total = reblock(forward_derivative(flatten(f)), fine)
        acc = zero_map(fine, f.codomain_dim)
        for j in range(1, nb + 1):
            sel = select_blocks(fine, list(range(1, nb + 1)) + [nb + j])
            acc = acc + compose(partial_forward(f, j), sel)
        assert acc == total


def _peak_bytes(derivative, f):
    tracemalloc.start()
    try:
        derivative(f)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


WIDE = 3000


@pytest.mark.parametrize("derivative, f", [
    # the single variable x3000
    (forward_derivative, PolyMap(ArityProfile((WIDE,)), (Polynomial.variable(WIDE - 1, WIDE),))),
    # (0, ..., 0, x1): 3000 outputs, one of them nonzero
    (reverse_derivative, PolyMap(ArityProfile((1,)), (Polynomial.zero(1),) * (WIDE - 1)
                                 + (Polynomial.variable(0, 1),))),
], ids=["forward", "reverse"])
def test_wide_sparse_derivative_allocates_per_emitted_term(derivative, f):
    # a table of one-hot exponents for every fresh coordinate would take
    # 3000 x 3000 ints, over 70 MB; the one emitted term needs a few kB
    assert _peak_bytes(derivative, f) < 5_000_000


def _chain(lead):
    """(x1*x2 + x2*x3 + ... + x999*x1000) as one block, or with ``lead`` > 0
    as the last block after ``lead`` variables, each term times their cubes."""
    return PolyMap(ArityProfile((lead, 1000) if lead else (1000,)), (Polynomial.from_dict(
        lead + 1000, {(3,) * lead + (0,) * i + (1, 1) + (0,) * (998 - i): 1 for i in range(999)}),))


@pytest.mark.parametrize("reverse", [True, False], ids=["reverse", "forward"])
@pytest.mark.parametrize("lead", [0, 2], ids=["one-block", "high-degree-block-1"])
def test_wide_derivative_past_every_terms_degree_allocates_nothing_per_term(lead, reverse):
    # walking the 999 terms' choices would keep a 3,000-wide monomial per
    # choice sequence, about 48 MB; a term of block degree 2 has no order-3
    # terms, whatever its total degree
    f = _chain(lead)
    j = f.domain.block_count

    def order_3(f):
        got = _partial(f, j, reverse, 3)
        assert got.is_zero()
        assert got.codomain_dim == (1000 if reverse else 1)
    assert _peak_bytes(order_3, f) < 5_000_000


# -- forward from reverse ----------------------------------------------------------


def test_forward_from_reverse_examples():
    cube = parse_map("(x1^3)")
    assert dagger(reverse_derivative(cube), 2) == forward_derivative(cube)
    lin = linear_map([[2, -1], [1, 0]], 2)
    assert dagger(reverse_derivative(lin), 2) == forward_derivative(lin)
    const = PolyMap(ArityProfile((2,)), (Polynomial.constant(2, 3),))
    assert dagger(reverse_derivative(const), 2).is_zero()


# -- linearity tests -----------------------------------------------------------------


def test_is_dlinear_examples():
    cx = parse_map("(x1*x2)", blocks=(1, 1))
    assert is_dlinear(cx, 2)
    assert is_dlinear(cx, 1)  # bilinear, so linear in each block separately
    sq = parse_map("(x1^2)")
    assert not is_dlinear(sq, 1)
    prof = ArityProfile((2, 3))
    for j in (1, 2):
        assert is_dlinear(projection(prof, j), j)
    with pytest.raises(IndexError, match="block index 3"):
        is_dlinear(cx, 3)
    with pytest.raises(IndexError, match="block index 3"):
        dagger(cx, 3)


@pytest.mark.parametrize("j, linear, flat, square", [
    (1, "x1*x3", "x3^2", "x1*x2*x4"),
    (2, "x1*x4", "x1^2", "x2*x3^2"),
])
def test_klinear_refuses_a_term_of_another_degree_in_the_block(j, linear, flat, square):
    # on blocks (x1, x2 | x3, x4): linear has degree 1 in block j, flat
    # degree 0 and square degree 2
    def f(text):
        return parse_map(text, blocks=(2, 2))

    assert is_klinear_in_block(f(f"({linear}, 3*{linear})"), j)
    assert not is_klinear_in_block(f(f"({linear}, {flat})"), j)
    assert not is_klinear_in_block(f(f"({square}, {linear})"), j)
    assert not is_klinear_in_block(f(f"({linear} + {flat} + {square})"), j)


def test_dlinear_implies_klinear():
    rng = random.Random(11)
    cfg = CorpusConfig()
    for _ in range(20):
        prof = random_profile(rng, cfg)
        j = rng.randint(1, prof.block_count)
        f = random_dlinear_map(rng, prof, j, rng.randint(1, 3), cfg)
        assert is_dlinear(f, j)
        assert is_klinear_in_block(f, j)


# -- dagger -----------------------------------------------------------------------------


def test_dagger_of_scaling():
    cx = parse_map("(x1*x2)", blocks=(1, 1))
    assert str(dagger(cx, 2)) == "(x1*x2)"


def test_dagger_of_linear_is_transpose():
    matrix = [[1, 2, 0], [0, -1, 3]]
    f = linear_map(matrix, 3)
    fd = dagger(f, 1)
    # transpose oracle: column i of the matrix against covector x1, x2
    expected = []
    for i in range(3):
        p = Polynomial.zero(2)
        for j in range(2):
            p = p + Polynomial.variable(j, 2).scale(matrix[j][i])
        expected.append(p)
    assert fd == PolyMap(ArityProfile((2,)), tuple(expected))


def test_dagger_is_involutive():
    rng = random.Random(12)
    cfg = CorpusConfig()
    for _ in range(20):
        prof = random_profile(rng, cfg)
        j = rng.randint(1, prof.block_count)
        f = random_dlinear_map(rng, prof, j, rng.randint(1, 3), cfg)
        assert dagger(dagger(f, j), j) == f


def test_dagger_rejects_nonlinear():
    sq = parse_map("(x1^2)")
    with pytest.raises(NotDLinearError, match="not D-linear in block 1"):
        dagger(sq, 1)


# -- slice constructions -------------------------------------------------------------------


def test_slice_compose_example():
    f = parse_map("(x1*x2)", blocks=(1, 1))       # f(c, x) = c*x
    g = parse_map("(x1 + x2)", blocks=(1, 1))     # g(c, y) = c + y
    assert str(slice_compose(g, f, 1)) == "(x1*x2 + x1)"


def test_slice_compose_unit_laws():
    f = parse_map("(x1*x2^2)", blocks=(1, 1))
    ident_b = projection(ArityProfile((1, f.codomain_dim)), 2)
    assert slice_compose(ident_b, f, 1) == f
    ident_a = projection(f.domain, 2)
    assert slice_compose(f, ident_a, 1) == f


def test_slice_compose_zero_context_is_plain_composition():
    f = parse_map("(x1^2, x1)")
    g = parse_map("(x1*x2)")
    f0 = reblock(f, ArityProfile((0, 1)))
    g0 = reblock(g, ArityProfile((0, 2)))
    assert slice_compose(g0, f0, 0).coords == compose(g, f).coords


@pytest.mark.parametrize("g, g_blocks, f, context_dim, message", [
    ("(x1)", (1,), "(x1*x2)", 1, "context composition expects two-block domains"),
    ("(x1*x2)", (1, 1), "(x1*x2)", 2, "context blocks must both have dimension 2"),
    ("(x1 + x2)", (1, 1), "(x1*x2, x2)", 1, "inner map produces 2 outputs, outer expects 1"),
], ids=["blocks", "context", "interface"])
def test_slice_compose_refusals(g, g_blocks, f, context_dim, message):
    with pytest.raises(ValueError, match=message):
        slice_compose(parse_map(g, blocks=g_blocks), parse_map(f, blocks=(1, 1)), context_dim)


def test_slice_reverse():
    # the reverse derivative in a fixed context block is the partial in block 2
    f = parse_map("(x1*x2^2)", blocks=(1, 1))     # f(c, x) = c*x^2
    assert str(partial_reverse(f, 2)) == "(2*x1*x2*x3)"
    g = parse_map("(x1^3)")
    g0 = reblock(g, ArityProfile((0, 1)))
    assert partial_reverse(g0, 2).coords == reverse_derivative(g).coords


# -- the kernel at any order ------------------------------------------------------


def _steps(f, j, reverse, order):
    for _ in range(order):
        f = _partial(f, j, reverse)
    return f


@pytest.mark.parametrize("blocks, codomain", [
    ((1, 2), 2), ((2, 0, 1), 2), ((0, 3), 2), ((1, 2), 0), ((3,), 2), ((2, 1, 3), 1),
])
def test_kernel_of_order_k_is_k_steps_of_order_one(blocks, codomain):
    rng = random.Random(f"order-k/{blocks}/{codomain}")
    profile = ArityProfile(blocks)
    dim = profile.total
    # one term of degree 4 in the first variable of every block, coefficient 1/2
    starts = {profile.block_range(j).start for j in range(1, len(blocks) + 1)}
    spike = Polynomial.from_dict(
        dim, {tuple(4 if i in starts else 1 for i in range(dim)): Fraction(1, 2)})
    maps = [PolyMap(profile, (spike,) * codomain)]
    maps += [random_map(rng, profile, codomain, 5) for _ in range(6)]
    for f in maps:
        for j in range(1, len(blocks) + 1):
            for reverse in (True, False):
                for order in range(1, 5):
                    got = _partial(f, j, reverse, order)
                    assert got == _steps(f, j, reverse, order)
                    if f is maps[0] and codomain and blocks[j - 1]:
                        assert not got.is_zero()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_kernel_skips_a_term_by_its_degree_in_block_j_only(order):
    # block j's degree decides: order - 1 vanishes, order is kept, whatever
    # the other block holds (nothing, order - 1, or a high degree); at order 1
    # a term with no block-j variable vanishes
    profile = ArityProfile((2, 3))
    for j in (1, 2):
        rng = profile.block_range(j)
        other = profile.block_range(3 - j)
        vanish, kept = {}, {}
        for degree, terms in ((order - 1, vanish), (order, kept)):
            for rest in (0, order - 1, 9):
                for split in range(degree + 1):
                    mono = [0] * profile.total
                    mono[rng.start] += split
                    mono[rng.stop - 1] += degree - split
                    mono[other.start] += rest
                    terms[tuple(mono)] = Fraction(split + 1, rest + 2)
        for terms in (vanish, kept):
            p = Polynomial.from_dict(profile.total, terms)
            f = PolyMap(profile, (p, p.scale(-3)))
            for reverse in (True, False):
                got = _partial(f, j, reverse, order)
                assert got == _steps(f, j, reverse, order)
                assert got.is_zero() == (terms is vanish)


def test_kernel_emits_each_monomial_once_in_canonical_order(monkeypatch):
    # each output is a list the kernel appends to and sorts, with no merging:
    # summing a coordinate with nothing else merges and re-sorts its terms, so
    # it is the identity only if no monomial was emitted twice and the terms
    # are in canonical order
    rng = random.Random(57)
    cfg = CorpusConfig()
    monkeypatch.setattr(corpus, "MAX_TERMS", 6)  # more terms than the corpus draws
    emitted = 0
    for _ in range(40):
        prof = random_profile(rng, cfg)
        f = random_map(rng, prof, rng.randint(1, 3), 5)
        for j in range(1, prof.block_count + 1):
            for reverse in (True, False):
                for order in range(1, 5):
                    for p in _partial(f, j, reverse, order).coords:
                        assert Polynomial.sum(p.dim, [p]) == p
                        emitted += len(p.terms)
    assert emitted > 1000
