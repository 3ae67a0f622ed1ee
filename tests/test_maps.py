"""Block-structured maps: products, composition, evaluation, reblocking."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from revderiv.corpus import CorpusConfig, random_map, random_profile
from revderiv.maps import (
    ArityProfile,
    PolyMap,
    compose,
    embed_blocks,
    flatten,
    identity,
    pair,
    precompose_blocks,
    projection,
    reblock,
    select_blocks,
    zero_map,
)
from revderiv.poly import Polynomial


def test_profile_bookkeeping():
    prof = ArityProfile((2, 3))
    assert prof.total == 5
    assert prof.block_range(1) == range(0, 2)
    # block 2 of (2,3) covers flat coordinates 2..4
    assert prof.block_range(2) == range(2, 5)
    with pytest.raises(IndexError):
        prof.block_range(3)
    with pytest.raises(ValueError):
        ArityProfile(())
    with pytest.raises(ValueError):
        ArityProfile((1, -1))


def test_projection_selects_block():
    prof = ArityProfile((2, 3))
    p2 = projection(prof, 2)
    assert p2.codomain_dim == 3
    assert p2.evaluate([1, 2, 3, 4, 5]) == (3, 4, 5)


def test_pair_then_project_recovers_component():
    prof = ArityProfile((2,))
    f = PolyMap(prof, (Polynomial.variable(0, 2),))
    g = PolyMap(prof, (Polynomial.variable(1, 2), Polynomial.constant(2, 3)))
    tup = pair([f, g])
    assert tup.coords[:1] == f.coords
    assert tup.coords[1:] == g.coords


def test_map_add_zero_identity():
    prof = ArityProfile((2,))
    f = PolyMap(prof, (Polynomial.variable(0, 2) * Polynomial.variable(1, 2),))
    assert f + zero_map(prof, 1) == f


def test_compose_identity_and_projection_laws():
    prof = ArityProfile((3,))
    g = PolyMap(prof, (Polynomial.variable(0, 3) * Polynomial.variable(2, 3),))
    assert compose(g, identity(prof)) == g
    fs = [
        PolyMap(prof, (Polynomial.variable(i, 3),)) for i in range(3)
    ]
    tup = pair(fs)
    for j, f in enumerate(fs, start=1):
        assert compose(projection(ArityProfile((1, 1, 1)), j), tup) == f


def test_compose_substitution_example():
    # (x^2) o (x+1) -> x^2 + 2x + 1
    sq = PolyMap(ArityProfile((1,)), (Polynomial.from_dict(1, {(2,): Fraction(1)}),))
    shift = PolyMap(
        ArityProfile((1,)),
        (Polynomial.from_dict(1, {(1,): Fraction(1), (0,): Fraction(1)}),),
    )
    out = compose(sq, shift)
    assert str(out) == "(x1^2 + 2*x1 + 1)"


def test_eval_homomorphism_random():
    rng = random.Random(99)
    cfg = CorpusConfig()
    for _ in range(25):
        prof = random_profile(rng, cfg)
        mid = rng.randint(1, 3)
        f = random_map(rng, prof, mid, cfg.max_degree)
        g = random_map(rng, ArityProfile((mid,)), rng.randint(1, 3), cfg.max_degree)
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(prof.total)]
        assert compose(g, f).evaluate(point) == g.evaluate(f.evaluate(point))


def test_eval_identity_and_zero():
    v = [Fraction(2), Fraction(-5)]
    assert identity(2).evaluate(v) == tuple(v)
    assert zero_map(ArityProfile((2,)), 3).evaluate(v) == (0, 0, 0)


def test_reblock_is_free():
    prof = ArityProfile((2, 3))
    f = PolyMap(prof, (Polynomial.variable(4, 5),))
    flat = reblock(f, ArityProfile((5,)))
    assert flat.coords == f.coords
    assert reblock(flat, prof) == f
    with pytest.raises(ValueError):
        reblock(f, ArityProfile((2, 2)))


def test_reblock_zero_dim_block_preserves_evaluation():
    f = PolyMap(ArityProfile((2,)), (Polynomial.variable(1, 2),))
    g = reblock(f, ArityProfile((1, 0, 1)))
    point = [Fraction(3), Fraction(7)]
    assert g.evaluate(point) == f.evaluate(point)
    assert flatten(g) == f


def test_zero_dim_codomain():
    f = zero_map(ArityProfile((2,)), 0)
    assert f.codomain_dim == 0
    assert f.evaluate([1, 2]) == ()
    assert str(f) == "()"


def test_embed_blocks_routing():
    src = ArityProfile((1, 2))
    target = ArityProfile((2, 1, 1))
    w = embed_blocks(src, target, {1: 2, 3: 1})
    assert w.evaluate([Fraction(5), Fraction(1), Fraction(2)]) == (1, 2, 0, 5)
    with pytest.raises(ValueError):
        embed_blocks(src, target, {1: 1})  # dimension clash


def test_select_blocks():
    src = ArityProfile((1, 2, 1))
    w = select_blocks(src, [3, 1])
    assert w.evaluate([1, 2, 3, 4]) == (4, 1)


@st.composite
def routings(draw):
    """A source profile, a target profile and a placement between them: each
    target block copies some source block or is zero-filled."""
    src = ArityProfile(tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))))
    dims: list[int] = []
    placement: dict[int, int] = {}
    for t in range(1, draw(st.integers(1, 4)) + 1):
        s = draw(st.none() | st.integers(1, src.block_count))
        if s is None:
            dims.append(draw(st.integers(0, 3)))
        else:
            placement[t] = s
            dims.append(src.block_dim(s))
    return src, ArityProfile(tuple(dims)), placement


@given(routings(), st.integers(0, 2**32 - 1))
@example((ArityProfile((1, 2, 2)), ArityProfile((2, 1, 2)), {1: 3, 2: 1, 3: 2}), 1)  # permutation
@example((ArityProfile((2, 1)), ArityProfile((2, 3, 1)), {1: 1, 3: 2}), 2)  # zero insertion
@example((ArityProfile((1, 2, 3)), ArityProfile((3, 1)), {1: 3, 2: 1}), 3)  # selection
@example((ArityProfile((2,)), ArityProfile((2, 2)), {1: 1, 2: 1}), 4)  # one source, two targets
def test_precompose_blocks_matches_substitution_oracle(routing, seed):
    src, target, placement = routing
    rng = random.Random(seed)
    f = random_map(rng, target, rng.randint(1, 3), 3)
    routing_map = embed_blocks(src, target, placement)
    assert precompose_blocks(f, src, placement) == compose(f, routing_map)
    # where two targets share a source, f minus f-with-those-blocks-swapped
    # routes to colliding monomials whose coefficients cancel exactly
    for t1 in placement:
        for t2 in placement:
            if t1 < t2 and placement[t1] == placement[t2]:
                swap = {t: t for t in range(1, target.block_count + 1)}
                swap[t1], swap[t2] = t2, t1
                g = f + compose(f, embed_blocks(target, target, swap)).scale(-1)
                routed = precompose_blocks(g, src, placement)
                assert routed == compose(g, routing_map)
                assert routed.is_zero()


@pytest.mark.parametrize("blocks", [(2, 0, 1, 3), (1,), (1, 0)])
def test_precompose_blocks_permutations_match_substitution_oracle(blocks):
    # every permutation of the blocks, unequal and 0-dimensional ones included,
    # relabels each monomial by one permutation of the coordinates
    src = ArityProfile(blocks)
    rng = random.Random(str(blocks))
    for perm in itertools.permutations(range(1, len(blocks) + 1)):
        target = ArityProfile(tuple(src.block_dim(s) for s in perm))
        placement = {t: s for t, s in enumerate(perm, start=1)}
        f = random_map(rng, target, 2, 3)
        assert precompose_blocks(f, src, placement) == compose(f, embed_blocks(src, target, placement))


def test_placement_keys_must_name_target_blocks():
    f = PolyMap(ArityProfile((1, 1)), (Polynomial.variable(0, 2),))
    src = ArityProfile((1, 1))
    with pytest.raises(IndexError, match="placement key 5"):
        precompose_blocks(f, src, {1: 2, 2: 1, 5: 1})
    with pytest.raises(IndexError, match="placement key 9"):
        embed_blocks(src, ArityProfile((1, 1)), {1: 2, 9: 1})
    with pytest.raises(IndexError, match="placement key 0"):
        embed_blocks(src, ArityProfile((1, 1)), {0: 1})


def test_precompose_blocks_cancels_colliding_monomials():
    # x1*x2 - x1^2 with both blocks fed from one source is x^2 - x^2 = 0
    f = PolyMap(ArityProfile((1, 1)), (
        Polynomial.from_dict(2, {(1, 1): Fraction(1), (2, 0): Fraction(-1), (0, 1): Fraction(3)}),
    ))
    routed = precompose_blocks(f, ArityProfile((1,)), {1: 1, 2: 1})
    assert str(routed) == "(3*x1)"
    with pytest.raises(ValueError):
        precompose_blocks(f, ArityProfile((2,)), {1: 1})  # dimension clash


def test_pair_requires_shared_domain():
    f = identity(2)
    g = identity(3)
    with pytest.raises(ValueError):
        pair([f, g])
    with pytest.raises(ValueError):
        pair([])


def test_compose_interface_mismatch():
    f = identity(2)
    g = identity(3)
    with pytest.raises(ValueError):
        compose(g, f)


def test_maps_are_immutable():
    f = identity(2)
    with pytest.raises(AttributeError):
        f.coords = ()
