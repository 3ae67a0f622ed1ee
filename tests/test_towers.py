"""Higher-order towers: shapes, frozen values, stable rule, transpose bridge."""

import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from revderiv import combinators
from revderiv.combinators import (
    _partial,
    dagger,
    forward_derivative,
    partial_reverse,
    reverse_derivative,
)
from revderiv.corpus import CorpusConfig, random_context_map, random_single_block_map
from revderiv.laws import _stable_rule, run_suite
from revderiv.maps import ArityProfile, PolyMap
from revderiv.poly import Polynomial
from revderiv.syntax import parse_map
from revderiv.towers import forward_tower, reverse_tower


def test_equal_coefficients_give_one_cache_key():
    # a raw Fraction(2) and the parser's int 2 are one map and one cache key
    raw = PolyMap(ArityProfile((1,)), (Polynomial(1, (((1,), Fraction(2)),)),))
    parsed = parse_map("(2*x1)")
    assert raw == parsed and hash(raw) == hash(parsed)
    reverse_tower.cache_clear()
    first = reverse_tower(raw, 1)
    hits = reverse_tower.cache_info().hits
    assert reverse_tower(parsed, 1) == first
    assert reverse_tower.cache_info().hits == hits + 1
    assert str(first) == "(2*x2)"


def test_map_hash_is_computed_once_outside_the_fields():
    raw = PolyMap(ArityProfile((1,)), (Polynomial(1, (((1,), Fraction(2)),)),))
    parsed = parse_map("(2*x1)")
    assert raw._hash is None
    for f in (raw, parsed):
        assert hash(f) == f._hash == hash((f.domain, f.coords))
    assert hash(raw) == hash(parsed) and raw == parsed
    # the cached hash is no field: repr, == and hash read the same before and after it
    assert PolyMap.__match_args__ == ("domain", "coords")
    fresh = PolyMap(raw.domain, raw.coords)
    assert fresh._hash is None and raw._hash is not None
    assert repr(fresh) == repr(raw) and "_hash" not in repr(raw)
    assert fresh == raw and raw == fresh
    assert hash(fresh) == hash(raw)
    reverse_tower.cache_clear()
    reverse_tower(raw, 1)
    reverse_tower(parsed, 1)
    assert reverse_tower.cache_info()[:2] == (1, 1)  # one key: a miss, then a hit


def test_reverse_tower_of_cube():
    f = parse_map("(x1^3)")
    assert str(reverse_tower(f, 1)) == "(3*x1^2*x2)"
    assert str(reverse_tower(f, 2)) == "(6*x1*x2*x3)"
    assert str(reverse_tower(f, 3)) == "(6*x2*x3*x4)"
    assert reverse_tower(f, 4).is_zero()


@pytest.mark.parametrize("tower", [reverse_tower, forward_tower])
def test_tower_deeper_than_the_recursion_limit(tower):
    # order 1500 is past the interpreter's default recursion limit of 1000
    (poly,) = tower(parse_map("(x1^1500)"), 1500).coords
    assert poly.terms == (((0,) + (1,) * 1500, math.factorial(1500)),)


@pytest.mark.parametrize("tower", [reverse_tower, forward_tower,
                                   reverse_derivative, forward_derivative])
def test_tower_order_conventions_on_a_multi_block_map(tower):
    # order 0 is the map on any domain; a negative order is refused before the domain
    f = parse_map("(x1*x2)", blocks=(1, 1))
    assert tower(f, 0) is f
    with pytest.raises(ValueError, match="derivative order must be nonnegative"):
        tower(f, -1)
    with pytest.raises(ValueError, match="single-block"):
        tower(f, 1)


@pytest.fixture
def fresh_towers():
    """Both tower caches empty before the test and after it, so no value built
    under a patched kernel outlives the test."""
    for tower in (reverse_tower, forward_tower):
        tower.cache_clear()
    yield
    for tower in (reverse_tower, forward_tower):
        tower.cache_clear()


@pytest.mark.parametrize("tower", [reverse_tower, forward_tower])
def test_tower_miss_is_one_kernel_call_of_its_order_on_f(tower, monkeypatch, fresh_towers):
    reverse = tower is reverse_tower
    calls = []

    def counted(t, j, rev, order=1):
        calls.append((t, j, rev, order))
        return _partial(t, j, rev, order)

    monkeypatch.setattr(combinators, "_partial", counted)
    f = parse_map("(x1^6*x2 - x2^2, x1*x2^5 + 3*x1)", blocks=(2,))
    seen = []
    for order in (4, 2, 5, 5):
        before = len(calls)
        got = tower(f, order)
        seen.append(calls[before:])
        want = f
        for _ in range(order):
            want = _partial(want, 1, reverse)
        assert got == want and not want.is_zero()
    # every miss starts from f, whatever orders of f are cached
    assert seen == [[(f, 1, reverse, 4)], [(f, 1, reverse, 2)], [(f, 1, reverse, 5)], []]
    info = tower.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 3)


def test_tower_cache_drops_the_least_recently_used_key(fresh_towers):
    maxsize = reverse_tower.cache_info().maxsize
    dom = ArityProfile((1,))
    maps = [PolyMap(dom, (Polynomial.constant(1, c),)) for c in range(maxsize + 1)]
    for f in maps[:-1]:
        reverse_tower(f, 1)
    reverse_tower(maps[0], 1)  # a hit makes the first key the most recent
    reverse_tower(maps[-1], 1)  # one past the bound drops the second key
    info = reverse_tower.cache_info()
    assert info.currsize == maxsize
    reverse_tower(maps[0], 1)
    assert reverse_tower.cache_info().misses == info.misses
    reverse_tower(maps[1], 1)
    assert reverse_tower.cache_info().misses == info.misses + 1
    assert reverse_tower.cache_info().currsize == maxsize


def test_towers_shared_across_threads_past_the_bound(fresh_towers):
    # 4 threads x 1,500 fresh maps pass the 4,096-key bound while the
    # interpreter switches threads as often as it can
    threads, per_thread = 4, 1500
    dom = ArityProfile((1,))
    errors = []

    def work(start):
        try:
            for c in range(start, start + per_thread):
                f = PolyMap(dom, (Polynomial(1, (((1,), c + 1),)),))
                assert reverse_tower(f, 1) == reverse_derivative(f)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, args=(i * per_thread,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert errors == []
    info = reverse_tower.cache_info()
    assert info.currsize == info.maxsize < threads * per_thread


def test_only_the_partition_sums_fill_the_tower_caches(fresh_towers):
    # every other law calls the total derivative itself
    for suite in ("rd-axioms", "context", "dagger", "stable"):
        run_suite(suite, 0, 5)
    assert [t.cache_info().currsize for t in (reverse_tower, forward_tower)] == [0, 0]
    run_suite("fdb-forward", 0, 5)
    assert forward_tower.cache_info().currsize > 0
    run_suite("fdb-reverse", 0, 5)
    assert reverse_tower.cache_info().currsize > 0


@pytest.mark.parametrize("mode", ["forward", "reverse"])
def test_fdb_laws_run_the_order_k_walk(mode, monkeypatch, fresh_towers):
    # a kernel that is wrong only above order 1: the fdb laws must see it,
    # because each tower miss there is one kernel call of the order asked for
    def wrong_above_one(t, j, rev, order=1):
        d = _partial(t, j, rev, order)
        return d.scale(2) if order > 1 else d

    monkeypatch.setattr(combinators, "_partial", wrong_above_one)
    report = run_suite(f"fdb-{mode}", 0, 20)
    assert report.law_failures[report.laws.index(f"fdb-{mode}")] > 0


def test_second_reverse_checks_every_tower_order(monkeypatch, fresh_towers):
    # a kernel that is wrong only above order 2: second-reverse compares each
    # order of the reverse tower with a contraction that shares no code with it
    def wrong_above_two(t, j, rev, order=1):
        d = _partial(t, j, rev, order)
        return d.scale(2) if order > 2 else d

    monkeypatch.setattr(combinators, "_partial", wrong_above_two)
    report = run_suite("stable", 0, 20)
    assert report.law_failures[report.laws.index("second-reverse")] > 0


def test_reverse_tower_order_zero_is_f():
    f = parse_map("(x1^2, x1)")
    assert reverse_tower(f, 0) == f
    assert forward_tower(f, 0) == f


def test_reverse_tower_of_linear_vanishes_at_two():
    f = parse_map("(2*x1 - x2, x1)")
    assert reverse_tower(f, 2).is_zero()


def test_forward_tower_values():
    cube = parse_map("(x1^3)")
    assert str(forward_tower(cube, 2)) == "(6*x1*x2*x3)"
    sq = parse_map("(x1^2)")
    assert str(forward_tower(sq, 2)) == "(2*x2*x3)"  # base point drops out
    assert forward_tower(sq, 3).is_zero()  # order beyond the degree


def test_tower_shapes():
    f = parse_map("(x1 + x2, x1*x2, x1^2)", blocks=(2,))  # 2 -> 3
    for order in range(1, 4):
        hr = reverse_tower(f, order)
        assert hr.domain.blocks == (2, 3) + (2,) * (order - 1)
        assert hr.codomain_dim == 2
        hf = forward_tower(f, order)
        assert hf.domain.blocks == (2,) * (order + 1)
        assert hf.codomain_dim == 3


def test_negative_order_rejected():
    f = parse_map("(x1)")
    with pytest.raises(ValueError):
        reverse_tower(f, -1)
    with pytest.raises(ValueError):
        forward_tower(f, -1)


def test_stable_rule_square():
    assert _stable_rule("stable", parse_map("(x1^2)"), 1) is None


def test_stable_rule_linear_both_sides_zero():
    f = parse_map("(3*x1 - x2, x1)", blocks=(2,))
    assert _stable_rule("stable", f, 1) is None
    assert partial_reverse(forward_tower(f, 1), 1).is_zero() and reverse_tower(f, 2).is_zero()


def test_stable_rule_random_corpus():
    rng = random.Random(21)
    cfg = CorpusConfig()
    for _ in range(30):
        f = random_single_block_map(rng, cfg)
        assert _stable_rule("stable", f, 1) is None


def test_stable_rule_in_context_random():
    rng = random.Random(22)
    cfg = CorpusConfig()
    for _ in range(20):
        f = random_context_map(rng, cfg)
        assert _stable_rule("stable-context", f, 2) is None
    with pytest.raises(IndexError):
        _stable_rule("stable-context", parse_map("(x1)"), 2)


def _transposed_forward(f, order):
    return dagger(forward_tower(f, order), 2)


def test_dagger_bridge_order_one_is_reverse_derivative():
    f = parse_map("(x1^2 + x2, x1*x2)", blocks=(2,))
    assert _transposed_forward(f, 1) == reverse_tower(f, 1) == reverse_derivative(f)


def test_dagger_bridge_cube_order_two():
    f = parse_map("(x1^3)")
    assert _transposed_forward(f, 2) == reverse_tower(f, 2)
    assert str(_transposed_forward(f, 2)) == "(6*x1*x2*x3)"


def test_dagger_bridge_linear_high_order_zero():
    f = parse_map("(2*x1, x1)")
    for order in (2, 3):
        assert _transposed_forward(f, order) == reverse_tower(f, order)
        assert _transposed_forward(f, order).is_zero()


def test_degree_bound_random():
    rng = random.Random(23)
    cfg = CorpusConfig()
    for _ in range(20):
        f = random_single_block_map(rng, cfg)
        order = max(f.max_degree(), 0) + 1
        assert reverse_tower(f, order).is_zero()
        assert forward_tower(f, order).is_zero()


def test_zero_dim_codomain_towers():
    f = PolyMap(ArityProfile((2,)), ())
    r = reverse_tower(f, 1)
    assert r.domain.blocks == (2, 0)
    assert r.is_zero()


def test_constant_map_towers():
    f = PolyMap(ArityProfile((1,)), (Polynomial.constant(1, 4),))
    assert reverse_tower(f, 1).is_zero()
    assert forward_tower(f, 1).is_zero()
