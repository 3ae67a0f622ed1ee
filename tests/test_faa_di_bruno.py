"""Partition-sum chain rules against the iterated-derivative oracle."""

import random
import sys
from fractions import Fraction

import pytest

from revderiv import faa_di_bruno
from revderiv.combinators import dagger
from revderiv.corpus import CorpusConfig, random_composable_pair, random_map
from revderiv.laws import LAWS
from revderiv.faa_di_bruno import (
    _factors,
    _first_difference,
    _Inner,
    _forward_summand,
    _reverse_summand,
    FdbSummand,
    fdb_report,
)
from revderiv.maps import ArityProfile, PolyMap, compose, pair, select_blocks
from revderiv.partitions import enumerate_partitions
from revderiv.poly import Polynomial
from revderiv.syntax import parse_map
from revderiv.towers import forward_tower, reverse_tower

SQ = parse_map("(x1^2)")


def test_forward_n0_is_chain_rule():
    f, g = SQ, SQ
    out = fdb_report(f, g, 0, "forward").total
    assert out == forward_tower(compose(g, f), 1)
    # D[g o f](a, b) built by hand: D[g](f(a), D[f](a, b))
    dom = ArityProfile((1, 1))
    base = compose(f, select_blocks(dom, [1]))
    rhs = compose(forward_tower(g, 1), pair([base, forward_tower(f, 1)]))
    assert out == rhs


def test_forward_n1_frozen_value():
    # f = g = squaring, so the composite is x^4 and the order-2 forward
    # derivative is 12*a0^2*a1*a2
    out = fdb_report(SQ, SQ, 1, "forward").total
    assert str(out) == "(12*x1^2*x2*x3)"
    assert out == forward_tower(compose(SQ, SQ), 2)


def test_reverse_n0_is_reverse_chain_rule_byte_identical():
    f = parse_map("(x1^2, x1)")
    g = parse_map("(x1*x2^2)", blocks=(2,))
    rep = fdb_report(f, g, 0, "reverse")
    assert rep.equal
    assert len(rep.summands) == 1
    # hand-built reverse chain rule: R[f](a, R[g](f(a), b))
    dom = ArityProfile((1, 1))
    base = compose(f, select_blocks(dom, [1]))
    inner = compose(reverse_tower(g, 1), pair([base, select_blocks(dom, [2])]))
    rhs = compose(reverse_tower(f, 1), pair([select_blocks(dom, [1]), inner]))
    assert rep.total == rhs
    assert str(rep.total) == str(rhs)


def test_reverse_n1_matches_displayed_two_summand_formula():
    f, g = SQ, SQ
    rep = fdb_report(f, g, 1, "reverse")
    assert rep.equal
    assert [str(s.partition) for s in rep.summands] == ["{1}|{2}", "{1,2}"]
    dom = ArityProfile((1, 1, 1))  # (a0, b, a2)
    a0 = select_blocks(dom, [1])
    b = select_blocks(dom, [2])
    a2 = select_blocks(dom, [3])
    base = compose(f, a0)
    # first summand: the singleton {2} feeds a forward factor of f into the
    # order-2 reverse derivative of g
    push = compose(forward_tower(f, 1), pair([a0, a2]))
    inner1 = compose(reverse_tower(g, 2), pair([base, b, push]))
    summand1 = compose(reverse_tower(f, 1), pair([a0, inner1]))
    # second summand: {1,2} drives the order-2 reverse derivative of f
    inner2 = compose(reverse_tower(g, 1), pair([base, b]))
    summand2 = compose(reverse_tower(f, 2), pair([a0, inner2, a2]))
    assert rep.summands[0].result == summand1
    assert rep.summands[1].result == summand2
    assert rep.total == summand1 + summand2
    assert str(rep.total) == "(12*x1^2*x2*x3)"


def test_summand_counts_follow_partition_counts():
    f = parse_map("(x1 + x1^2)")
    g = parse_map("(2*x1)")
    expected = {0: 1, 1: 2, 2: 5, 3: 15}
    for n, count in expected.items():
        for mode in ("forward", "reverse"):
            rep = fdb_report(f, g, n, mode)
            assert len(rep.summands) == count
            assert rep.equal


def test_identities_on_random_pairs():
    rng = random.Random(31)
    cfg = CorpusConfig(max_dim=2, max_degree=2)
    for _ in range(5):
        f, g = random_composable_pair(rng, cfg)
        for n in range(3):
            assert fdb_report(f, g, n, "forward").total == forward_tower(compose(g, f), n + 1)
            assert fdb_report(f, g, n, "reverse").total == reverse_tower(compose(g, f), n + 1)


def test_reverse_never_takes_forward_of_outer_map():
    rng = random.Random(32)
    cfg = CorpusConfig(max_dim=2, max_degree=2)
    f, g = random_composable_pair(rng, cfg)
    for n in range(4):
        rep = fdb_report(f, g, n, "reverse")
        for s in rep.summands:
            kinds_on_g = {kind for kind, which, _ in s.factors if which == "g"}
            assert kinds_on_g == {"reverse"}
            # the outer factor on f is reverse; inner f factors are forward
            assert s.factors[0][:2] == ("reverse", "f")


def test_degenerate_middle_dimension():
    # f : 1 -> 0 and g : 0 -> 1 make the composite constant
    f = PolyMap(ArityProfile((1,)), ())
    g = PolyMap(ArityProfile((0,)), (Polynomial.constant(0, 5),))
    for n in range(3):
        rep = fdb_report(f, g, n, "reverse")
        assert rep.total.is_zero()
        assert rep.equal
        assert fdb_report(f, g, n, "forward").total.is_zero()


def test_interface_mismatch_rejected():
    f = parse_map("(x1, x1)")  # 1 -> 2
    g = parse_map("(x1^2)")    # 1 -> 1
    two_block = parse_map("(x1*x2)", blocks=(1, 1))
    # maps that do not compose, a two-block f (refused by the oracle) and a
    # two-block g that composes with f, also where the degrees of a constant f
    # rule out every summand and no tower of g is built
    constant = parse_map("(1, 2)", blocks=(1,))
    for inner, outer in ((f, g), (two_block, g), (parse_map("(x1, x1^2)"), two_block),
                         (constant, two_block)):
        for mode in ("forward", "reverse"):
            with pytest.raises(ValueError):
                fdb_report(inner, outer, 0, mode)
    with pytest.raises(ValueError):
        fdb_report(g, g, 0, "sideways")
    with pytest.raises(ValueError):
        fdb_report(g, g, -1, "reverse")


def test_oracle_is_not_read_from_the_tower_caches(monkeypatch):
    # the summands read the towers of f and g; the composite's tower is built
    # by the oracle alone, so it is called directly and never cached
    f = parse_map("(x1^2 + x2, x1*x2^2)", blocks=(2,))
    g = parse_map("(x1^3*x2 - x2^2)", blocks=(2,))
    composite = compose(g, f)
    assert f != g and composite not in (f, g)
    calls = []

    def recorder(name, tower):
        def record(h, order):
            calls.append((name, h))
            return tower(h, order)
        return record

    monkeypatch.setattr(faa_di_bruno, "forward_tower", recorder("forward", forward_tower))
    monkeypatch.setattr(faa_di_bruno, "reverse_tower", recorder("reverse", reverse_tower))
    asked = {}
    for mode in ("forward", "reverse"):
        start = len(calls)
        for n in range(4):
            assert fdb_report(f, g, n, mode).equal
        asked[mode] = set(calls[start:])
    assert calls and composite not in {h for _, h in calls}
    # the forward sum takes no reverse tower; the reverse sum reads g through
    # its reverse tower alone and never takes a forward derivative of it
    assert {name for name, _ in asked["forward"]} == {"forward"}
    assert ("reverse", g) in asked["reverse"]
    assert ("forward", g) not in asked["reverse"]


def test_report_json_shape():
    rep = fdb_report(SQ, SQ, 1, "reverse")
    payload = rep.to_json()
    assert payload["mode"] == "reverse"
    assert payload["n"] == 1
    assert payload["equal"] is True
    assert payload["first_difference"] is None
    assert len(payload["summands"]) == 2
    first = payload["summands"][0]
    assert set(first) == {"partition", "block_sizes", "factors", "map"}


@pytest.mark.parametrize("mode", ["forward", "reverse"])
def test_report_json_maps_print_as_str(mode):
    # to_json prints every map of a report with one shared monomial table
    for f, g in corpus_pairs():
        for n in range(4):
            rep = fdb_report(f, g, n, mode)
            payload = rep.to_json()
            assert [s["map"] for s in payload["summands"]] == [str(s.result) for s in rep.summands]
            assert payload["total"] == str(rep.total)
            assert payload["oracle"] == str(rep.oracle)


def test_first_difference_names_coordinate_and_monomial():
    same = parse_map("(x1, x2)")
    assert _first_difference(same, parse_map("(x1, x2)")) is None
    # one monomial differs: its coefficients on both sides
    lhs, rhs = parse_map("(x1, x1^2*x3 + x2)"), parse_map("(x1, 3*x1^2*x3 + x2)")
    assert _first_difference(lhs, rhs) == "coordinate 2, monomial x1^2*x3: 1 vs 3"
    # the highest differing monomial comes first, signs included
    lhs, rhs = parse_map("(x1 - x2^3)"), parse_map("(x1 + x2^3)")
    assert _first_difference(lhs, rhs) == "coordinate 1, monomial x2^3: -1 vs 1"
    # the constant term prints as the monomial 1
    lhs, rhs = parse_map("(x1^2 + 1/2, x2)"), parse_map("(x1^2, x2)")
    assert _first_difference(lhs, rhs) == "coordinate 1, monomial 1: 1/2 vs 0"
    # different shapes are reported before any coefficient
    lhs, rhs = parse_map("(x1^2, x2)"), parse_map("(x1^2)", blocks=(2,))
    assert _first_difference(lhs, rhs) == "shape mismatch: (2)->2 vs (2)->1"
    lhs, rhs = parse_map("(x1)", blocks=(1, 1)), parse_map("(x1)", blocks=(2,))
    assert _first_difference(lhs, rhs) == "shape mismatch: (1,1)->1 vs (2)->1"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no limit on int/str conversions")
def test_first_difference_prints_past_the_int_str_limit():
    # the interpreter's default limit is 4,300 digits; the coefficient has 5,000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        big = Fraction(10**4999 + 1)
        lhs = PolyMap(ArityProfile((1,)), (Polynomial.constant(1, big),))
        rhs = PolyMap(ArityProfile((1,)), (Polynomial.constant(1, -big),))
        digits = "1" + "0" * 4998 + "1"
        assert _first_difference(lhs, rhs) == f"coordinate 1, monomial 1: {digits} vs -{digits}"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("mode", ["forward", "reverse"])
def test_counting_the_summands_and_the_fdb_laws_build_no_summand(mode, monkeypatch):
    # a report holds one map per shape; _summand builds every other summand
    built = []
    summand = faa_di_bruno._summand
    monkeypatch.setattr(faa_di_bruno, "_summand", lambda *args: built.append(args) or summand(*args))
    f = parse_map("(x1^3*x2 + x2^2, x1*x2 - x1^4)", blocks=(2,))
    g = parse_map("(x1^2*x2^3 + x1, x2^5)", blocks=(2,))
    rep = fdb_report(f, g, 4, mode)
    assert len(rep.summands) == 52 and rep.equal
    # the fdb laws read the count, the total and the verdict
    cfg = CorpusConfig(max_order=2)
    assert all(law(random.Random(f"0/{law_id}"), cfg) is None
               for law_id, law in LAWS[f"fdb-{mode}"])
    assert built == []
    # reading the summands builds each once, in partition order
    assert [s.partition for s in rep.summands] == enumerate_partitions(5)
    assert [args[2] for args in built] == [picks for _, _, picks in rep.plan]


# -- every summand against its own direct construction --------------------------


def corpus_pairs():
    """Composable corpus pairs whose inner map has a 2-dimensional domain: on a
    1-dimensional one, all summands of one shape are the same polynomial."""
    rng = random.Random(33)
    pairs = []
    for _ in range(4):
        b, c = rng.randint(1, 2), rng.randint(1, 2)
        f = random_map(rng, ArityProfile((2,)), b, 3)
        pairs.append((f, random_map(rng, ArityProfile((b,)), c, 3)))
    return pairs


def direct_summands(f, g, n, mode):
    """Each partition's summand built by its own substitution, with no sharing."""
    a = f.domain.total
    if mode == "forward":
        dom, build = ArityProfile((a,) * (n + 2)), _forward_summand
    else:
        dom, build = ArityProfile((a, g.codomain_dim) + (a,) * n), _reverse_summand
    inner = _Inner(f, dom)
    return [FdbSummand(part, _factors(part.block_sizes(), mode), build(g, inner, part))
            for part in enumerate_partitions(n + 1)]


def summand_mismatches(mode):
    """Summands of fdb_report, for corpus pairs and n <= 3, that differ from the
    direct construction in partition, factors or map."""
    bad = 0
    for f, g in corpus_pairs():
        for n in range(4):
            got = fdb_report(f, g, n, mode).summands
            want = direct_summands(f, g, n, mode)
            assert len(got) == len(want)
            bad += sum(s != t for s, t in zip(got, want))
    return bad


MODES = pytest.mark.parametrize("mode", ["forward", "reverse"])


@MODES
def test_every_summand_matches_its_direct_construction(mode):
    assert summand_mismatches(mode) == 0


def same_shape_swap(relabellings):
    """A mutant of ``_relabellings`` that hands each relabelled partition's
    permutation, and so its summand's map, to the next relabelled partition of
    the same shape; the representatives keep theirs.  The totals cannot see it."""

    def swapped(*args):
        out = list(relabellings(*args))
        groups = {}
        for i, (part, shape, picks) in enumerate(out):
            if picks is not None:
                groups.setdefault(shape, []).append(i)
        for idx in groups.values():
            picks = [out[i][2] for i in idx]
            for i, p in zip(idx, picks[1:] + picks[:1]):
                out[i] = out[i][:2] + (p,)
        return iter(out)

    return swapped


def inverse_placement(plan):
    """A mutant of ``_plan`` that relabels by sigma^-1 instead of sigma."""

    def inverted(n, mode):
        for part, shape, sigma in plan(n, mode):
            if sigma is not None:
                inverse = [0] * len(sigma)
                for t, s in enumerate(sigma, start=1):
                    inverse[s - 1] = t
                sigma = tuple(inverse)
            yield part, shape, sigma

    return inverted


@MODES
def test_summand_oracle_catches_a_same_shape_swap(mode, monkeypatch):
    monkeypatch.setattr(faa_di_bruno, "_relabellings", same_shape_swap(faa_di_bruno._relabellings))
    # the totals cannot see the swap
    for f, g in corpus_pairs():
        assert fdb_report(f, g, 3, mode).equal
    assert summand_mismatches(mode) > 0


@MODES
def test_summand_oracle_catches_the_inverse_placement(mode, monkeypatch):
    monkeypatch.setattr(faa_di_bruno, "_plan", inverse_placement(faa_di_bruno._plan))
    assert summand_mismatches(mode) > 0


# -- the reverse sum is the forward sum transposed, summand by summand -----------


def bridge_mismatches():
    """Partitions, for corpus pairs and n <= 4, whose reverse summand is not
    their forward summand transposed in block 2, label 1's vector block."""
    bad = 0
    for f, g in corpus_pairs():
        for n in range(5):
            fwd, rev = (fdb_report(f, g, n, mode).summands for mode in ("forward", "reverse"))
            assert [s.partition for s in fwd] == [s.partition for s in rev]
            bad += sum(dagger(s.result, 2) != t.result for s, t in zip(fwd, rev))
    return bad


def test_reverse_summands_are_the_forward_summands_transposed():
    assert bridge_mismatches() == 0


def test_transpose_bridge_catches_a_same_shape_swap(monkeypatch):
    # the swap in the reverse reports only
    real = faa_di_bruno._relabellings
    swapped = same_shape_swap(real)
    monkeypatch.setattr(faa_di_bruno, "_relabellings", lambda n, mode, *rest: (
        swapped if mode == "reverse" else real)(n, mode, *rest))
    # the totals cannot see the swap
    for f, g in corpus_pairs():
        for n in range(5):
            assert fdb_report(f, g, n, "reverse").equal
    assert bridge_mismatches() > 0


def test_transpose_bridge_catches_the_inverse_placement(monkeypatch):
    monkeypatch.setattr(faa_di_bruno, "_plan", inverse_placement(faa_di_bruno._plan))
    assert bridge_mismatches() > 0


# One substitution per shape, and none for a shape the degrees make zero: a
# shape with more blocks than deg g, or a block longer than deg f, builds
# nothing.  With deg f = 4 and deg g = 5 that rules out, in forward mode, (5)
# at n = 4 and (6), (5, 1) and (1, 1, 1, 1, 1, 1) at n = 5.
@pytest.mark.parametrize("mode, calls", [
    ("forward", [1, 2, 3, 5, 6, 8]),
    ("reverse", [1, 2, 4, 7, 11, 15]),
])
def test_one_substitution_per_shape_on_its_consecutive_partition(mode, calls, monkeypatch):
    name = "_forward_summand" if mode == "forward" else "_reverse_summand"
    build = getattr(faa_di_bruno, name)
    seen = []

    def counted(g, inner, part):
        seen.append(part)
        return build(g, inner, part)

    monkeypatch.setattr(faa_di_bruno, name, counted)
    f = parse_map("(x1^3*x2 + x2^2, x1*x2 - x1^4)", blocks=(2,))
    g = parse_map("(x1^2*x2^3 + x1, x2^5)", blocks=(2,))
    fixed = 0 if mode == "forward" else 1
    for n, count in enumerate(calls):
        seen.clear()
        assert fdb_report(f, g, n, mode).equal
        assert len(seen) == count
        shapes = {part.block_sizes() for part in seen}
        assert len(shapes) == count
        for part in seen:
            # consecutive labels, blocks largest first (after 1's block in reverse mode)
            assert [label for block in part.blocks for label in block] == list(range(1, n + 2))
            sizes = part.block_sizes()
            assert list(sizes[fixed:]) == sorted(sizes[fixed:], reverse=True)


def degree(h):
    """The total degree of a map, -1 for the zero map, read off its terms."""
    return max((sum(mono) for p in h.coords for mono, _ in p.terms), default=-1)


@MODES
def test_the_shapes_the_degrees_rule_out_are_zero(mode):
    # built directly, every summand with more blocks than deg g or a block
    # longer than deg f is the zero map, as the report says it is
    zero_g = PolyMap(ArityProfile((2,)), (Polynomial.zero(2),) * 2)
    constant_f = parse_map("(3, 1/2)", blocks=(2,))
    pairs = corpus_pairs()
    pairs += [(pairs[2][0], zero_g), (constant_f, pairs[2][1])]
    ruled_out = 0
    for f, g in pairs:
        for n in range(5):
            got = fdb_report(f, g, n, mode).summands
            for s, t in zip(got, direct_summands(f, g, n, mode)):
                sizes = t.partition.block_sizes()
                if len(sizes) > degree(g) or max(sizes) > degree(f):
                    ruled_out += 1
                    assert t.result.is_zero()
                    assert s == t
    assert ruled_out > 0
