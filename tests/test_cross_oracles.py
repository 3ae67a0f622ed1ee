"""Cross-checks through independent derivative routes.

Oracles that share no code with the derivative kernel or the towers; they
use only :class:`Polynomial` substitution and expansion:

* a Taylor-shift oracle: the derivative in coordinate i is the coefficient
  of t in p(..., x_i + t, ...);
* an entry-wise second-partials construction of the twice-derived maps,
  assembled directly from raw polynomial partials and fresh variables
  rather than through the combinators;
* a polarization oracle for the order-k towers, from the t^k Taylor
  coefficients of f(a + t*s) over sums s of vector arguments (Griewank,
  Utke & Walther, Math. Comp. 69(231), 2000).
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from revderiv.combinators import (
    forward_derivative,
    partial_forward,
    partial_reverse,
    reverse_derivative,
)
from revderiv.corpus import (
    CorpusConfig,
    random_map,
    random_polynomial,
    random_profile,
    random_single_block_map,
)
from revderiv.maps import ArityProfile, PolyMap, precompose_blocks
from revderiv.poly import Polynomial
from revderiv.towers import forward_tower, reverse_tower

CFG = CorpusConfig()


def shift_derivative(p: Polynomial, i: int) -> Polynomial:
    """Coefficient of t in p with x_i replaced by x_i + t."""
    dim = p.dim
    args = []
    for k in range(dim):
        arg = Polynomial.variable(k, dim + 1)
        if k == i:
            arg = arg + Polynomial.variable(dim, dim + 1)
        args.append(arg)
    shifted = p.substitute(args)
    coeffs = {}
    for mono, c in shifted.terms:
        if mono[dim] == 1:
            coeffs[mono[:dim]] = c
    return Polynomial.from_dict(dim, coeffs)


def test_power_rule_matches_taylor_shift():
    rng = random.Random(61)
    for _ in range(60):
        dim = rng.randint(1, 3)
        p = random_polynomial(rng, dim, CFG.max_degree)
        for i in range(dim):
            assert p.partial(i) == shift_derivative(p, i)


def test_reverse_derivative_entrywise_via_shift_oracle():
    rng = random.Random(62)
    for _ in range(25):
        f = random_single_block_map(rng, CFG)
        n, m = f.domain.total, f.codomain_dim
        dim = n + m
        coords = []
        for i in range(n):
            acc = Polynomial.zero(dim)
            for j, fj in enumerate(f.coords):
                acc = acc + shift_derivative(fj, i).pad(dim) * Polynomial.variable(n + j, dim)
            coords.append(acc)
        assert reverse_derivative(f) == PolyMap(ArityProfile((n, m)), tuple(coords))


def second_partials_reverse_of_reverse(f: PolyMap) -> PolyMap:
    """Coordinate l of the twice-reverse-derived map, from raw second
    partials: sum_i sum_j d2f_j/dx_i dx_l * y_j * z_i over (x, y, z)."""
    n, m = f.domain.total, f.codomain_dim
    dim = n + m + n
    coords = []
    for l in range(n):
        acc = Polynomial.zero(dim)
        for i in range(n):
            for j, fj in enumerate(f.coords):
                second = fj.partial(i).partial(l).pad(dim)
                acc = acc + second * Polynomial.variable(n + j, dim) \
                    * Polynomial.variable(n + m + i, dim)
        coords.append(acc)
    return PolyMap(ArityProfile((n, m, n)), tuple(coords))


def second_partials_reverse_of_forward(f: PolyMap) -> PolyMap:
    """Same double sum arranged for the forward-then-reverse order, over
    (x, z, y)."""
    n, m = f.domain.total, f.codomain_dim
    dim = n + n + m
    coords = []
    for l in range(n):
        acc = Polynomial.zero(dim)
        for i in range(n):
            for j, fj in enumerate(f.coords):
                second = fj.partial(i).partial(l).pad(dim)
                acc = acc + second * Polynomial.variable(n + i, dim) \
                    * Polynomial.variable(n + n + j, dim)
        coords.append(acc)
    return PolyMap(ArityProfile((n, n, m)), tuple(coords))


def test_twice_derived_maps_match_entrywise_oracles():
    rng = random.Random(63)
    for _ in range(25):
        f = random_single_block_map(rng, CFG)
        assert partial_reverse(reverse_derivative(f), 1) == second_partials_reverse_of_reverse(f)
        assert partial_reverse(forward_derivative(f), 1) == second_partials_reverse_of_forward(f)


def test_stable_rule_via_entrywise_oracles():
    # the two double sums agree once the last two argument blocks are swapped
    rng = random.Random(64)
    for _ in range(25):
        f = random_single_block_map(rng, CFG)
        n, m = f.domain.total, f.codomain_dim
        lhs = second_partials_reverse_of_forward(f)
        src = ArityProfile((n, m, n))
        assert precompose_blocks(lhs, src, {1: 1, 2: 3, 3: 2}) == \
            second_partials_reverse_of_reverse(f)


def test_evaluation_cross_check_of_reverse():
    # pointwise: R[f](x, y) agrees with the transpose-Jacobian product
    # assembled from shift-oracle partials evaluated at the point
    rng = random.Random(65)
    for _ in range(20):
        f = random_single_block_map(rng, CFG)
        n, m = f.domain.total, f.codomain_dim
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        y = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
        got = reverse_derivative(f).evaluate(x + y)
        expected = tuple(
            sum((shift_derivative(fj, i).evaluate(x) * y[j] for j, fj in enumerate(f.coords)),
                Fraction(0))
            for i in range(n)
        )
        assert got == expected


# -- first-order partials in any block -------------------------------------------


def shift_partials(f: PolyMap, j: int, reverse: bool) -> PolyMap:
    """partial_reverse / partial_forward of f in block j, entry-wise from
    shift-oracle partials: output i (reverse) is sum_k df_k/dx_i * y_k over
    the covector y; output k (forward) is sum_i df_k/dx_i * v_i over the
    vector v of block j's variables i."""
    blocks = f.domain.blocks
    n = f.domain.total
    start = sum(blocks[: j - 1])
    rng = range(start, start + blocks[j - 1])
    width = f.codomain_dim if reverse else len(rng)
    dim = n + width
    entries = {(k, i): shift_derivative(fk, i).pad(dim)
               for k, fk in enumerate(f.coords) for i in rng}
    coords = []
    for out in (rng if reverse else range(f.codomain_dim)):
        acc = Polynomial.zero(dim)
        if reverse:
            for k in range(f.codomain_dim):
                acc = acc + entries[k, out] * Polynomial.variable(n + k, dim)
        else:
            for t, i in enumerate(rng):
                acc = acc + entries[out, i] * Polynomial.variable(n + t, dim)
        coords.append(acc)
    return PolyMap(ArityProfile(blocks + (width,)), tuple(coords))


@pytest.mark.parametrize("blocks,codomain", [
    ((1, 2), 2), ((2, 1, 3), 1), ((2, 0, 1), 2), ((0, 3), 2), ((1, 2), 0), ((3,), 2),
])
def test_partials_in_every_block_match_shift_oracle(blocks, codomain):
    rng = random.Random(f"partials/{blocks}/{codomain}")
    profile = ArityProfile(blocks)
    for _ in range(8):
        f = random_map(rng, profile, codomain, CFG.max_degree)
        for j in range(1, len(blocks) + 1):
            assert partial_reverse(f, j) == shift_partials(f, j, reverse=True)
            assert partial_forward(f, j) == shift_partials(f, j, reverse=False)


# -- higher orders by polarization ----------------------------------------------


def polarized_forward_tower(f: PolyMap, k: int) -> PolyMap:
    """The order-k forward tower over (a, v1, ..., vk), as the symmetric
    k-linear form B(v1..vk) = sum over nonempty S of (-1)^(k-|S|) times the
    t^k coefficient of f(a + t * sum_{i in S} v_i).

    Each summand is one substitution into a ring with a trailing variable t.
    """
    n = f.domain.total
    dim = n * (k + 1)
    t = Polynomial.variable(dim, dim + 1)
    acc = [dict() for _ in f.coords]
    for size in range(1, k + 1):
        sign = (-1) ** (k - size)
        for subset in combinations(range(1, k + 1), size):
            args = []
            for i in range(n):
                s = Polynomial.zero(dim + 1)
                for b in subset:
                    s = s + Polynomial.variable(b * n + i, dim + 1)
                args.append(Polynomial.variable(i, dim + 1) + t * s)
            for out, p in zip(acc, f.coords):
                for mono, c in p.substitute(args, dim=dim + 1).terms:
                    if mono[dim] == k:
                        out[mono[:dim]] = out.get(mono[:dim], 0) + sign * c
    return PolyMap(ArityProfile((n,) * (k + 1)),
                   tuple(Polynomial.from_dict(dim, out) for out in acc))


def polarized_reverse_tower(f: PolyMap, k: int) -> PolyMap:
    """The order-k reverse tower over (a, y, w2, ..., wk): coordinate l is
    sum_j y_j * B_j(e_l, w2, ..., wk), read off the polarized forward tower
    as the coefficients of the first vector block's variables."""
    n, m = f.domain.total, f.codomain_dim
    forward = polarized_forward_tower(f, k)
    acc = [dict() for _ in range(n)]
    for j, p in enumerate(forward.coords):
        covector = tuple(1 if q == j else 0 for q in range(m))
        for mono, c in p.terms:
            for l in range(n):
                if mono[n + l]:  # B is linear in v1, so this exponent is 1
                    key = mono[:n] + covector + mono[2 * n:]
                    acc[l][key] = acc[l].get(key, 0) + c
    return PolyMap(ArityProfile((n, m) + (n,) * (k - 1)),
                   tuple(Polynomial.from_dict(n + m + n * (k - 1), out) for out in acc))


def test_polarization_oracle_on_a_cube():
    # B(v1, v2, v3) of x^3 is 6*v1*v2*v3; the reverse tower pairs it with y
    f = PolyMap(ArityProfile((1,)), (Polynomial.variable(0, 1) ** 3,))
    assert str(polarized_forward_tower(f, 3)) == "(6*x2*x3*x4)"
    assert str(polarized_reverse_tower(f, 2)) == "(6*x1*x2*x3)"


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_towers_match_polarization_oracle(order):
    rng = random.Random(66 + order)
    for _ in range(12):
        f = random_single_block_map(rng, CFG)
        assert forward_tower(f, order) == polarized_forward_tower(f, order)
        assert reverse_tower(f, order) == polarized_reverse_tower(f, order)


# -- partial derivatives of every order in every block ---------------------------


def contracted_partials(f: PolyMap, j: int, order: int, reverse: bool) -> PolyMap:
    """partial_reverse / partial_forward of f in block j at ``order``, as the
    order-K derivative in block j's variables contracted with the fresh
    blocks, from coordinate partials and one-term products alone.

    Reverse, over (f's blocks, y, v2, ..., vK): coordinate i of block j is the
    sum over k, j2, ..., jK of d^K f_k / dx_i dx_j2 ... dx_jK * y_k * v2_j2 *
    ... * vK_jK.  Forward, over (f's blocks, v1, ..., vK): coordinate k is
    the sum over j1, ..., jK of d^K f_k / dx_j1 ... dx_jK * v1_j1 * ... *
    vK_jK.  Order 0 is f.
    """
    if order == 0:
        return f
    blocks, m = f.domain.blocks, f.codomain_dim
    n, start, d = sum(blocks), sum(blocks[: j - 1]), blocks[j - 1]
    fresh = (m,) + (d,) * (order - 1) if reverse else (d,) * order
    dim = n + sum(fresh)

    def contract(branches, first):
        # branches: (a partial of f_k, its factor); one vector block at a time
        for b in range(order - (1 if reverse else 0)):
            at = first + b * d
            branches = [(q, w * Polynomial.variable(at + t, dim))
                        for p, w in branches for t in range(d)
                        for q in (p.partial(start + t),) if q.terms]
        return branches

    if reverse:
        branches = contract([(fk.pad(dim), Polynomial.variable(n + k, dim))
                             for k, fk in enumerate(f.coords)], n + m)
        coords = [Polynomial.sum(dim, (p.partial(start + i) * w for p, w in branches))
                  for i in range(d)]
    else:
        coords = [Polynomial.sum(dim, (p * w for p, w in
                                       contract([(fk.pad(dim), Polynomial.constant(dim, 1))], n)))
                  for fk in f.coords]
    return PolyMap(ArityProfile(blocks + fresh), tuple(coords))


def test_contracted_partials_on_a_two_block_map():
    # f = x1^2*x2^3 + x1*x3 on blocks (1, 2): block 2 is (x2, x3)
    f = PolyMap(ArityProfile((1, 2)), (
        Polynomial.variable(0, 3) ** 2 * Polynomial.variable(1, 3) ** 3
        + Polynomial.variable(0, 3) * Polynomial.variable(2, 3),))
    assert str(contracted_partials(f, 2, 2, reverse=True)) == "(6*x1^2*x2*x4*x5, 0)"
    assert str(contracted_partials(f, 2, 2, reverse=False)) == "(6*x1^2*x2*x4*x6)"
    assert str(contracted_partials(f, 1, 3, reverse=True)) == "(0)"


def test_partials_of_every_order_match_the_contraction():
    # degree 5 reaches order 4; every block j of each map, orders 0..4, both modes
    cfg = CorpusConfig(max_degree=5)
    rng = random.Random("partials of every order")
    checks = nonzero = 0
    for _ in range(30):
        profile = random_profile(rng, cfg)
        f = random_map(rng, profile, rng.randint(1, cfg.max_dim), cfg.max_degree)
        for j in range(1, profile.block_count + 1):
            for order in range(5):
                for reverse, derivative in ((True, partial_reverse), (False, partial_forward)):
                    want = contracted_partials(f, j, order, reverse)
                    assert derivative(f, j, order) == want, (str(f), j, order, reverse)
                    checks += 1
                    nonzero += not want.is_zero()
    assert (checks, nonzero) == (590, 376)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_partials_in_the_only_block_are_the_towers(order):
    rng = random.Random(f"towers/{order}")
    for _ in range(12):
        f = random_single_block_map(rng, CorpusConfig(max_degree=5))
        for partial, tower, total in ((partial_reverse, reverse_tower, reverse_derivative),
                                      (partial_forward, forward_tower, forward_derivative)):
            assert partial(f, 1, order) == tower(f, order) == total(f, order)
