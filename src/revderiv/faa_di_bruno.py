"""Both higher-order chain rules as explicit partition sums.

The order-(n+1) forward derivative of a composite g(f(x)) is a sum over the
set partitions of {1, ..., n+1}: each block S contributes an inner forward
derivative of f of order |S| fed with the vector arguments named by S, and
the partition's k blocks feed an order-k forward derivative of g based at
f(a0).

The reverse counterpart keeps the block containing 1 special: that block
drives an outer reverse derivative of f, the remaining blocks contribute
*forward* derivatives of f, and g appears only through its reverse tower,
based at f(a0) and fed with the covector.  Summed over all partitions with
1 in the first block, this reconstructs the order-(n+1) reverse derivative
of the composite.  Both sums are verified against the plain iterated-tower
oracle computed independently in :mod:`revderiv.towers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .maps import ArityProfile, PolyMap, compose, pair, precompose_blocks, select_blocks, sum_maps
from .partitions import SetPartition, enumerate_partitions
from .poly import Polynomial
from .towers import forward_tower, reverse_tower

# (combinator, which map, order): e.g. ("forward", "f", 2)
Factor = tuple[str, str, int]


@dataclass(frozen=True)
class FdbSummand:
    partition: SetPartition
    factors: tuple[Factor, ...]
    result: PolyMap


@dataclass(frozen=True)
class FdbReport:
    mode: str
    order: int  # the n of the order-(n+1) derivative
    f_text: str
    g_text: str
    summands: tuple[FdbSummand, ...]
    total: PolyMap
    oracle: PolyMap
    first_difference: str | None

    @property
    def equal(self) -> bool:
        return self.first_difference is None

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.order,
            "f": self.f_text,
            "g": self.g_text,
            "summands": [
                {
                    "partition": str(s.partition),
                    "block_sizes": list(s.partition.block_sizes()),
                    "factors": [list(fac) for fac in s.factors],
                    "map": str(s.result),
                }
                for s in self.summands
            ],
            "total": str(self.total),
            "oracle": str(self.oracle),
            "equal": self.equal,
            "first_difference": self.first_difference,
        }


def _check_composable(f: PolyMap, g: PolyMap, n: int) -> None:
    if f.domain.block_count != 1 or g.domain.block_count != 1:
        raise ValueError("the partition formulas expect single-block maps")
    if g.domain.total != f.codomain_dim:
        raise ValueError(
            f"maps do not compose: inner has {f.codomain_dim} outputs, "
            f"outer expects {g.domain.total}"
        )
    if n < 0:
        raise ValueError("derivative order offset n must be nonnegative")


def _forward_factor(f: PolyMap, dom: ArityProfile, block: tuple[int, ...]) -> PolyMap:
    """The order-|block| forward tower of f at domain block 1, fed with the
    vector arguments a_s, which live in domain blocks s+1."""
    placement = {1: 1}
    placement.update({t: s + 1 for t, s in enumerate(block, start=2)})
    return precompose_blocks(forward_tower(f, len(block)), dom, placement)


def _forward_summand(f: PolyMap, g: PolyMap, dom: ArityProfile, part: SetPartition) -> FdbSummand:
    k = len(part.blocks)
    base = precompose_blocks(f, dom, {1: 1})
    inner = []
    factors: list[Factor] = [("forward", "g", k)]
    for block in part.blocks:
        inner.append(_forward_factor(f, dom, block))
        factors.append(("forward", "f", len(block)))
    result = compose(forward_tower(g, k), pair([base] + inner))
    return FdbSummand(part, tuple(factors), result)


def _reverse_summand(f: PolyMap, g: PolyMap, dom: ArityProfile, part: SetPartition) -> FdbSummand:
    k = len(part.blocks)
    first, rest = part.blocks[0], part.blocks[1:]
    if first[0] != 1:
        raise AssertionError("canonical partitions keep 1 in the first block")
    base = precompose_blocks(f, dom, {1: 1})
    # inner forward factors of f for the blocks not containing 1;
    # vector argument a_s lives in domain block s+1 (block 2 is the covector)
    vs = []
    factors: list[Factor] = [("reverse", "f", len(first)), ("reverse", "g", k)]
    for block in rest:
        vs.append(_forward_factor(f, dom, block))
        factors.append(("forward", "f", len(block)))
    w = compose(reverse_tower(g, k), pair([base, select_blocks(dom, [2])] + vs))
    outer_args = [select_blocks(dom, [1]), w] + [select_blocks(dom, [s + 1]) for s in first[1:]]
    result = compose(reverse_tower(f, len(first)), pair(outer_args))
    return FdbSummand(part, tuple(factors), result)


def _first_difference(lhs: PolyMap, rhs: PolyMap) -> str | None:
    if lhs == rhs:
        return None
    if lhs.domain != rhs.domain or lhs.codomain_dim != rhs.codomain_dim:
        return f"shape mismatch: {lhs.domain}->{lhs.codomain_dim} vs {rhs.domain}->{rhs.codomain_dim}"
    i = next(i for i, (p, q) in enumerate(zip(lhs.coords, rhs.coords)) if p != q)
    p, q = lhs.coords[i], rhs.coords[i]
    # the leading monomial of the difference is the highest one that differs
    mono = (p - q).terms[0][0]
    text = str(Polynomial(p.dim, ((mono, Fraction(1)),)))
    cl, cr = p.as_dict().get(mono, 0), q.as_dict().get(mono, 0)
    return f"coordinate {i + 1}, monomial {text}: {cl} vs {cr}"


def fdb_report(f: PolyMap, g: PolyMap, n: int, mode: str) -> FdbReport:
    """Per-partition breakdown of either formula next to the iterated oracle."""
    if mode not in ("forward", "reverse"):
        raise ValueError(f"unknown mode {mode!r}: expected 'forward' or 'reverse'")
    _check_composable(f, g, n)
    a = f.domain.total
    composite = compose(g, f)
    if mode == "forward":
        dom = ArityProfile((a,) * (n + 2))
        build, tower = _forward_summand, forward_tower
    else:
        dom = ArityProfile((a, g.codomain_dim) + (a,) * n)
        build, tower = _reverse_summand, reverse_tower
    summands = tuple(build(f, g, dom, part) for part in enumerate_partitions(n + 1))
    oracle = tower(composite, n + 1)
    total = sum_maps(dom, oracle.codomain_dim, [s.result for s in summands])
    return FdbReport(
        mode=mode,
        order=n,
        f_text=str(f),
        g_text=str(g),
        summands=summands,
        total=total,
        oracle=oracle,
        first_difference=_first_difference(total, oracle),
    )
