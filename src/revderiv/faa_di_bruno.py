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
of the composite.  Both sums are compared with the total derivative of the
composite, which runs the same kernel as the summands' towers but is called
directly: the tower caches keep only the towers of f and g, which the summands
share.  The oracles that share no code with the kernel are the
``second-reverse`` law and ``tests/test_jet_oracle.py``.

A summand is natural in its labels: for a bijection sigma of {1, ..., n+1},
the summand of sigma(pi) is the summand of pi with its vector blocks
relabelled by sigma.  The forward tower is symmetric in its vector blocks and
the reverse tower in its trailing blocks, so neither the order of the blocks
nor the order within one matters.  In reverse mode label 1 names the
covector, so sigma must fix 1.  Only one summand per *shape* therefore needs a
real substitution: in forward mode a shape is the multiset of block sizes, in
reverse mode the size of 1's block together with the multiset of the other
sizes.  Every other summand relabels its shape's by one permutation of the
coordinates, which rewrites exponents only (Constantine & Savits, Trans. AMS
348(2), 1996; Hardy, Electron. J. Combin. 13, 2006).

Only the shapes the degrees allow are substituted.  An order-k tower
vanishes past its map's degree and a summand is linear in each factor, so a
shape with more blocks than deg g, or a block longer than deg f, is zero for
every partition (Comtet, Advanced Combinatorics, 1974, ch. 3); its partitions
share one zero map.  A shape that is zero only by cancellation is built.

The partitions, their shapes and their relabellings sigma depend on n and
the mode alone; a report reads them off one pass over the partitions.  A
shape's representative is one of those partitions: the one whose blocks, in
the shape's order, hold consecutive labels.  The report substitutes into each
representative the degrees allow, building f at the base point and each
block's forward factor of f once for all of them, relabels every other
summand of those shapes by routing its blocks through
:func:`~revderiv.maps.precompose_blocks`, which relabels each monomial by one
permutation, and reads each partition's factors off its blocks once.
A report's JSON prints all its maps with one shared table of monomial texts,
since they share a domain and most monomials recur among them.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._records import FrozenRecord
from .combinators import _require_single_block, forward_derivative, reverse_derivative
from .maps import ArityProfile, PolyMap, compose, pair, precompose_blocks, projection, sum_maps, zero_map
from .partitions import SetPartition, enumerate_partitions
from .poly import Monomial, Polynomial, _text
from .towers import forward_tower, reverse_tower

# (combinator, which map, order): e.g. ("forward", "f", 2)
Factor = tuple[str, str, int]


class FdbSummand(FrozenRecord):
    """One partition's summand: the derivatives it multiplies and its map."""

    __slots__ = ("partition", "factors", "result")

    def __init__(self, partition: SetPartition, factors: tuple[Factor, ...],
                 result: PolyMap) -> None:
        self._init(partition, factors, result)


class FdbReport(FrozenRecord):
    """Every summand of one partition sum, their total and the oracle;
    ``order`` is the n of the order-(n+1) derivative."""

    __slots__ = ("mode", "order", "f_text", "g_text", "summands", "total", "oracle",
                 "first_difference")

    def __init__(self, mode: str, order: int, f_text: str, g_text: str,
                 summands: tuple[FdbSummand, ...], total: PolyMap, oracle: PolyMap,
                 first_difference: str | None) -> None:
        self._init(mode, order, f_text, g_text, summands, total, oracle, first_difference)

    @property
    def equal(self) -> bool:
        return self.first_difference is None

    def to_json(self) -> dict:
        # one monomial table for the summands, the total and the oracle
        names: dict[Monomial, str] = {}

        def text(f: PolyMap) -> str:
            return "(" + ", ".join(_text(p, names) for p in f.coords) + ")"

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
                    "map": text(s.result),
                }
                for s in self.summands
            ],
            "total": text(self.total),
            "oracle": text(self.oracle),
            "equal": self.equal,
            "first_difference": self.first_difference,
        }


class _Inner:
    """The pieces of f that the summands of one report share: f at the base
    point, and, built on first use, each block's forward factor: the
    order-|block| forward tower of f at domain block 1, fed with the vector
    arguments a_s, which live in domain blocks s+1."""

    def __init__(self, f: PolyMap, dom: ArityProfile) -> None:
        self.f, self.dom = f, dom
        self.base = precompose_blocks(f, dom, {1: 1})
        self._by_block: dict[tuple[int, ...], PolyMap] = {}

    def factor(self, block: tuple[int, ...]) -> PolyMap:
        if block not in self._by_block:
            placement = {1: 1} | {t: s + 1 for t, s in enumerate(block, start=2)}
            self._by_block[block] = precompose_blocks(
                forward_tower(self.f, len(block)), self.dom, placement)
        return self._by_block[block]


def _factors(part: SetPartition, mode: str) -> tuple[Factor, ...]:
    """The derivatives a summand multiplies, read off its partition's blocks."""
    sizes = part.block_sizes()
    if mode == "forward":
        head: list[Factor] = [("forward", "g", len(sizes))]
    else:
        head = [("reverse", "f", sizes[0]), ("reverse", "g", len(sizes))]
        sizes = sizes[1:]
    return tuple(head + [("forward", "f", size) for size in sizes])


def _forward_summand(g: PolyMap, inner: _Inner, part: SetPartition) -> PolyMap:
    vs = [inner.factor(block) for block in part.blocks]
    return compose(forward_tower(g, len(part.blocks)), pair([inner.base] + vs))


def _reverse_summand(g: PolyMap, inner: _Inner, part: SetPartition) -> PolyMap:
    first, rest = part.blocks[0], part.blocks[1:]
    if first[0] != 1:
        raise AssertionError("canonical partitions keep 1 in the first block")
    dom = inner.dom
    # inner forward factors of f for the blocks not containing 1;
    # vector argument a_s lives in domain block s+1 (block 2 is the covector)
    vs = [inner.factor(block) for block in rest]
    w = compose(reverse_tower(g, len(part.blocks)), pair([inner.base, projection(dom, 2)] + vs))
    outer_args = [projection(dom, 1), w] + [projection(dom, s + 1) for s in first[1:]]
    return compose(reverse_tower(inner.f, len(first)), pair(outer_args))


def _plan(n: int, mode: str) -> Iterator[tuple[SetPartition, tuple[int, ...], tuple[int, ...] | None]]:
    """What the summands of order offset n depend on apart from the maps: for
    each partition of {1, ..., n+1} in canonical order, the partition, its
    shape, and sigma, or None for its shape's representative.

    A partition's blocks, put in its shape's order (by size, largest first,
    then by minimum; in reverse mode the block of 1 stays first), list the
    labels sigma(1), ..., sigma(n+1) that its shape representative's labels
    1, ..., n+1 map to.  The representative is the one partition of its shape
    whose blocks, in that order, hold consecutive labels.
    """
    fixed = 0 if mode == "forward" else 1
    identity = tuple(range(1, n + 2))
    for part in enumerate_partitions(n + 1):
        # blocks come ordered by minimum, and a stable sort keeps that order
        # among blocks of one size
        ordered = part.blocks[:fixed] + tuple(sorted(part.blocks[fixed:], key=len, reverse=True))
        sigma = tuple(label for block in ordered for label in block)
        yield part, tuple(len(block) for block in ordered), None if sigma == identity else sigma


def _summands(f: PolyMap, g: PolyMap, dom: ArityProfile, n: int,
              mode: str) -> tuple[FdbSummand, ...]:
    """Every partition's summand, with one real substitution per shape the
    degrees allow, made on the shape's representative.  Every other summand is
    its shape representative's relabelled by sigma: label t lives in domain
    block t+1, after the base point's block 1, so the relabelled summand takes
    its argument block t+1 from domain block sigma(t)+1."""
    build = _forward_summand if mode == "forward" else _reverse_summand
    inner = _Inner(f, dom)
    plan = list(_plan(n, mode))
    # more blocks than deg g, or a block longer than deg f: one shared zero map
    zero = zero_map(dom, g.codomain_dim if mode == "forward" else dom.block_dim(1))
    deg_f, deg_g = f.max_degree(), g.max_degree()
    reps = {shape: zero if len(shape) > deg_g or max(shape) > deg_f else build(g, inner, part)
            for part, shape, sigma in plan if sigma is None}
    out = []
    for part, shape, sigma in plan:
        result = reps[shape]
        if sigma is not None and result is not zero:
            placement = {1: 1} | {t + 1: s + 1 for t, s in enumerate(sigma, start=1)}
            result = precompose_blocks(result, dom, placement)
        out.append(FdbSummand(part, _factors(part, mode), result))
    return tuple(out)


def _first_difference(lhs: PolyMap, rhs: PolyMap) -> str | None:
    if lhs == rhs:
        return None
    if lhs.domain != rhs.domain or lhs.codomain_dim != rhs.codomain_dim:
        return f"shape mismatch: {lhs.domain}->{lhs.codomain_dim} vs {rhs.domain}->{rhs.codomain_dim}"
    i = next(i for i, (p, q) in enumerate(zip(lhs.coords, rhs.coords)) if p != q)
    p, q = lhs.coords[i], rhs.coords[i]
    # the leading monomial of the difference is the highest one that differs
    mono = (p - q).terms[0][0]
    text = str(Polynomial(p.dim, ((mono, 1),)))
    # the canonical printer, which prints past the int/str digit limit
    cl, cr = (str(Polynomial.constant(p.dim, side.as_dict().get(mono, 0))) for side in (p, q))
    return f"coordinate {i + 1}, monomial {text}: {cl} vs {cr}"


def fdb_report(f: PolyMap, g: PolyMap, n: int, mode: str) -> FdbReport:
    """Per-partition breakdown of either formula next to the iterated oracle."""
    if mode not in ("forward", "reverse"):
        raise ValueError(f"unknown mode {mode!r}: expected 'forward' or 'reverse'")
    if n < 0:
        raise ValueError("derivative order offset n must be nonnegative")
    # compose refuses maps that do not compose and the oracle a multi-block f.
    # The oracle goes first, as its domain is the summands'.  A multi-block g
    # is refused here, as the tower of g would refuse it: the summands build no
    # tower of g when the degrees rule out every shape.
    oracle = (forward_derivative if mode == "forward" else reverse_derivative)(compose(g, f), n + 1)
    _require_single_block(g, f"the total {mode} derivative")
    summands = _summands(f, g, oracle.domain, n, mode)
    total = sum_maps(oracle.domain, oracle.codomain_dim, [s.result for s in summands])
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
