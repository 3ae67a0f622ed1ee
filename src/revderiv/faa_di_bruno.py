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

The partitions, their shapes and their relabellings depend on n, the mode
and the domain's block dimensions alone; a report reads them off one pass
over the partitions, its *plan*.  A shape's representative is one of those
partitions: the one whose blocks, in the shape's order, hold consecutive
labels.  The report substitutes into each representative the degrees allow,
building f at the base point and each block's forward factor of f once for
all of them; a representative that cancels to zero joins the shared zero
map.  Every other partition's relabelling is one permutation of the domain's
coordinates, built from the block offsets, and the total adds each
partition's relabelled representative straight into one dict per output
coordinate, with no summand map built.

A report therefore holds its plan, one map per shape representative, the
total and the oracle, never the Bell(n+1) summands: ``report.summands`` has
their count at no cost and builds each summand only when it is read, and
:meth:`FdbReport.json_stream` prints them one at a time, with one table of
monomial texts for every map, since they share a domain and most monomials
recur among them.  Apart from that table, a report's output needs memory for
one summand, however many partitions there are.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain
from operator import itemgetter

from ._records import FrozenRecord
from .combinators import _require_single_block, forward_derivative, reverse_derivative
from .maps import ArityProfile, PolyMap, compose, pair, precompose_blocks, projection, zero_map
from .partitions import SetPartition, enumerate_partitions
from .poly import Coefficient, Monomial, Polynomial, _accumulate, _text
from .towers import forward_tower, reverse_tower

# (combinator, which map, order): e.g. ("forward", "f", 2)
Factor = tuple[str, str, int]
# a partition, its shape, and the coordinate permutation that relabels its
# shape representative's summand into its own, or None where the summand is
# its shape's map itself: the representative's, or a ruled-out shape's zero
PlanEntry = tuple[SetPartition, tuple[int, ...], tuple[int, ...] | None]
# one coordinate's terms as columns: degrees, monomials, coefficients
Columns = tuple[list[int], list[Monomial], list[Coefficient]]


class FdbSummand(FrozenRecord):
    """One partition's summand: the derivatives it multiplies and its map."""

    __slots__ = ("partition", "factors", "result")

    def __init__(self, partition: SetPartition, factors: tuple[Factor, ...],
                 result: PolyMap) -> None:
        self._init(partition, factors, result)


class FdbReport(FrozenRecord):
    """One partition sum: its plan, one map per shape representative (in the
    order the plan meets the shapes), their total and the oracle; ``order`` is
    the n of the order-(n+1) derivative.  The summands are built on demand."""

    __slots__ = ("mode", "order", "f", "g", "plan", "reps", "total", "oracle",
                 "first_difference")

    def __init__(self, mode: str, order: int, f: PolyMap, g: PolyMap,
                 plan: tuple[PlanEntry, ...], reps: tuple[tuple[tuple[int, ...], PolyMap], ...],
                 total: PolyMap, oracle: PolyMap, first_difference: str | None) -> None:
        self._init(mode, order, f, g, plan, reps, total, oracle, first_difference)

    @property
    def equal(self) -> bool:
        return self.first_difference is None

    @property
    def summands(self) -> _Summands:
        """Every partition's summand, in canonical partition order, built when read."""
        return _Summands(self)

    def _stream(self) -> Iterator[tuple[SetPartition, tuple[int, ...], PolyMap]]:
        """Each partition, its block sizes and its summand, one at a time."""
        reps, columns = dict(self.reps), _columns(self.reps)
        for part, shape, picks in self.plan:
            yield part, part.block_sizes(), _summand(reps[shape], columns.get(shape), picks)

    def json_stream(self) -> dict:
        """The dict of :meth:`to_json` with ``"summands"`` a generator: a writer
        that prints one summand at a time holds one summand, not the report's
        output."""
        # one monomial table for the summands, the total and the oracle
        names: dict[Monomial, str] = {}

        def text(f: PolyMap) -> str:
            return "(" + ", ".join(_text(p, names) for p in f.coords) + ")"

        def summands() -> Iterator[dict]:
            for part, sizes, result in self._stream():
                yield {
                    "partition": str(part),
                    "block_sizes": list(sizes),
                    "factors": [list(fac) for fac in _factors(sizes, self.mode)],
                    "map": text(result),
                }

        total = text(self.total)
        return {
            "mode": self.mode,
            "n": self.order,
            "f": str(self.f),
            "g": str(self.g),
            "summands": summands(),
            "total": total,
            # an equal verdict means the oracle is the total, and so is its text
            "oracle": total if self.equal else text(self.oracle),
            "equal": self.equal,
            "first_difference": self.first_difference,
        }

    def to_json(self) -> dict:
        payload = self.json_stream()
        payload["summands"] = list(payload["summands"])
        return payload


class _Summands(Sequence):
    """A report's summands: ``len`` builds none, and an index or an iteration
    builds one summand at a time."""

    __slots__ = ("_report",)

    def __init__(self, report: FdbReport) -> None:
        self._report = report

    def __len__(self) -> int:
        return len(self._report.plan)

    def __getitem__(self, i: int) -> FdbSummand:
        part, shape, picks = self._report.plan[i]
        rep = dict(self._report.reps)[shape]
        result = _summand(rep, _columns(((shape, rep),)).get(shape), picks)
        return FdbSummand(part, _factors(part.block_sizes(), self._report.mode), result)

    def __iter__(self) -> Iterator[FdbSummand]:
        mode = self._report.mode
        for part, sizes, result in self._report._stream():
            yield FdbSummand(part, _factors(sizes, mode), result)


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


def _factors(sizes: tuple[int, ...], mode: str) -> tuple[Factor, ...]:
    """The derivatives a summand multiplies, read off its partition's block sizes."""
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
        sigma = tuple(chain.from_iterable(ordered))
        yield part, tuple(map(len, ordered)), None if sigma == identity else sigma


def _ruled_out(shape: tuple[int, ...], degrees: tuple[int, int]) -> bool:
    """Whether a shape has a block longer than deg f or more blocks than deg g,
    given ``degrees = (deg f, deg g)``: then every summand of it is zero."""
    return max(shape) > degrees[0] or len(shape) > degrees[1]


def _relabellings(n: int, mode: str, dom: ArityProfile,
                  degrees: tuple[int, int]) -> Iterator[PlanEntry]:
    """The plan with each sigma as the permutation of the coordinates of
    ``dom`` that relabels the shape representative's summand into the
    partition's; None for the representative and wherever the degrees rule
    the shape out, whose summands are all the shared zero map.  Label t lives
    in domain block t+1, after the base point's block 1, so a monomial of the
    partition's summand has in block sigma(t)+1 the exponents that the
    representative's has in block t+1.  The permutation lists, for each
    coordinate, the coordinate it reads, for one ``itemgetter``."""
    blocks = [tuple(dom.block_range(j)) for j in range(1, n + 3)]
    for part, shape, sigma in _plan(n, mode):
        picks = None
        if sigma is not None and not _ruled_out(shape, degrees):
            read = [0] * (n + 2)  # the base point's block reads itself
            for t, s in enumerate(sigma, start=1):
                read[s] = t
            picks = tuple(chain.from_iterable(map(blocks.__getitem__, read)))
        yield part, shape, picks


def _columns(reps: tuple[tuple[tuple[int, ...], PolyMap], ...]) -> dict[tuple[int, ...], tuple[Columns, ...]]:
    """Each shape whose representative is not zero, with each coordinate of
    the representative's summand as columns.  A permutation of the
    coordinates keeps every monomial's degree, so the columns are relabelled,
    zipped and sorted in graded order with no Python-level step per term."""
    return {shape: tuple(([sum(m) for m, _ in p.terms], [m for m, _ in p.terms],
                          [c for _, c in p.terms]) for p in rep.coords)
            for shape, rep in reps if not rep.is_zero()}


_TERM = itemgetter(1, 2)  # (degree, monomial, coefficient) -> (monomial, coefficient)


def _summand(rep: PolyMap, columns: tuple[Columns, ...] | None,
             picks: tuple[int, ...] | None) -> PolyMap:
    """A partition's summand: its shape representative's, ``rep``, given also
    as ``columns`` unless it is zero, relabelled by the partition's
    permutation ``picks``."""
    if picks is None or columns is None:
        return rep
    relabel, dim = itemgetter(*picks), rep.domain.total
    # distinct monomials stay distinct: no two sorted triples tie before the coefficient
    return PolyMap(rep.domain, tuple(
        Polynomial(dim, tuple(map(_TERM, sorted(zip(degrees, map(relabel, monos), coeffs),
                                                reverse=True))))
        for degrees, monos, coeffs in columns))


def _representatives(f: PolyMap, g: PolyMap, dom: ArityProfile, plan: tuple[PlanEntry, ...],
                     mode: str, degrees: tuple[int, int]) -> tuple[tuple[tuple[int, ...], PolyMap], ...]:
    """Each shape with its representative's summand, by one real substitution,
    or the shared zero map when the degrees rule the shape out or its summand
    cancels."""
    build = _forward_summand if mode == "forward" else _reverse_summand
    inner = _Inner(f, dom)
    zero = zero_map(dom, g.codomain_dim if mode == "forward" else dom.block_dim(1))
    reps: dict[tuple[int, ...], PolyMap] = {}
    for part, shape, picks in plan:
        # a shape the degrees rule out leaves every partition's permutation None
        if picks is None and shape not in reps:
            rep = zero if _ruled_out(shape, degrees) else build(g, inner, part)
            reps[shape] = zero if rep.is_zero() else rep
    return tuple(reps.items())


def _total(dom: ArityProfile, codomain_dim: int, plan: tuple[PlanEntry, ...],
           columns: dict[tuple[int, ...], tuple[Columns, ...]]) -> PolyMap:
    """The sum of every partition's summand: each partition's representative's
    monomials, relabelled by its permutation, go straight into one accumulator
    per output coordinate, so no summand is sorted or built as a map."""
    live = [(columns[shape], None if picks is None else itemgetter(*picks))
            for part, shape, picks in plan if shape in columns]

    def terms(i: int) -> Iterator[Iterator[tuple[Monomial, Coefficient]]]:
        for coords, relabel in live:
            _, monos, coeffs = coords[i]
            yield zip(monos if relabel is None else map(relabel, monos), coeffs)

    return PolyMap(dom, tuple(_accumulate(dom.total, chain.from_iterable(terms(i)))
                              for i in range(codomain_dim)))


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
    dom = oracle.domain
    degrees = (f.max_degree(), g.max_degree())
    plan = tuple(_relabellings(n, mode, dom, degrees))
    reps = _representatives(f, g, dom, plan, mode, degrees)
    total = _total(dom, oracle.codomain_dim, plan, _columns(reps))
    return FdbReport(mode, n, f, g, plan, reps, total, oracle, _first_difference(total, oracle))
