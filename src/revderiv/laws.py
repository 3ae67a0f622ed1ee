"""Randomized symbolic verification of the derivative-combinator laws.

Every law is an exact equality of polynomial maps, so there are no tolerances
anywhere.  A law is an entry ``(id, draw, check)`` of ``LAWS``: the draw,
``draw(rng, cfg)``, takes random maps from the corpus and returns them, and
the check, ``check(id, cfg, *inputs)``, builds both sides with the public
combinators and compares canonical forms.  So a check runs as well on inputs
that no draw produced.  A draw that several laws share is written once: a
one-block map, a context map with its block, a composable pair, and a map
D-linear in a random block.  Suites group the laws the way the CLI exposes
them.  A fixed seed reproduces every draw.

A reverse-derivative axiom that several laws check has one check, stated for
block j of any domain profile: the ``rd-axioms`` suite checks it at j = 1 of a
one-block map, and the ``context`` suite runs the same check at block 2 of
(C1, A, C2).  Linearity, covector linearity, tuples, the chain rule and mixed
partials are shared this way, and the transpose of the forward derivative
serves rd6 and dagger-partial.

Every check has one exit and one failure constructor: ``_flag`` alone builds a
``LawFailure``, and a check with several comparisons returns ``_first`` over a
lazy generator of them, so nothing after the first failure runs.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Iterable, Sequence

from ._records import Record
from .combinators import (
    _in_context,
    dagger,
    forward_derivative,
    is_dlinear,
    is_klinear_in_block,
    partial_forward,
    partial_reverse,
    reverse_derivative,
)
from .corpus import (
    CorpusConfig,
    random_composable_pair,
    random_context_map,
    random_dlinear_map,
    random_map,
    random_profile,
    random_scalar,
    random_single_block_map,
)
from .faa_di_bruno import fdb_report
from .maps import (
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
    sum_maps,
    zero_map,
)
from .poly import Coefficient, Polynomial


def bell(n: int) -> int:
    """The number of set partitions of {1, ..., n}, by the Bell triangle: each
    row starts with the last entry of the row above, and each further entry
    adds the entry above it.  Independent of :mod:`revderiv.partitions`."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


class LawFailure(Record):
    """One failed case: the law's id, its printed inputs and both sides."""

    __slots__ = ("law", "maps", "lhs", "rhs")

    def __init__(self, law: str, maps: list[str], lhs: str, rhs: str) -> None:
        self._init(law, maps, lhs, rhs)


class LawReport(Record):
    """One suite's run: its failures, the ids of the laws that ran, and
    ``law_failures``, the failures per entry of ``laws``; a law may report
    under a finer id."""

    __slots__ = ("suite", "seed", "cases", "failures", "elapsed_ms", "laws", "law_failures")

    def __init__(self, suite: str, seed: int, cases: int, failures: list[LawFailure],
                 elapsed_ms: int, laws: list[str], law_failures: list[int]) -> None:
        self._init(suite, seed, cases, failures, elapsed_ms, laws, law_failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.cases,
            "failures": [
                {"law": f.law, "maps": f.maps, "lhs": f.lhs, "rhs": f.rhs}
                for f in self.failures
            ],
            "elapsed_ms": self.elapsed_ms,
        }


def _flag(law: str, inputs: Sequence[PolyMap], ok: bool, lhs: object,
          rhs: object) -> LawFailure | None:
    """None if ``ok``; otherwise the failure, with the inputs and both sides printed."""
    if ok:
        return None
    return LawFailure(law, [str(m) for m in inputs], str(lhs), str(rhs))


def _cmp(law: str, inputs: Sequence[PolyMap], lhs: PolyMap | Polynomial,
         rhs: PolyMap | Polynomial) -> LawFailure | None:
    return _flag(law, inputs, lhs == rhs, lhs, rhs)


def _first(checks: Iterable[LawFailure | None]) -> LawFailure | None:
    """The first failure among the checks, running none after it."""
    return next(filter(None, checks), None)


# -- draws shared by several laws ----------------------------------------------
#
# A check that takes a block j reads block 1 when its draw names none: on a
# one-block map, ``partial_reverse(f, 1)`` is ``reverse_derivative(f)``.


def _one_block(rng: random.Random, cfg: CorpusConfig) -> tuple[PolyMap]:
    return (random_single_block_map(rng, cfg),)


def _context(rng: random.Random, cfg: CorpusConfig) -> tuple[PolyMap, int]:
    """A map on (C1, A, C2), with A's block index."""
    return random_context_map(rng, cfg), 2


def _dlinear(rng: random.Random, cfg: CorpusConfig) -> tuple[PolyMap, int]:
    """A map on a random profile that is D-linear in a random block j, with j."""
    prof = random_profile(rng, cfg)
    j = rng.randint(1, prof.block_count)
    return random_dlinear_map(rng, prof, j, rng.randint(1, cfg.max_dim), cfg), j


def _on_profile(rng: random.Random, cfg: CorpusConfig) -> tuple[PolyMap]:
    prof = random_profile(rng, cfg)
    return (random_map(rng, prof, rng.randint(1, cfg.max_dim), cfg.max_degree),)


# -- the seven axioms of the reverse combinator, at block j -------------------


def _keep(nb: int) -> dict[int, int]:
    """The placement that routes blocks 1..nb to themselves."""
    return {t: t for t in range(1, nb + 1)}


def _linearity(law: str, cfg: CorpusConfig, f: PolyMap, g: PolyMap, s: Coefficient,
               t: Coefficient, j: int = 1) -> LawFailure | None:
    """Linearity of the combinator: deriving a linear combination."""
    lhs = partial_reverse(f.scale(s) + g.scale(t), j)
    rhs = partial_reverse(f, j).scale(s) + partial_reverse(g, j).scale(t)
    return _cmp(law, [f, g], lhs, rhs)


def _draw_rd1(rng: random.Random, cfg: CorpusConfig) -> tuple:
    dim, cod = rng.randint(1, cfg.max_dim), rng.randint(1, cfg.max_dim)
    f, g = (random_single_block_map(rng, cfg, dim, cod) for _ in range(2))
    return f, g, random_scalar(rng), random_scalar(rng)


def _covector_linear(law: str, cfg: CorpusConfig, f: PolyMap, j: int = 1) -> LawFailure | None:
    """The derivative is linear in its covector block."""
    nb = f.domain.block_count
    r = partial_reverse(f, j)
    return _flag(law, [f], is_klinear_in_block(r, nb + 1), r, f"k-linear in block {nb + 1}")


def _rd3(law: str, cfg: CorpusConfig, n: int, prof: ArityProfile, j: int) -> LawFailure | None:
    """Identities differentiate to the covector; projections to injections."""
    def checks():
        rid = reverse_derivative(identity(n))
        yield _cmp(law, [identity(n)], rid, projection(ArityProfile((n, n)), 2))
        pj = projection(prof, j)
        r = reverse_derivative(flatten(pj))
        src = ArityProfile((prof.total, prof.block_dim(j)))
        yield _cmp(law, [pj], r, embed_blocks(src, prof, {j: 2}))
    return _first(checks())


def _draw_rd3(rng: random.Random, cfg: CorpusConfig) -> tuple[int, ArityProfile, int]:
    n = rng.randint(1, cfg.max_dim)
    prof = random_profile(rng, cfg)
    return n, prof, rng.randint(1, prof.block_count)


def _tuple_rule(law: str, cfg: CorpusConfig, fs: Sequence[PolyMap],
                j: int = 1) -> LawFailure | None:
    """Deriving a tuple sums the component derivatives at their covector slices."""
    blocks = fs[0].domain.blocks
    nb = len(blocks)
    lhs = partial_reverse(pair(fs), j)
    fine = ArityProfile(blocks + tuple(f.codomain_dim for f in fs))
    rhs_fine = sum_maps(fine, blocks[j - 1], [
        precompose_blocks(partial_reverse(f, j), fine, _keep(nb) | {nb + 1: nb + 1 + idx})
        for idx, f in enumerate(fs)
    ])
    return _cmp(law, fs, lhs, reblock(rhs_fine, lhs.domain))


def _draw_rd4(rng: random.Random, cfg: CorpusConfig) -> tuple[list[PolyMap]]:
    dim = rng.randint(1, cfg.max_dim)
    k = rng.randint(1, 3)
    return ([random_single_block_map(rng, cfg, dim, rng.randint(1, 2)) for _ in range(k)],)


def _chain_rhs(f: PolyMap, g: PolyMap, j: int) -> PolyMap:
    """The chain rule right-hand side in block j: pull the covector back
    through g at the pushed-forward base point, then through f."""
    nb = f.domain.block_count
    dom = f.domain.concat(g.codomain_dim)
    inner = compose(partial_reverse(g, j), _in_context(precompose_blocks(f, dom, _keep(nb)), j))
    return compose(partial_reverse(f, j), _in_context(inner, nb + 1))


def _chain(law: str, cfg: CorpusConfig, f: PolyMap, g: PolyMap, j: int = 1) -> LawFailure | None:
    """The chain rule, with the blocks other than j threaded through both maps."""
    lhs = partial_reverse(compose(g, _in_context(f, j)), j)
    return _cmp(law, [f, g], lhs, _chain_rhs(f, g, j))


def _transpose_of_forward(law: str, cfg: CorpusConfig, f: PolyMap,
                          j: int = 1) -> LawFailure | None:
    """Transposing the forward derivative in block j in its vector block
    gives the reverse derivative in block j."""
    lhs = dagger(partial_forward(f, j), f.domain.block_count + 1)
    return _cmp(law, [f], lhs, partial_reverse(f, j))


def _mixed_partials(law: str, cfg: CorpusConfig, f: PolyMap, j: int = 1) -> LawFailure | None:
    """Mixed-partial symmetry, built entirely from reverse derivatives."""
    blocks = f.domain.blocks
    nb, a = len(blocks), blocks[j - 1]
    l1 = partial_reverse(f, j)                                   # blocks + (m,) -> a
    l2raw = partial_reverse(l1, nb + 1)                          # blocks + (m, a) -> m
    l2 = precompose_blocks(l2raw, ArityProfile(blocks + (a,)), _keep(nb) | {nb + 2: nb + 1})
    l3 = partial_reverse(l2, j)                                  # blocks + (a, m) -> a
    l4raw = partial_reverse(l3, nb + 2)                          # blocks + (a, m, a) -> m
    src = ArityProfile(blocks + (a, a))
    l4 = precompose_blocks(l4raw, src, _keep(nb + 1) | {nb + 3: nb + 2})
    swapped = precompose_blocks(l4, src, _keep(nb) | {nb + 1: nb + 2, nb + 2: nb + 1})
    return _cmp(law, [f], l4, swapped)


def _cd5_chain(law: str, cfg: CorpusConfig, f: PolyMap, g: PolyMap) -> LawFailure | None:
    """The induced forward derivative satisfies the forward chain rule."""
    n = f.domain.total
    lhs = forward_derivative(compose(g, f))
    dom = ArityProfile((n, n))
    base = precompose_blocks(f, dom, {1: 1})
    rhs = compose(forward_derivative(g), pair([base, forward_derivative(f)]))
    return _cmp(law, [f, g], lhs, rhs)


def _schwarz(law: str, cfg: CorpusConfig, f: PolyMap, i: int, j: int) -> LawFailure | None:
    """Order of the underlying coordinate partials never matters."""
    p = f.coords[0]
    return _cmp(law, [f], p.partial(i).partial(j), p.partial(j).partial(i))


def _draw_schwarz(rng: random.Random, cfg: CorpusConfig) -> tuple[PolyMap, int, int]:
    dim = rng.randint(1, cfg.max_dim)
    f = random_single_block_map(rng, cfg, dim, 1)
    return f, rng.randrange(dim), rng.randrange(dim)


def _partial_pairing(law: str, cfg: CorpusConfig, f: PolyMap) -> LawFailure | None:
    """The tuple of the per-block partial reverse derivatives is the total."""
    parts = [partial_reverse(f, j) for j in range(1, f.domain.block_count + 1)]
    total = reblock(reverse_derivative(flatten(f)), f.domain.concat(f.codomain_dim))
    return _cmp(law, [f], pair(parts), total)


# -- the same axioms at block 2 of (C1, A, C2) --------------------------------


def _draw_ctx_rd1(rng: random.Random, cfg: CorpusConfig) -> tuple:
    cod = rng.randint(1, cfg.max_dim)
    f = random_context_map(rng, cfg, cod)
    g = random_map(rng, f.domain, cod, cfg.max_degree)
    return f, g, random_scalar(rng), random_scalar(rng), 2


def _ctx_rd3(law: str, cfg: CorpusConfig, prof: ArityProfile) -> LawFailure | None:
    nb = prof.block_count

    def checks():
        for j in range(1, nb + 1):
            pj = projection(prof, j)
            dom = prof.concat(prof.block_dim(j))
            for i in range(1, nb + 1):
                expected = projection(dom, nb + 1) if i == j else zero_map(dom, prof.block_dim(i))
                yield _cmp(law, [pj], partial_reverse(pj, i), expected)
    return _first(checks())


def _draw_ctx_rd4(rng: random.Random, cfg: CorpusConfig) -> tuple[list[PolyMap], int]:
    f0 = random_context_map(rng, cfg, rng.randint(1, 2))
    k = rng.randint(1, 3)
    return [f0] + [random_map(rng, f0.domain, rng.randint(1, 2), cfg.max_degree)
                   for _ in range(k - 1)], 2


def _draw_ctx_rd5(rng: random.Random, cfg: CorpusConfig) -> tuple[PolyMap, PolyMap, int]:
    f = random_context_map(rng, cfg)
    c1, _, c2 = f.domain.blocks
    e = rng.randint(1, cfg.max_dim)
    return f, random_map(rng, ArityProfile((c1, f.codomain_dim, c2)), e, cfg.max_degree), 2


def _ctx_rd6(law: str, cfg: CorpusConfig, f: PolyMap, j: int) -> LawFailure | None:
    """Transposing the in-context derivative twice returns it."""
    h = partial_reverse(f, j)
    covector = f.domain.block_count + 1
    return _cmp(law, [f], dagger(dagger(h, covector), covector), h)


def _ctx_tuple(law: str, cfg: CorpusConfig, f: PolyMap, j: int) -> LawFailure | None:
    """Deriving (context, f, context) in block j picks out f's covector slice."""
    blocks = f.domain.blocks
    nb = len(blocks)
    lhs = partial_reverse(_in_context(f, j), j)
    fine = ArityProfile(blocks + blocks[:j - 1] + (f.codomain_dim,) + blocks[j:])
    rhs = precompose_blocks(partial_reverse(f, j), fine, _keep(nb) | {nb + 1: nb + j})
    return _cmp(law, [f], lhs, reblock(rhs, lhs.domain))


# -- transpose laws -----------------------------------------------------------


def _dagger_contravariance(law: str, cfg: CorpusConfig, f: PolyMap, g: PolyMap,
                           j: int) -> LawFailure | None:
    lhs = dagger(compose(g, _in_context(f, j)), j)
    rhs = compose(dagger(f, j), _in_context(dagger(g, j), j))
    return _cmp(law, [f, g], lhs, rhs)


def _draw_dagger_contravariance(rng: random.Random, cfg: CorpusConfig) -> tuple:
    c1, c2, a, b, e = (rng.randint(1, cfg.max_dim) for _ in range(5))
    f = random_dlinear_map(rng, ArityProfile((c1, a, c2)), 2, b, cfg)
    g = random_dlinear_map(rng, ArityProfile((c1, b, c2)), 2, e, cfg)
    return f, g, 2


def _dagger_base_independence(law: str, cfg: CorpusConfig, f: PolyMap) -> LawFailure | None:
    """Re-deriving the reverse derivative in its covector block gives the
    forward derivative regardless of the covector base point."""
    n, m = f.domain.total, f.codomain_dim
    lhs = partial_reverse(reverse_derivative(f), 2)              # (n, m, n) -> m
    rhs = precompose_blocks(forward_derivative(f), ArityProfile((n, m, n)), {1: 1, 2: 3})
    return _cmp(law, [f], lhs, rhs)


def _draw_dagger_partial(rng: random.Random, cfg: CorpusConfig) -> tuple[PolyMap, int]:
    (f,) = _on_profile(rng, cfg)
    return f, rng.randint(1, f.domain.block_count)


def _dagger_involution(law: str, cfg: CorpusConfig, f: PolyMap, j: int) -> LawFailure | None:
    return _cmp(law, [f], dagger(dagger(f, j), j), f)


def _dlinear_implies_klinear(law: str, cfg: CorpusConfig, f: PolyMap,
                             j: int) -> LawFailure | None:
    ok = is_dlinear(f, j) and is_klinear_in_block(f, j)
    return _flag(law, [f], ok, f, f"k-linear in block {j}")


# -- higher-order laws --------------------------------------------------------


def _stable_rule(law: str, cfg: CorpusConfig, f: PolyMap, j: int = 1) -> LawFailure | None:
    """Deriving f in block j forward and then in reverse agrees, up to swapping
    the last two argument blocks, with deriving it in block j twice in reverse."""
    blocks = f.domain.blocks
    nb = len(blocks)
    lhs_raw = partial_reverse(partial_forward(f, j), j)          # blocks + (a, m) -> a
    src = ArityProfile(blocks + (f.codomain_dim, blocks[j - 1]))
    lhs = precompose_blocks(lhs_raw, src, _keep(nb) | {nb + 1: nb + 2, nb + 2: nb + 1})
    rhs = partial_reverse(partial_reverse(f, j), j)              # blocks + (m, a) -> a
    return _cmp(law, [f], lhs, rhs)


def _second_reverse(law: str, cfg: CorpusConfig, f: PolyMap) -> LawFailure | None:
    """The order-K reverse tower, for every K from 1 to max_order + 1, is the
    K-th derivative contracted with the covector y and the vectors v2, ...,
    vK: coordinate i on (n, m, n, ..., n) is the sum over k, j2, ..., jK of
    d^K f_k / dx_i dx_j2 ... dx_jK * y_k * v2_j2 * ... * vK_jK.  It is built
    from coordinate partials and one-term products alone, one v block at a
    time, dropping a branch once its partial is zero."""
    n, m = f.domain.total, f.codomain_dim

    def contraction(order: int) -> PolyMap:
        dim = n + m + (order - 1) * n
        # (partial of f_k so far, its factor y_k * v2_j2 * ...)
        branches = [(fk.pad(dim), Polynomial.variable(n + k, dim)) for k, fk in enumerate(f.coords)]
        for start in range(n + m, dim, n):
            branches = [(d, w * Polynomial.variable(start + j, dim))
                        for p, w in branches for j in range(n) for d in (p.partial(j),) if d.terms]
        return PolyMap(ArityProfile((n, m) + (n,) * (order - 1)), tuple(
            Polynomial.sum(dim, (p.partial(i) * w for p, w in branches)) for i in range(n)))

    return _first(_cmp(law, [f], reverse_derivative(f, order), contraction(order))
                  for order in range(1, cfg.max_order + 2))


def _tower_bridge(law: str, cfg: CorpusConfig, f: PolyMap) -> LawFailure | None:
    """Reverse-deriving the order-n forward tower in its base argument gives
    the order-(n+1) reverse tower once the covector is moved into place."""
    a, m = f.domain.total, f.codomain_dim

    def checks():
        for n in range(1, cfg.max_order + 1):
            raw = partial_reverse(forward_derivative(f, n), 1)  # (a,)*(n+1) + (m,) -> a
            src = ArityProfile((a, m) + (a,) * n)
            placement = {1: 1, n + 2: 2}
            placement.update({t: t + 1 for t in range(2, n + 2)})
            lhs = precompose_blocks(raw, src, placement)
            yield _cmp(law, [f], lhs, reverse_derivative(f, n + 1))
    return _first(checks())


def _dagger_bridge(law: str, cfg: CorpusConfig, f: PolyMap) -> LawFailure | None:
    return _first(_cmp(law, [f], dagger(forward_derivative(f, order), 2),
                       reverse_derivative(f, order))
                  for order in range(1, cfg.max_order + 2))


def _tower_symmetry(law: str, cfg: CorpusConfig, f: PolyMap) -> LawFailure | None:
    def checks():
        for order in range(1, min(cfg.max_order, 3) + 1):
            t = forward_derivative(f, order)
            nb = t.domain.block_count
            for p in range(2, nb + 1):
                for q in range(p + 1, nb + 1):
                    placement = _keep(nb)
                    placement[p], placement[q] = q, p
                    yield _cmp(law, [f], precompose_blocks(t, t.domain, placement), t)
    return _first(checks())


def _tower_dlinear(law: str, cfg: CorpusConfig, f: PolyMap) -> LawFailure | None:
    def checks():
        for order in range(1, min(cfg.max_order, 3) + 1):
            t = forward_derivative(f, order)
            for j in range(2, t.domain.block_count + 1):
                yield _flag(law, [f], is_dlinear(t, j), t, f"D-linear in block {j}")
    return _first(checks())


def _tower_klinear_covector(law: str, cfg: CorpusConfig, f: PolyMap) -> LawFailure | None:
    towers = (reverse_derivative(f, order) for order in range(1, cfg.max_order + 2))
    return _first(_flag(law, [f], is_klinear_in_block(t, 2), t, "k-linear in block 2")
                  for t in towers)


def _degree_bound(law: str, cfg: CorpusConfig, f: PolyMap) -> LawFailure | None:
    """The reverse tower of order beyond the total degree vanishes."""
    t = reverse_derivative(f, max(f.max_degree(), 0) + 1)
    return _flag(law, [f], t.is_zero(), t, "0")


# -- partition-sum chain rules -------------------------------------------------


def _fdb(law: str, cfg: CorpusConfig, f: PolyMap, g: PolyMap) -> LawFailure | None:
    """The partition sum in the mode that ends the law's id has Bell(n+1)
    summands and equals the iterated oracle, for every order offset n up to
    the configured order."""
    mode = law.removeprefix("fdb-")

    def checks():
        for n in range(cfg.max_order + 1):
            rep = fdb_report(f, g, n, mode)
            count, want = len(rep.summands), bell(n + 1)
            yield _flag(f"{law}-count", [f, g], count == want, count, want)
            yield _flag(law, [f, g], rep.equal, rep.total, rep.oracle)
    return _first(checks())


def _fdb_reverse_base(law: str, cfg: CorpusConfig, f: PolyMap, g: PolyMap) -> LawFailure | None:
    """Order offset 0 of the reverse partition sum is the chain rule verbatim."""
    rep = fdb_report(f, g, 0, "reverse")
    return _cmp(law, [f, g], rep.total, _chain_rhs(f, g, 1))


# a law's id, the draw of its inputs, and the check of them
SuiteLaw = tuple[str, Callable[..., tuple], Callable[..., LawFailure | None]]

LAWS: dict[str, list[SuiteLaw]] = {
    "rd-axioms": [
        ("rd1", _draw_rd1, _linearity),
        ("rd2", _one_block, _covector_linear),
        ("rd3", _draw_rd3, _rd3),
        ("rd4", _draw_rd4, _tuple_rule),
        ("rd5", random_composable_pair, _chain),
        ("rd6", _one_block, _transpose_of_forward),
        ("rd7", _one_block, _mixed_partials),
        ("partial-pairing", _on_profile, _partial_pairing),
        ("cd5-chain", random_composable_pair, _cd5_chain),
        ("schwarz", _draw_schwarz, _schwarz),
    ],
    "context": [
        ("ctx-rd1", _draw_ctx_rd1, _linearity),
        ("ctx-rd2", _context, _covector_linear),
        ("ctx-rd3", lambda rng, cfg: (random_profile(rng, cfg),), _ctx_rd3),
        ("ctx-rd4", _draw_ctx_rd4, _tuple_rule),
        ("ctx-rd5", _draw_ctx_rd5, _chain),
        ("ctx-rd6", _context, _ctx_rd6),
        ("ctx-rd7", _context, _mixed_partials),
        ("ctx-tuple", _context, _ctx_tuple),
    ],
    "dagger": [
        ("dagger-contravariance", _draw_dagger_contravariance, _dagger_contravariance),
        ("dagger-base-independence", _one_block, _dagger_base_independence),
        ("dagger-partial", _draw_dagger_partial, _transpose_of_forward),
        ("dagger-involution", _dlinear, _dagger_involution),
        ("dlinear-implies-klinear", _dlinear, _dlinear_implies_klinear),
    ],
    "stable": [
        ("stable", _one_block, _stable_rule),
        ("stable-context", _context, _stable_rule),
        ("second-reverse", _one_block, _second_reverse),
        ("tower-bridge", _one_block, _tower_bridge),
        ("dagger-bridge", _one_block, _dagger_bridge),
        ("tower-symmetry", _one_block, _tower_symmetry),
        ("tower-dlinear", _one_block, _tower_dlinear),
        ("tower-klinear-covector", _one_block, _tower_klinear_covector),
        ("degree-bound", _one_block, _degree_bound),
    ],
    "fdb-forward": [
        ("fdb-forward", random_composable_pair, _fdb),
    ],
    "fdb-reverse": [
        ("fdb-reverse", random_composable_pair, _fdb),
        ("fdb-reverse-base", random_composable_pair, _fdb_reverse_base),
    ],
}

SUITE_NAMES = tuple(LAWS)


def run_suite(suite: str, seed: int = 42, cases: int = 100,
              config: CorpusConfig | None = None) -> LawReport:
    """Run every law of a suite ``cases`` times, each case one draw and one
    check of its inputs; exact comparisons only."""
    if suite not in LAWS:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    cfg = config or CorpusConfig()
    start = time.perf_counter()
    failures: list[LawFailure] = []
    law_ids: list[str] = []
    law_failures: list[int] = []
    for law_id, draw, check in LAWS[suite]:
        rng = random.Random(f"{seed}/{law_id}")
        found = [fail for fail in (check(law_id, cfg, *draw(rng, cfg)) for _ in range(cases))
                 if fail is not None]
        failures += found
        law_ids.append(law_id)
        law_failures.append(len(found))
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return LawReport(suite, seed, cases, failures, elapsed_ms, law_ids, law_failures)
