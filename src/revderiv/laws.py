"""Randomized symbolic verification of the derivative-combinator laws.

Every law is an exact equality of polynomial maps, so a "case" draws random
maps from the corpus, builds both sides with the public combinators, and
compares canonical forms; there are no tolerances anywhere.  Suites group
the laws the way the CLI exposes them.  A fixed seed reproduces every draw.

A reverse-derivative axiom that several laws check has one body, stated for
block j of any domain profile: the ``rd-axioms`` suite checks it at j = 1 of a
one-block map, and the ``context`` suite checks the same body at block 2 of
(C1, A, C2).  Linearity, covector linearity, tuples, the chain rule and mixed
partials are shared this way, and the transpose of the forward derivative
serves rd6 and dagger-partial.

Every law has one exit and one failure constructor: ``_flag`` alone builds a
``LawFailure``, and a law with several checks returns ``_first`` over a lazy
generator of them, so nothing after the first failure runs or draws from the RNG.
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


# -- the seven axioms of the reverse combinator, at block j -------------------
#
# On a one-block map, ``partial_reverse(f, 1)`` is ``reverse_derivative(f)``.


def _keep(nb: int) -> dict[int, int]:
    """The placement that routes blocks 1..nb to themselves."""
    return {t: t for t in range(1, nb + 1)}


def _linearity(law: str, f: PolyMap, g: PolyMap, s: Coefficient, t: Coefficient,
               j: int) -> LawFailure | None:
    """Linearity of the combinator: deriving a linear combination."""
    lhs = partial_reverse(f.scale(s) + g.scale(t), j)
    rhs = partial_reverse(f, j).scale(s) + partial_reverse(g, j).scale(t)
    return _cmp(law, [f, g], lhs, rhs)


def _covector_linear(law: str, f: PolyMap, j: int) -> LawFailure | None:
    """The derivative is linear in its covector block."""
    nb = f.domain.block_count
    r = partial_reverse(f, j)
    return _flag(law, [f], is_klinear_in_block(r, nb + 1), r, f"k-linear in block {nb + 1}")


def _tuple_rule(law: str, fs: Sequence[PolyMap], j: int) -> LawFailure | None:
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


def _chain_rhs(f: PolyMap, g: PolyMap, j: int) -> PolyMap:
    """The chain rule right-hand side in block j: pull the covector back
    through g at the pushed-forward base point, then through f."""
    nb = f.domain.block_count
    dom = f.domain.concat(g.codomain_dim)
    inner = compose(partial_reverse(g, j), _in_context(precompose_blocks(f, dom, _keep(nb)), j))
    return compose(partial_reverse(f, j), _in_context(inner, nb + 1))


def _chain(law: str, f: PolyMap, g: PolyMap, j: int) -> LawFailure | None:
    """The chain rule, with the blocks other than j threaded through both maps."""
    lhs = partial_reverse(compose(g, _in_context(f, j)), j)
    return _cmp(law, [f, g], lhs, _chain_rhs(f, g, j))


def _transpose_of_forward(law: str, f: PolyMap, j: int) -> LawFailure | None:
    """Transposing the forward derivative in block j in its vector block
    gives the reverse derivative in block j."""
    lhs = dagger(partial_forward(f, j), f.domain.block_count + 1)
    return _cmp(law, [f], lhs, partial_reverse(f, j))


def _mixed_partials(law: str, f: PolyMap, j: int) -> LawFailure | None:
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


def _stable_rule(law: str, f: PolyMap, j: int) -> LawFailure | None:
    """Deriving f in block j forward and then in reverse agrees, up to swapping
    the last two argument blocks, with deriving it in block j twice in reverse."""
    blocks = f.domain.blocks
    nb = len(blocks)
    lhs_raw = partial_reverse(partial_forward(f, j), j)          # blocks + (a, m) -> a
    src = ArityProfile(blocks + (f.codomain_dim, blocks[j - 1]))
    lhs = precompose_blocks(lhs_raw, src, _keep(nb) | {nb + 1: nb + 2, nb + 2: nb + 1})
    rhs = partial_reverse(partial_reverse(f, j), j)              # blocks + (m, a) -> a
    return _cmp(law, [f], lhs, rhs)


def law_rd1(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    dim = rng.randint(1, cfg.max_dim)
    cod = rng.randint(1, cfg.max_dim)
    f = random_single_block_map(rng, cfg, dim, cod)
    g = random_single_block_map(rng, cfg, dim, cod)
    s, t = random_scalar(rng), random_scalar(rng)
    return _linearity("rd1", f, g, s, t, 1)


def law_rd2(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    return _covector_linear("rd2", random_single_block_map(rng, cfg), 1)


def law_rd3(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    """Identities differentiate to the covector; projections to injections."""
    def checks():
        n = rng.randint(1, cfg.max_dim)
        rid = reverse_derivative(identity(n))
        yield _cmp("rd3", [identity(n)], rid, projection(ArityProfile((n, n)), 2))
        prof = random_profile(rng, cfg)
        j = rng.randint(1, prof.block_count)
        pj = projection(prof, j)
        r = reverse_derivative(flatten(pj))
        src = ArityProfile((prof.total, prof.block_dim(j)))
        yield _cmp("rd3", [pj], r, embed_blocks(src, prof, {j: 2}))
    return _first(checks())


def law_rd4(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    dim = rng.randint(1, cfg.max_dim)
    k = rng.randint(1, 3)
    fs = [random_single_block_map(rng, cfg, dim, rng.randint(1, 2)) for _ in range(k)]
    return _tuple_rule("rd4", fs, 1)


def law_rd5(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    f, g = random_composable_pair(rng, cfg)
    return _chain("rd5", f, g, 1)


def law_rd6(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    return _transpose_of_forward("rd6", random_single_block_map(rng, cfg), 1)


def law_rd7(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    return _mixed_partials("rd7", random_single_block_map(rng, cfg), 1)


def law_cd5_chain(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    """The induced forward derivative satisfies the forward chain rule."""
    f, g = random_composable_pair(rng, cfg)
    n = f.domain.total
    lhs = forward_derivative(compose(g, f))
    dom = ArityProfile((n, n))
    base = precompose_blocks(f, dom, {1: 1})
    rhs = compose(forward_derivative(g), pair([base, forward_derivative(f)]))
    return _cmp("cd5-chain", [f, g], lhs, rhs)


def law_schwarz(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    """Order of the underlying coordinate partials never matters."""
    dim = rng.randint(1, cfg.max_dim)
    f = random_single_block_map(rng, cfg, dim, 1)
    p = f.coords[0]
    i, j = rng.randrange(dim), rng.randrange(dim)
    return _cmp("schwarz", [f], p.partial(i).partial(j), p.partial(j).partial(i))


def law_partial_pairing(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    """The tuple of the per-block partial reverse derivatives is the total."""
    prof = random_profile(rng, cfg)
    f = random_map(rng, prof, rng.randint(1, cfg.max_dim), cfg.max_degree)
    parts = [partial_reverse(f, j) for j in range(1, prof.block_count + 1)]
    total = reblock(reverse_derivative(flatten(f)), prof.concat(f.codomain_dim))
    return _cmp("partial-pairing", [f], pair(parts), total)


# -- the same axioms at block 2 of (C1, A, C2) --------------------------------


def law_ctx_rd1(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    cod = rng.randint(1, cfg.max_dim)
    f = random_context_map(rng, cfg, cod)
    g = random_map(rng, f.domain, cod, cfg.max_degree)
    s, t = random_scalar(rng), random_scalar(rng)
    return _linearity("ctx-rd1", f, g, s, t, 2)


def law_ctx_rd2(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    return _covector_linear("ctx-rd2", random_context_map(rng, cfg), 2)


def law_ctx_rd3(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    prof = random_profile(rng, cfg)
    nb = prof.block_count

    def checks():
        for j in range(1, nb + 1):
            pj = projection(prof, j)
            dom = prof.concat(prof.block_dim(j))
            for i in range(1, nb + 1):
                expected = projection(dom, nb + 1) if i == j else zero_map(dom, prof.block_dim(i))
                yield _cmp("ctx-rd3", [pj], partial_reverse(pj, i), expected)
    return _first(checks())


def law_ctx_rd4(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    f0 = random_context_map(rng, cfg, rng.randint(1, 2))
    k = rng.randint(1, 3)
    fs = [f0] + [
        random_map(rng, f0.domain, rng.randint(1, 2), cfg.max_degree)
        for _ in range(k - 1)
    ]
    return _tuple_rule("ctx-rd4", fs, 2)


def law_ctx_rd5(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    f = random_context_map(rng, cfg)
    c1, _, c2 = f.domain.blocks
    e = rng.randint(1, cfg.max_dim)
    g = random_map(rng, ArityProfile((c1, f.codomain_dim, c2)), e, cfg.max_degree)
    return _chain("ctx-rd5", f, g, 2)


def law_ctx_rd6(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    """Transposing the in-context derivative twice returns it."""
    f = random_context_map(rng, cfg)
    h = partial_reverse(f, 2)
    back = dagger(dagger(h, 4), 4)
    return _cmp("ctx-rd6", [f], back, h)


def law_ctx_rd7(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    return _mixed_partials("ctx-rd7", random_context_map(rng, cfg), 2)


def law_ctx_tuple(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    """Deriving (context, f, context) picks out f's covector slice."""
    f = random_context_map(rng, cfg)
    c1, a, c2 = f.domain.blocks
    m = f.codomain_dim
    lhs = partial_reverse(_in_context(f, 2), 2)
    fine = ArityProfile((c1, a, c2, c1, m, c2))
    rhs = reblock(
        precompose_blocks(partial_reverse(f, 2), fine, {1: 1, 2: 2, 3: 3, 4: 5}),
        lhs.domain,
    )
    return _cmp("ctx-tuple", [f], lhs, rhs)


# -- transpose laws -----------------------------------------------------------


def law_dagger_contravariance(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    c1 = rng.randint(1, cfg.max_dim)
    c2 = rng.randint(1, cfg.max_dim)
    a = rng.randint(1, cfg.max_dim)
    b = rng.randint(1, cfg.max_dim)
    e = rng.randint(1, cfg.max_dim)
    f = random_dlinear_map(rng, ArityProfile((c1, a, c2)), 2, b, cfg)
    g = random_dlinear_map(rng, ArityProfile((c1, b, c2)), 2, e, cfg)
    lhs = dagger(compose(g, _in_context(f, 2)), 2)
    rhs = compose(dagger(f, 2), _in_context(dagger(g, 2), 2))
    return _cmp("dagger-contravariance", [f, g], lhs, rhs)


def law_dagger_base_independence(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    """Re-deriving the reverse derivative in its covector block gives the
    forward derivative regardless of the covector base point."""
    f = random_single_block_map(rng, cfg)
    n, m = f.domain.total, f.codomain_dim
    lhs = partial_reverse(reverse_derivative(f), 2)              # (n, m, n) -> m
    rhs = precompose_blocks(forward_derivative(f), ArityProfile((n, m, n)), {1: 1, 2: 3})
    return _cmp("dagger-base-independence", [f], lhs, rhs)


def law_dagger_partial(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    prof = random_profile(rng, cfg)
    f = random_map(rng, prof, rng.randint(1, cfg.max_dim), cfg.max_degree)
    return _transpose_of_forward("dagger-partial", f, rng.randint(1, prof.block_count))


def law_dagger_involution(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    prof = random_profile(rng, cfg)
    j = rng.randint(1, prof.block_count)
    f = random_dlinear_map(rng, prof, j, rng.randint(1, cfg.max_dim), cfg)
    return _cmp("dagger-involution", [f], dagger(dagger(f, j), j), f)


def law_dlinear_implies_klinear(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    prof = random_profile(rng, cfg)
    j = rng.randint(1, prof.block_count)
    f = random_dlinear_map(rng, prof, j, rng.randint(1, cfg.max_dim), cfg)
    ok = is_dlinear(f, j) and is_klinear_in_block(f, j)
    return _flag("dlinear-implies-klinear", [f], ok, f, f"k-linear in block {j}")


# -- higher-order laws --------------------------------------------------------


def law_stable(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    return _stable_rule("stable", random_single_block_map(rng, cfg), 1)


def law_stable_context(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    return _stable_rule("stable-context", random_context_map(rng, cfg), 2)


def law_second_reverse(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    """The order-K reverse tower, for every K from 1 to max_order + 1, is the
    K-th derivative contracted with the covector y and the vectors v2, ...,
    vK: coordinate i on (n, m, n, ..., n) is the sum over k, j2, ..., jK of
    d^K f_k / dx_i dx_j2 ... dx_jK * y_k * v2_j2 * ... * vK_jK.  It is built
    from coordinate partials and one-term products alone, one v block at a
    time, dropping a branch once its partial is zero."""
    f = random_single_block_map(rng, cfg)
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

    return _first(_cmp("second-reverse", [f], reverse_derivative(f, order), contraction(order))
                  for order in range(1, cfg.max_order + 2))


def law_tower_bridge(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    """Reverse-deriving the order-n forward tower in its base argument gives
    the order-(n+1) reverse tower once the covector is moved into place."""
    f = random_single_block_map(rng, cfg)
    a, m = f.domain.total, f.codomain_dim

    def checks():
        for n in range(1, cfg.max_order + 1):
            raw = partial_reverse(forward_derivative(f, n), 1)  # (a,)*(n+1) + (m,) -> a
            src = ArityProfile((a, m) + (a,) * n)
            placement = {1: 1, n + 2: 2}
            placement.update({t: t + 1 for t in range(2, n + 2)})
            lhs = precompose_blocks(raw, src, placement)
            yield _cmp("tower-bridge", [f], lhs, reverse_derivative(f, n + 1))
    return _first(checks())


def law_dagger_bridge(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    f = random_single_block_map(rng, cfg)
    return _first(_cmp("dagger-bridge", [f], dagger(forward_derivative(f, order), 2),
                       reverse_derivative(f, order))
                  for order in range(1, cfg.max_order + 2))


def law_tower_symmetry(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    f = random_single_block_map(rng, cfg)

    def checks():
        for order in range(1, min(cfg.max_order, 3) + 1):
            t = forward_derivative(f, order)
            nb = t.domain.block_count
            for p in range(2, nb + 1):
                for q in range(p + 1, nb + 1):
                    placement = _keep(nb)
                    placement[p], placement[q] = q, p
                    yield _cmp("tower-symmetry", [f], precompose_blocks(t, t.domain, placement), t)
    return _first(checks())


def law_tower_dlinear(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    f = random_single_block_map(rng, cfg)

    def checks():
        for order in range(1, min(cfg.max_order, 3) + 1):
            t = forward_derivative(f, order)
            for j in range(2, t.domain.block_count + 1):
                yield _flag("tower-dlinear", [f], is_dlinear(t, j), t, f"D-linear in block {j}")
    return _first(checks())


def law_tower_klinear_covector(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    f = random_single_block_map(rng, cfg)
    towers = (reverse_derivative(f, order) for order in range(1, cfg.max_order + 2))
    return _first(_flag("tower-klinear-covector", [f], is_klinear_in_block(t, 2), t,
                        "k-linear in block 2") for t in towers)


def law_degree_bound(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    """The reverse tower of order beyond the total degree vanishes."""
    f = random_single_block_map(rng, cfg)
    order = max(f.max_degree(), 0) + 1
    t = reverse_derivative(f, order)
    return _flag("degree-bound", [f], t.is_zero(), t, "0")


# -- partition-sum chain rules -------------------------------------------------


def _fdb(mode: str, rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    """The partition sum has Bell(n+1) summands and equals the iterated
    oracle, for every order offset n up to the configured order."""
    f, g = random_composable_pair(rng, cfg)

    def checks():
        for n in range(cfg.max_order + 1):
            rep = fdb_report(f, g, n, mode)
            count, want = len(rep.summands), bell(n + 1)
            yield _flag(f"fdb-{mode}-count", [f, g], count == want, count, want)
            yield _flag(f"fdb-{mode}", [f, g], rep.equal, rep.total, rep.oracle)
    return _first(checks())


def law_fdb_forward(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    return _fdb("forward", rng, cfg)


def law_fdb_reverse(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    return _fdb("reverse", rng, cfg)


def law_fdb_reverse_base(rng: random.Random, cfg: CorpusConfig) -> LawFailure | None:
    """Order offset 0 of the reverse partition sum is the chain rule verbatim."""
    f, g = random_composable_pair(rng, cfg)
    rep = fdb_report(f, g, 0, "reverse")
    return _cmp("fdb-reverse-base", [f, g], rep.total, _chain_rhs(f, g, 1))


SuiteLaw = tuple[str, Callable[[random.Random, CorpusConfig], LawFailure | None]]

LAWS: dict[str, list[SuiteLaw]] = {
    "rd-axioms": [
        ("rd1", law_rd1),
        ("rd2", law_rd2),
        ("rd3", law_rd3),
        ("rd4", law_rd4),
        ("rd5", law_rd5),
        ("rd6", law_rd6),
        ("rd7", law_rd7),
        ("partial-pairing", law_partial_pairing),
        ("cd5-chain", law_cd5_chain),
        ("schwarz", law_schwarz),
    ],
    "context": [
        ("ctx-rd1", law_ctx_rd1),
        ("ctx-rd2", law_ctx_rd2),
        ("ctx-rd3", law_ctx_rd3),
        ("ctx-rd4", law_ctx_rd4),
        ("ctx-rd5", law_ctx_rd5),
        ("ctx-rd6", law_ctx_rd6),
        ("ctx-rd7", law_ctx_rd7),
        ("ctx-tuple", law_ctx_tuple),
    ],
    "dagger": [
        ("dagger-contravariance", law_dagger_contravariance),
        ("dagger-base-independence", law_dagger_base_independence),
        ("dagger-partial", law_dagger_partial),
        ("dagger-involution", law_dagger_involution),
        ("dlinear-implies-klinear", law_dlinear_implies_klinear),
    ],
    "stable": [
        ("stable", law_stable),
        ("stable-context", law_stable_context),
        ("second-reverse", law_second_reverse),
        ("tower-bridge", law_tower_bridge),
        ("dagger-bridge", law_dagger_bridge),
        ("tower-symmetry", law_tower_symmetry),
        ("tower-dlinear", law_tower_dlinear),
        ("tower-klinear-covector", law_tower_klinear_covector),
        ("degree-bound", law_degree_bound),
    ],
    "fdb-forward": [
        ("fdb-forward", law_fdb_forward),
    ],
    "fdb-reverse": [
        ("fdb-reverse", law_fdb_reverse),
        ("fdb-reverse-base", law_fdb_reverse_base),
    ],
}

SUITE_NAMES = tuple(LAWS)


def run_suite(suite: str, seed: int = 42, cases: int = 100,
              config: CorpusConfig | None = None) -> LawReport:
    """Run every law of a suite ``cases`` times; exact comparisons only."""
    if suite not in LAWS:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    cfg = config or CorpusConfig()
    start = time.perf_counter()
    failures: list[LawFailure] = []
    law_ids: list[str] = []
    law_failures: list[int] = []
    for law_id, law in LAWS[suite]:
        rng = random.Random(f"{seed}/{law_id}")
        found = [fail for fail in (law(rng, cfg) for _ in range(cases)) if fail is not None]
        failures += found
        law_ids.append(law_id)
        law_failures.append(len(found))
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return LawReport(suite, seed, cases, failures, elapsed_ms, law_ids, law_failures)

