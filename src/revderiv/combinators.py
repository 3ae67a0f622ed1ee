"""First-order derivative combinators on polynomial maps.

The reverse derivative of f : A -> B is the transpose-Jacobian-vector
product R[f] : A x B -> A; the forward derivative is the Jacobian-vector
product D[f] : A x A -> B.  Partial (per-block) versions, the linear
transpose of a map in a block it is linear in, and the slice constructions
that thread a fixed context block through composition are all built on top
of the coordinate-wise power-rule derivative from :mod:`revderiv.poly`.

Derived maps always append their fresh argument blocks at the end of the
domain, never reordering existing coordinates, so identities between derived
maps hold positionally.
"""

from __future__ import annotations

from .maps import (
    ArityProfile,
    PolyMap,
    compose,
    flatten,
    pair,
    precompose_blocks,
    projection,
    reblock,
)
from .poly import Polynomial


class NotDLinearError(ValueError):
    """Raised when a transpose is requested in a block the map is not linear in."""


def _require_single_block(f: PolyMap, what: str) -> None:
    if f.domain.block_count != 1:
        raise ValueError(
            f"{what} is defined on single-block domains; reblock/flatten first "
            f"(got profile {f.domain})"
        )


def reverse_derivative(f: PolyMap) -> PolyMap:
    """R[f] : (n, m) -> n, coordinate i = sum_j d(f_j)/d(x_i) * y_j.

    The m fresh trailing coordinates are the output covector y.
    """
    _require_single_block(f, "the total reverse derivative")
    n = f.domain.total
    m = f.codomain_dim
    dim = n + m
    coords = []
    for i in range(n):
        acc = Polynomial.zero(dim)
        for j, fj in enumerate(f.coords):
            acc = acc + fj.partial(i).pad(dim) * Polynomial.variable(n + j, dim)
        coords.append(acc)
    return PolyMap(ArityProfile((n, m)), tuple(coords))


def forward_derivative(f: PolyMap) -> PolyMap:
    """D[f] : (n, n) -> m, coordinate j = sum_i d(f_j)/d(x_i) * y_i."""
    _require_single_block(f, "the total forward derivative")
    n = f.domain.total
    dim = 2 * n
    coords = []
    for fj in f.coords:
        acc = Polynomial.zero(dim)
        for i in range(n):
            acc = acc + fj.partial(i).pad(dim) * Polynomial.variable(n + i, dim)
        coords.append(acc)
    return PolyMap(ArityProfile((n, n)), tuple(coords))


def partial_reverse(f: PolyMap, j: int) -> PolyMap:
    """The j-th block of the total reverse derivative.

    Domain profile is f's blocks followed by one fresh covector block of the
    codomain dimension; codomain is block j's dimension.
    """
    f.domain.check_block(j)
    m = f.codomain_dim
    total = reverse_derivative(flatten(f))
    domain = f.domain.concat(m)
    rng = f.domain.block_range(j)
    return PolyMap(domain, total.coords[rng.start: rng.stop])


def partial_forward(f: PolyMap, j: int) -> PolyMap:
    """Total forward derivative with zeros inserted in every vector block but j.

    Domain profile is f's blocks followed by one fresh vector block of block
    j's dimension.
    """
    f.domain.check_block(j)
    blocks = f.domain.blocks
    nb = len(blocks)
    dj = blocks[j - 1]
    d_total = reblock(forward_derivative(flatten(f)), blocks + blocks)
    placement = {t: t for t in range(1, nb + 1)}
    placement[nb + j] = nb + 1
    return precompose_blocks(d_total, f.domain.concat(dj), placement)


def forward_from_reverse(f: PolyMap) -> PolyMap:
    """Forward derivative reconstructed by transposing the reverse derivative.

    Takes the partial reverse derivative of R[f] in its covector block, then
    zeroes that block out.  Exactly equal to :func:`forward_derivative` in
    this model.
    """
    r = reverse_derivative(f)
    rr = partial_reverse(r, 2)  # (n, m, n) -> m
    n = f.domain.total
    src = ArityProfile((n, n))
    return precompose_blocks(rr, src, {1: 1, 3: 2})


def is_klinear_in_block(f: PolyMap, j: int) -> bool:
    """Exact additivity-and-homogeneity in block j.

    Over an infinite coefficient field this is equivalent to every monomial
    of every coordinate having total degree exactly 1 in block j's variables.
    """
    rng = f.domain.block_range(j)
    for p in f.coords:
        for mono, _ in p.terms:
            if sum(mono[i] for i in rng) != 1:
                return False
    return True


def is_dlinear(f: PolyMap, j: int) -> bool:
    """True iff the j-th partial forward derivative of f is f itself applied
    to the fresh vector argument (for any base value of block j)."""
    f.domain.check_block(j)
    nb = f.domain.block_count
    lhs = partial_forward(f, j)
    placement = {t: t for t in range(1, nb + 1) if t != j}
    placement[j] = nb + 1
    rhs = precompose_blocks(f, lhs.domain, placement)
    return lhs == rhs


def dagger(f: PolyMap, j: int) -> PolyMap:
    """Linear transpose of f in block j (f must be D-linear in block j).

    For f : C1 x A x C2 -> B linear in A, returns C1 x B x C2 -> A: the j-th
    partial reverse derivative with block j's base argument set to zero, with
    the covector block moved into position j.  Involutive.
    """
    if not is_dlinear(f, j):
        raise NotDLinearError(f"map is not D-linear in block {j}")
    blocks = f.domain.blocks
    nb = len(blocks)
    m = f.codomain_dim
    rj = partial_reverse(f, j)  # blocks + (m,) -> d_j
    src = ArityProfile(blocks[: j - 1] + (m,) + blocks[j:])
    placement = {t: t for t in range(1, nb + 1) if t != j}
    placement[nb + 1] = j
    return precompose_blocks(rj, src, placement)


def slice_compose(g: PolyMap, f: PolyMap, context_dim: int) -> PolyMap:
    """Composition in a fixed context: g(c, f(c, x)).

    f : (C, A) -> B and g : (C, B) -> D with a shared leading context block C
    of dimension ``context_dim``; the identity of this composition is the
    projection onto the second block.
    """
    if f.domain.block_count != 2 or g.domain.block_count != 2:
        raise ValueError("context composition expects two-block domains (C, A) and (C, B)")
    if f.domain.blocks[0] != context_dim or g.domain.blocks[0] != context_dim:
        raise ValueError(f"context blocks must both have dimension {context_dim}")
    if g.domain.blocks[1] != f.codomain_dim:
        raise ValueError(
            f"inner map produces {f.codomain_dim} outputs, outer expects {g.domain.blocks[1]}"
        )
    return compose(g, pair([projection(f.domain, 1), f]))


def slice_reverse(f: PolyMap, context_dim: int) -> PolyMap:
    """Reverse derivative in a fixed context: for f : (C, A) -> B, the map
    (C, A, B) -> A that differentiates only the A block."""
    if f.domain.block_count != 2 or f.domain.blocks[0] != context_dim:
        raise ValueError(f"expected a two-block domain with context dimension {context_dim}")
    return partial_reverse(f, 2)
