"""Derivative combinators on polynomial maps.

The reverse derivative of f : A -> B is the transpose-Jacobian-vector
product R[f] : A x B -> A; the forward derivative is the Jacobian-vector
product D[f] : A x A -> B.  The total derivatives of order k iterate only the
partial derivative in the first argument block, since iterating the full
reverse derivative doubles up information (the transpose of each stage is
already determined):

* reverse, order k:  (A, B, A, ..., A) -> A  with k-1 trailing A blocks,
* forward, order k:  (A, A, ..., A) -> B     with k trailing A blocks.

All four derivatives (total and per-block, in both modes, at any order) come
from one sparse kernel, where order 0 is the map and a negative order is
refused; a total derivative of positive order needs a single-block map.  At
every order, one walk per term chooses among the term's nonzero exponents in
one block, applies the power rule, and appends each derived term to its
output's list, which is sorted once; no two terms of one output share a
monomial, so none are merged.  Its cost follows the terms and their
variables in that block, not the number of (input, output) pairs or the
width of the block.  The linear transpose of a map in a block it is linear
in, and composition in a fixed context block, are built on top of it.

Derived maps always append their fresh argument blocks at the end of the
domain, never reordering existing coordinates, so identities between derived
maps hold positionally.
"""

from __future__ import annotations

from itertools import compress

from .maps import ArityProfile, PolyMap, compose, pair, precompose_blocks, projection
from .poly import Polynomial, _canonical_terms


class NotDLinearError(ValueError):
    """Raised when a transpose is requested in a block the map is not linear in."""


def _require_single_block(f: PolyMap, what: str) -> None:
    if f.domain.block_count != 1:
        raise ValueError(
            f"{what} is defined on single-block domains; reblock/flatten first "
            f"(got profile {f.domain})"
        )


def _partial(f: PolyMap, j: int, reverse: bool, order: int = 1) -> PolyMap:
    """The partial derivative of f in block j taken ``order`` times, in one pass.

    Each term c*x^m of coordinate k is walked once, without recursion, on one
    mutable exponent list: a choice picks a variable x_i of block j with
    exponent e > 0, lowers e by 1 and multiplies the coefficient by e.  An
    earlier choice appends its one-hot block of block j's size; the
    ``order``-th choice emits the term, in reverse mode into output i after the
    one-hot covector block of k, in forward mode into output k with the
    one-hot of i appended.  A term whose block-j degree is below ``order``
    cannot make that many choices and is skipped, and the walk chooses only
    among the nonzero block-j exponents.  No two emitted terms of one output
    share a monomial (the appended blocks and the lowered monomial recover the
    source term and its choices), so each output is a list that the walk
    appends to and that is sorted once, with nothing to merge or hash.  Each
    variable's one-hot block is built once per call, on its first choice.
    """
    rng = f.domain.block_range(j)
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return f
    start, stop = rng.start, rng.stop
    domain = f.domain.concat(f.codomain_dim if reverse else len(rng), *(len(rng),) * (order - 1))
    outputs: list[list] = [[] for _ in (rng if reverse else f.coords)]
    units: dict[int, tuple[int, ...]] = {}  # variable -> its one-hot block, built on first use
    for k, p in enumerate(f.coords):
        head = (0,) * k + (1,) + (0,) * (len(f.coords) - k - 1) if reverse else ()
        for mono, c in p.terms:
            block = mono[start:stop]
            if sum(block) < order:  # the term's order-k derivative is zero
                continue
            ex, support = list(mono), list(compress(rng, block))
            tail, stack, n = head, [], 0
            while True:
                if n == len(support):
                    if not stack:
                        break
                    n, c, tail = stack.pop()  # take back the last choice and try the next
                    ex[support[n]] += 1
                    n += 1
                    continue
                i = support[n]
                e = ex[i]
                if not e:
                    n += 1
                    continue
                ex[i], ce = e - 1, c if e == 1 else c * e
                last = len(stack) == order - 1
                if reverse and last:
                    outputs[i - start].append((tuple(ex) + tail, ce))
                else:
                    unit = units.get(i)
                    if unit is None:
                        unit = units[i] = (0,) * (i - start) + (1,) + (0,) * (stop - i - 1)
                    if not last:  # descend with the choice's one-hot appended
                        stack.append((n, c, tail))
                        c, tail, n = ce, tail + unit, 0
                        continue
                    outputs[k].append((tuple(ex) + tail + unit, ce))
                ex[i] = e
                n += 1
    dim = domain.total
    return PolyMap(domain, tuple(Polynomial(dim, _canonical_terms(terms)) for terms in outputs))


def reverse_derivative(f: PolyMap, order: int = 1) -> PolyMap:
    """R^order[f], the first-block partial reverse derivative taken ``order`` times.

    At order 1, R[f] : (n, m) -> n with coordinate i = sum_j d(f_j)/d(x_i) * y_j;
    the m fresh trailing coordinates are the output covector y.  Order 0 is f
    on any domain; a positive order needs a single-block map.
    """
    if order > 0:
        _require_single_block(f, "the total reverse derivative")
    return _partial(f, 1, True, order)


def forward_derivative(f: PolyMap, order: int = 1) -> PolyMap:
    """D^order[f], the first-block partial forward derivative taken ``order`` times.

    At order 1, D[f] : (n, n) -> m with coordinate j = sum_i d(f_j)/d(x_i) * y_i.
    Order 0 is f on any domain; a positive order needs a single-block map.
    """
    if order > 0:
        _require_single_block(f, "the total forward derivative")
    return _partial(f, 1, False, order)


def partial_reverse(f: PolyMap, j: int, order: int = 1) -> PolyMap:
    """The partial reverse derivative of f in block j, taken ``order`` times.

    At order 1 it is the j-th block of the total reverse derivative.  Domain
    profile is f's blocks followed by one fresh covector block of the codomain
    dimension and ``order`` - 1 fresh vector blocks of block j's dimension;
    codomain is block j's dimension.  Order 0 is f.
    """
    return _partial(f, j, True, order)


def partial_forward(f: PolyMap, j: int, order: int = 1) -> PolyMap:
    """The partial forward derivative of f in block j, taken ``order`` times.

    At order 1 it is the total forward derivative with zeros inserted in every
    vector block but j.  Domain profile is f's blocks followed by ``order``
    fresh vector blocks of block j's dimension.  Order 0 is f.
    """
    return _partial(f, j, False, order)


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


def _in_context(f: PolyMap, j: int) -> PolyMap:
    """f in slot j of a tuple whose other slots project f's other blocks."""
    nb = f.domain.block_count
    return pair([f if t == j else projection(f.domain, t) for t in range(1, nb + 1)])


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
    return compose(g, _in_context(f, 2))

