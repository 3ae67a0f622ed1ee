"""Polynomial maps between products of finite-dimensional coordinate spaces.

A map's domain is a flat coordinate space carrying a block structure (an
:class:`ArityProfile`), so regrouping blocks never touches coordinates.  The
codomain is a plain dimension: block structure on outputs is recovered by
composing with projections when needed.  Block indices in this module are
1-based (the j-th factor of a product); flat coordinate indices are 0-based.
Routing whole blocks (:func:`precompose_blocks`) re-indexes exponents: one
relabel per monomial, or substitution's one-term fold for a duplicated block.
A placement that names a block the target does not have is an ``IndexError``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import accumulate

from ._records import FrozenRecord
from .poly import Coefficient, Polynomial, Substitution


class ArityProfile(FrozenRecord):
    """Dimensions of the factors of a product domain.

    A block may be 0-dimensional (the terminal object).  Flat coordinate
    indices run over ``range(total)`` in block order.  The block offsets are
    computed once, outside the fields, so equality, hashing and ``repr`` see
    only ``blocks``.
    """

    __slots__ = ("blocks", "_starts")

    def __init__(self, blocks: tuple[int, ...]) -> None:
        if not blocks:
            raise ValueError("a profile needs at least one block")
        if min(blocks) < 0:
            raise ValueError(f"negative block dimension in {blocks}")
        _set_blocks(self, blocks)
        _set_starts(self, tuple(accumulate(blocks, initial=0)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.blocks == other.blocks
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.blocks,))

    @property
    def total(self) -> int:
        return self._starts[-1]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def check_block(self, j: int) -> None:
        if not 1 <= j <= len(self.blocks):
            raise IndexError(f"block index {j} out of range for {len(self.blocks)} blocks")

    def block_dim(self, j: int) -> int:
        self.check_block(j)
        return self.blocks[j - 1]

    def block_range(self, j: int) -> range:
        self.check_block(j)
        return range(self._starts[j - 1], self._starts[j])

    def flat(self) -> "ArityProfile":
        return ArityProfile((self.total,))

    def concat(self, *dims: int) -> "ArityProfile":
        return ArityProfile(self.blocks + tuple(dims))

    def __str__(self) -> str:
        return "(" + ",".join(str(d) for d in self.blocks) + ")"


class PolyMap(FrozenRecord):
    """A tuple of polynomials over a shared block-structured domain.  Its hash
    is that of its fields, computed on first use and kept outside them."""

    __slots__ = ("domain", "coords", "_hash")

    def __init__(self, domain: ArityProfile, coords: tuple[Polynomial, ...]) -> None:
        total = domain.total
        for p in coords:
            if p.dim != total:
                raise ValueError(
                    f"coordinate polynomial has {p.dim} inputs, domain has {total}"
                )
        _set_domain(self, domain)
        _set_coords(self, coords)
        _set_hash(self, None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.domain, self.coords) == (other.domain, other.coords)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            _set_hash(self, hash((self.domain, self.coords)))
        return self._hash

    @property
    def codomain_dim(self) -> int:
        return len(self.coords)

    def evaluate(self, point: Sequence[Coefficient]) -> tuple[Fraction, ...]:
        if len(point) != self.domain.total:
            raise ValueError(
                f"point has {len(point)} coordinates, domain has {self.domain.total}"
            )
        return tuple(p.evaluate(point) for p in self.coords)

    def __add__(self, other: "PolyMap") -> "PolyMap":
        return sum_maps(self.domain, self.codomain_dim, (self, other))

    def scale(self, value: Coefficient) -> "PolyMap":
        return PolyMap(self.domain, tuple(p.scale(value) for p in self.coords))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.coords)

    def max_degree(self) -> int:
        return max((p.total_degree() for p in self.coords), default=-1)

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.coords) + ")"


# the slots' own setters, which construction and the cached hash use as the
# instances refuse setattr
_set_blocks, _set_starts = ArityProfile.blocks.__set__, ArityProfile._starts.__set__
_set_domain, _set_coords, _set_hash = (
    PolyMap.domain.__set__, PolyMap.coords.__set__, PolyMap._hash.__set__)


# -- basic constructions ----------------------------------------------------


def identity(domain: ArityProfile | int) -> PolyMap:
    profile = ArityProfile((domain,)) if isinstance(domain, int) else domain
    n = profile.total
    return PolyMap(profile, tuple(Polynomial.variable(i, n) for i in range(n)))


def zero_map(domain: ArityProfile, codomain_dim: int) -> PolyMap:
    zero = Polynomial.zero(domain.total)
    return PolyMap(domain, (zero,) * codomain_dim)


def sum_maps(domain: ArityProfile, codomain_dim: int, maps: Sequence[PolyMap]) -> PolyMap:
    """The coordinatewise sum of any number of maps domain -> codomain_dim;
    each coordinate is added up and canonicalized once."""
    for f in maps:
        if f.domain != domain or f.codomain_dim != codomain_dim:
            raise ValueError("can only add maps with identical domain and codomain")
    return PolyMap(domain, tuple(
        Polynomial.sum(domain.total, (f.coords[i] for f in maps)) for i in range(codomain_dim)
    ))


def projection(domain: ArityProfile, j: int) -> PolyMap:
    """Select the j-th block (1-based) of the domain."""
    n = domain.total
    return PolyMap(domain, tuple(Polynomial.variable(i, n) for i in domain.block_range(j)))


def pair(maps: Sequence[PolyMap]) -> PolyMap:
    """Tuple maps with a shared domain into one map onto the concatenated codomain."""
    if not maps:
        raise ValueError("pairing needs at least one map")
    domain = maps[0].domain
    for f in maps[1:]:
        if f.domain != domain:
            raise ValueError("paired maps must share one domain profile")
    coords: list[Polynomial] = []
    for f in maps:
        coords.extend(f.coords)
    return PolyMap(domain, tuple(coords))


def compose(g: PolyMap, f: PolyMap) -> PolyMap:
    """g after f: substitute f's coordinates into g's inputs.

    Every coordinate of g is substituted through one :class:`Substitution`:
    the checks on f's coordinates, the zero and one-term ones, and the powers
    of the others are set up once for all of them.
    """
    if g.domain.total != f.codomain_dim:
        raise ValueError(
            f"cannot compose: inner map has {f.codomain_dim} outputs, "
            f"outer map expects {g.domain.total}"
        )
    args = Substitution(f.coords, f.domain.total)
    return PolyMap(f.domain, tuple(p.substitute(args) for p in g.coords))


def reblock(f: PolyMap, profile: ArityProfile | Sequence[int]) -> PolyMap:
    """Reinterpret the block structure of the domain; coordinates are untouched."""
    new = profile if isinstance(profile, ArityProfile) else ArityProfile(tuple(profile))
    if new.total != f.domain.total:
        raise ValueError(
            f"new profile covers {new.total} coordinates, domain has {f.domain.total}"
        )
    return PolyMap(new, f.coords)


def flatten(f: PolyMap) -> PolyMap:
    return reblock(f, f.domain.flat())


def _routing(src: ArityProfile, target: ArityProfile,
             placement: Mapping[int, int]) -> list[int | None]:
    """For each flat coordinate of ``target``, its source coordinate in ``src``,
    or None where the target block has no entry in ``placement``."""
    for t in placement:
        if not 1 <= t <= target.block_count:
            raise IndexError(f"placement key {t} names no block of {target}")
    sources: list[int | None] = []
    for t, d in enumerate(target.blocks, start=1):
        if t in placement:
            s = placement[t]
            span = src.block_range(s)
            if len(span) != d:
                raise ValueError(
                    f"block {s} of {src} has dimension {len(span)}, target block {t} needs {d}"
                )
            sources.extend(span)
        else:
            sources.extend([None] * d)
    return sources


def embed_blocks(src: ArityProfile, target: ArityProfile, placement: Mapping[int, int]) -> PolyMap:
    """Build the map src -> target that routes whole blocks.

    ``placement[t] = s`` copies source block ``s`` into target block ``t``;
    target blocks without an entry are filled with zeros.  Dimensions of
    routed blocks must agree.  Permutations, zero insertions, and block
    selections are all instances.
    """
    n = src.total
    return PolyMap(src, tuple(
        Polynomial.zero(n) if s is None else Polynomial.variable(s, n)
        for s in _routing(src, target, placement)
    ))


def select_blocks(src: ArityProfile, picks: Sequence[int]) -> PolyMap:
    """The map src -> (picked blocks) listing the chosen blocks in order."""
    target = ArityProfile(tuple(src.block_dim(p) for p in picks))
    return embed_blocks(src, target, {t + 1: p for t, p in enumerate(picks)})


def precompose_blocks(f: PolyMap, src: ArityProfile, placement: Mapping[int, int]) -> PolyMap:
    """f with its block arguments rerouted: argument block t of f is taken
    from source block placement[t], or set to zero when absent.

    Equal to ``compose(f, embed_blocks(src, f.domain, placement))``, but the
    routing only rewrites exponents; no polynomial is multiplied.  A placement
    that names each source block once (a permutation, a selection, a zero
    insertion) relabels each monomial once; one that duplicates a source block
    goes through substitution's one-term fold (see :meth:`Polynomial.reindex`).
    The placement is checked once per call; a zero coordinate stays zero and
    is not re-indexed.
    """
    sources = _routing(src, f.domain, placement)
    zero = Polynomial.zero(src.total)
    return PolyMap(src, tuple(p.reindex(sources, src.total) if p.terms else zero for p in f.coords))
