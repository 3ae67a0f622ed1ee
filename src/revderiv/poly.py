"""Sparse exact multivariate polynomials.

A polynomial lives in a fixed number of coordinates ``dim``.  A monomial is a
fixed-length tuple of nonnegative exponents, one entry per coordinate, so
equality is positional and padding a polynomial into a larger coordinate
space is explicit.  Terms are stored sorted in descending graded-lexicographic
order with no zero coefficients, which makes structural equality coincide
with mathematical equality and makes printing deterministic.

A coefficient is stored as an ``int`` when its value is integral and as a
``Fraction`` with a denominator other than 1 otherwise, so integer values
never pay for ``Fraction`` arithmetic.  Equal values compare and hash equal,
so equality, hashing, the printed text, the JSON reports and
:meth:`Polynomial.evaluate` (which returns a ``Fraction``) are the same as if
every coefficient were a ``Fraction``.

Every operation in which like terms can meet streams its raw terms into one
accumulator that merges them in one dict and sorts once, and
:meth:`Polynomial.sum` adds any number of polynomials the same way.
Substitution folds each one-term argument into the exponents and the
coefficient of a term, so only arguments with several terms are multiplied.
Re-indexing that names each source coordinate once relabels each monomial and
sorts once, with nothing to merge; a source named twice goes through the
substitution fold.  One printer body serves ``str`` and callers that print
many polynomials together and share a table of monomial texts; it finds a
monomial's nonzero exponents with ``itertools.compress``, so a wide sparse
monomial costs by its variables.

Integers of any length, past the interpreter's int/str digit limit, are
converted here alone: :func:`_digits` prints the printer's numbers and
:func:`_integer` reads the parser's, through ``decimal.Decimal``, which is
exact and has no such limit, when ``str`` or ``int`` refuses.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from decimal import Decimal
from fractions import Fraction
from itertools import compress, count
from math import prod
from operator import add, itemgetter

from ._records import FrozenRecord


Monomial = tuple[int, ...]
Coefficient = int | Fraction


def _digits(n: int) -> str:
    """The decimal text of ``n``, of any length."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _integer(text: str) -> int:
    """The int that the decimal ``text`` spells, of any length."""
    try:
        return int(text)
    except ValueError:
        return int(Decimal(text))


def _graded(term: tuple[Monomial, Coefficient]) -> tuple[int, Monomial]:
    """The sort key of a term: its monomial's degree, then the monomial."""
    return sum(term[0]), term[0]


def _canonical_terms(
        terms: Iterable[tuple[Monomial, Coefficient]]) -> tuple[tuple[Monomial, Coefficient], ...]:
    """Drop zero coefficients, store integral ones as ints and sort
    descending in (degree, monomial); no two of ``terms`` share a monomial."""
    items = [(m, c if type(c) is int or c.denominator != 1 else c.numerator)
             for m, c in terms if c]
    items.sort(key=_graded, reverse=True)
    return tuple(items)


def _accumulate(dim: int, terms: Iterable[tuple[Monomial, Coefficient]]) -> "Polynomial":
    """The one place where terms merge: like monomials add up in one dict,
    which is canonicalized once; zero sums are dropped then, not while merging."""
    acc: dict[Monomial, Coefficient] = {}
    for m, c in terms:
        acc[m] = acc[m] + c if m in acc else c
    return Polynomial(dim, _canonical_terms(acc.items()))


class Polynomial(FrozenRecord):
    """An exact polynomial in ``dim`` coordinates.

    ``terms`` is the canonical sorted tuple of (monomial, coefficient) pairs;
    use :meth:`from_dict` rather than the raw constructor.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: tuple[tuple[Monomial, Coefficient], ...]) -> None:
        _set_dim(self, dim)
        _set_terms(self, terms)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.dim, self.terms) == (other.dim, other.terms)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dim, self.terms))

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_dict(dim: int, coeffs: Mapping[Monomial, Coefficient]) -> "Polynomial":
        for mono in coeffs:
            if len(mono) != dim:
                raise ValueError(f"monomial {mono} has {len(mono)} exponents, expected {dim}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
        return Polynomial(dim, _canonical_terms(coeffs.items()))

    @staticmethod
    def zero(dim: int) -> "Polynomial":
        return Polynomial(dim, ())

    @staticmethod
    def constant(dim: int, value: Coefficient) -> "Polynomial":
        return Polynomial(dim, _canonical_terms([((0,) * dim, value)]))

    @staticmethod
    def sum(dim: int, polys: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of any number of polynomials in ``dim`` coordinates."""
        polys = tuple(polys)
        for p in polys:
            if p.dim != dim:
                raise ValueError(f"dimension mismatch: {dim} vs {p.dim}")
        return _accumulate(dim, (t for p in polys for t in p.terms))

    @staticmethod
    def variable(index: int, dim: int) -> "Polynomial":
        if not 0 <= index < dim:
            raise IndexError(f"coordinate index {index} out of range for dimension {dim}")
        mono = tuple(1 if i == index else 0 for i in range(dim))
        return Polynomial(dim, ((mono, 1),))

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest monomial degree; -1 for the zero polynomial."""
        return max((sum(m) for m, _ in self.terms), default=-1)

    def as_dict(self) -> dict[Monomial, Coefficient]:
        return dict(self.terms)

    # -- k-module and ring structure -----------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.sum(self.dim, (self, other))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.dim, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, value: Coefficient) -> "Polynomial":
        # a zero value drops every term; an integral product is stored as an int
        return Polynomial(self.dim, _canonical_terms((m, value * k) for m, k in self.terms))

    def __mul__(self, other: "Polynomial | Coefficient") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return _accumulate(self.dim, (
            (tuple(map(add, m1, m2)), c1 * c2)
            for m1, c1 in self.terms for m2, c2 in other.terms
        ))

    def __rmul__(self, other: Coefficient) -> "Polynomial":
        return self.scale(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        # the first factor is the result itself, not a product with 1
        result, base, e = None, self, exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return Polynomial.constant(self.dim, 1) if result is None else result

    # -- differentiation ------------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Symbolic partial derivative in coordinate ``index`` (power rule)."""
        if not 0 <= index < self.dim:
            raise IndexError(f"coordinate index {index} out of range for dimension {self.dim}")
        return _accumulate(self.dim, (
            (m[:index] + (m[index] - 1,) + m[index + 1:], c * m[index])
            for m, c in self.terms if m[index]
        ))

    # -- evaluation and substitution -------------------------------------

    def evaluate(self, point: Sequence[Coefficient]) -> Fraction:
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.dim}")
        values = [Fraction(v) for v in point]
        return sum((c * prod(v ** e for v, e in zip(values, m) if e) for m, c in self.terms),
                   Fraction(0))

    def substitute(self, args: Sequence["Polynomial"], dim: int | None = None) -> "Polynomial":
        """Substitute ``args[i]`` for coordinate ``i``; all args share one space.

        A term that uses a zero argument vanishes before any power is built.
        A one-term argument k*x^m adds k^e to the term's coefficient and e*m
        to its exponents, with no product; only arguments with several terms
        are raised to powers (each power built once) and multiplied.
        """
        if len(args) != self.dim:
            raise ValueError(f"{len(args)} substitution arguments, expected {self.dim}")
        if args:
            dim = args[0].dim
            for p in args:
                if p.dim != dim:
                    raise ValueError("substitution arguments live in different spaces")
        elif dim is None:
            raise ValueError("substituting into a 0-coordinate polynomial needs an explicit dim")
        zeros = [i for i, p in enumerate(args) if not p.terms]
        # per argument: (coefficient, nonzero exponents) when it has one term
        ones = [(p.terms[0][1], [(j, a) for j, a in enumerate(p.terms[0][0]) if a])
                if len(p.terms) == 1 else None for p in args]
        powers: dict[tuple[int, int], Polynomial] = {}

        def expanded():
            # every term's expansion goes into the one accumulator
            for m, c in self.terms:
                if zeros and any(m[i] for i in zeros):
                    continue
                mono = [0] * dim
                product = None
                for i, e in enumerate(m):
                    if not e:
                        continue
                    one = ones[i]
                    if one is not None:
                        k, exps = one
                        if k != 1:
                            c = c * k ** e
                        for j, a in exps:
                            mono[j] += a * e
                        continue
                    if (i, e) not in powers:
                        powers[i, e] = args[i] ** e
                    product = powers[i, e] if product is None else product * powers[i, e]
                if product is None:
                    yield tuple(mono), c
                else:
                    yield from ((tuple(map(add, mono, mk)), c * k) for mk, k in product.terms)

        return _accumulate(dim, expanded())

    def reindex(self, sources: Sequence[int | None], dim: int) -> "Polynomial":
        """Substitute coordinate ``sources[i]`` of a ``dim``-space, or zero when
        it is None, for coordinate ``i``, by rewriting exponents only.

        When each source is named at most once, terms that use a zeroed
        coordinate vanish and each other monomial, with a zero appended for
        the sources nothing reads, is relabelled by one ``itemgetter``;
        distinct monomials stay distinct, so the terms are sorted once and
        nothing merges.  A source named twice goes through :meth:`substitute`
        with the matching variables and zeros, whose one-term fold adds the
        exponents routed from it without multiplying polynomials.
        """
        if len(sources) != self.dim:
            raise ValueError(f"{len(sources)} routing sources, expected {self.dim}")
        unread = self.dim  # the index of the zero appended to each monomial
        picks = [unread] * dim
        dropped = []
        twice = False
        for i, s in enumerate(sources):
            if s is None:
                dropped.append(i)
            elif not 0 <= s < dim:
                raise IndexError(f"source coordinate {s} out of range for dimension {dim}")
            elif picks[s] == unread:
                picks[s] = i
            else:
                twice = True
        if twice:
            return self.substitute([Polynomial.zero(dim) if s is None else Polynomial.variable(s, dim)
                                    for s in sources], dim)
        # with fewer than two items, itemgetter returns no tuple
        relabel = itemgetter(*picks) if dim > 1 else lambda m: tuple(m[k] for k in picks)
        terms = [(relabel(m + (0,)), c) for m, c in self.terms
                 if not (dropped and any(m[i] for i in dropped))]
        terms.sort(key=_graded, reverse=True)
        return Polynomial(dim, tuple(terms))

    def pad(self, dim: int) -> "Polynomial":
        """Embed into a larger space by appending fresh trailing coordinates."""
        if dim < self.dim:
            raise ValueError(f"cannot pad from dimension {self.dim} down to {dim}")
        if dim == self.dim:
            return self
        extra = (0,) * (dim - self.dim)
        # appending zeros preserves graded-lex order, so terms stay canonical
        return Polynomial(dim, tuple((m + extra, c) for m, c in self.terms))

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        return _text(self)


# the slots' own setters, which construction uses as the instances refuse setattr
_set_dim, _set_terms = Polynomial.dim.__set__, Polynomial.terms.__set__


def _text(p: Polynomial, names: dict[Monomial, str] | None = None) -> str:
    """The canonical text of ``p``.  ``names``, when given, caches each
    monomial's factor text, so polynomials printed together share it."""
    if not p.terms:
        return "0"
    pieces: list[str] = []
    for mono, coeff in p.terms:
        # an int coefficient has these too, with denominator 1
        num, den = coeff.numerator, coeff.denominator
        body = _digits(abs(num)) if den == 1 else f"{_digits(abs(num))}/{_digits(den)}"
        factors = None if names is None else names.get(mono)
        if factors is None:
            factors = "*".join([f"x{i}" if mono[i - 1] == 1 else f"x{i}^{_digits(mono[i - 1])}"
                                for i in compress(count(1), mono)])
            if names is not None:
                names[mono] = factors
        if factors:
            body = factors if body == "1" else f"{body}*{factors}"
        pieces.append(f" - {body}" if num < 0 else f" + {body}")
    # the leading term drops its separator and keeps only a minus sign
    text = "".join(pieces)
    return text[3:] if text[1] == "+" else f"-{text[3:]}"
