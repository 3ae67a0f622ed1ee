"""Every partition-sum summand and total against truncated Taylor jets.

The expected values share no code with ``compose``, the towers or the summand
builders.  A map is evaluated on truncated univariate Taylor jets over
``Fraction``, read off ``Polynomial.terms`` alone, and a composite g o f by
feeding f's output jets to g.  An order-m derivative comes from m directions
by polarization:

    D^m h(x)[w1, ..., wm] = sum over T of (-1)^(m-|T|) [t^m] h(x + t*w_T),

over the subsets T of the directions, with w_T the sum of the directions in T
(Griewank, Utke & Walther, Math. Comp. 69(231), 2000).  Both sides are
evaluated at random rational points, so agreement is evidence, not a verdict
(Schwartz, J. ACM 27(4), 1980).
"""

import random
from fractions import Fraction
from itertools import combinations

from test_faa_di_bruno import MODES, corpus_pairs, inverse_placement, same_shape_swap

from revderiv import faa_di_bruno
from revderiv.faa_di_bruno import fdb_report
from revderiv.syntax import parse_map


def jet_product(p, q):
    """The product of two jets of one length, truncated to it."""
    out = [Fraction(0)] * len(p)
    for i, a in enumerate(p):
        if a:
            for j in range(len(p) - i):
                out[i + j] += a * q[j]
    return out


def evaluate(f, jets):
    """Each coordinate of the map f at the input jets, one jet per variable."""
    out = []
    for p in f.coords:
        total = [Fraction(0)] * len(jets[0])
        for mono, c in p.terms:
            term = [Fraction(c)] + [Fraction(0)] * (len(total) - 1)
            for jet, e in zip(jets, mono):
                for _ in range(e):
                    term = jet_product(term, jet)
            total = [s + t for s, t in zip(total, term)]
        out.append(total)
    return out


def derivative(maps, x, dirs):
    """D^m h(x)[dirs], one value per output, for h the composite that applies
    ``maps`` in turn and m = len(dirs)."""
    m = len(dirs)
    out = [Fraction(0)] * maps[-1].codomain_dim
    for size in range(m + 1):
        for subset in combinations(dirs, size):
            w = [sum(d[i] for d in subset) for i in range(len(x))]
            jets = [[xi, wi] + [0] * (m - 1) if m else [xi] for xi, wi in zip(x, w)]
            for f in maps:
                jets = evaluate(f, jets)
            sign = (-1) ** (m - size)
            out = [o + sign * jet[m] for o, jet in zip(out, jets)]
    return out


def unit(dim, i):
    return [Fraction(int(k == i)) for k in range(dim)]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def expected_forward(f, g, x, v, part):
    """D^k g(f(x))[D^|S| f(x)[v_S] for each block S of the partition]."""
    fx = derivative([f], x, [])
    return derivative([g], fx, [derivative([f], x, [v[s] for s in block]) for block in part.blocks])


def expected_reverse(f, g, x, y, v, part):
    """Coordinate i is sum_l w_l * D^|S1| f_l(x)[e_i, v_(S1 - 1)], with
    w_l = sum_c y_c * D^k g_c(f(x))[e_l, u_2, ..., u_k] and u_j the forward
    factor of the j-th block."""
    first, rest = part.blocks[0], part.blocks[1:]
    fx = derivative([f], x, [])
    u = [derivative([f], x, [v[s] for s in block]) for block in rest]
    w = [dot(y, derivative([g], fx, [unit(len(fx), l)] + u)) for l in range(len(fx))]
    return [dot(w, derivative([f], x, [unit(len(x), i)] + [v[s] for s in first[1:]]))
            for i in range(len(x))]


# the deep pair of CI's partition-sum step: degree 4 and 5, so that the oracle is
# rarely the zero map
DEEP_PAIR = (parse_map("(x1^3*x2 + x2^2, x1*x2 - x1^4)", blocks=(2,)),
             parse_map("(x1^2*x2^3 + x1, x2^5)", blocks=(2,)))


def jet_mismatches(mode):
    """Checks of fdb_report's summands and totals, for the corpus pairs and the
    deep pair, n <= 3 and two random nonzero rational points each: how many there are,
    how many differ from the jets, and how many compare zero with zero."""
    rng = random.Random(34)

    def draw(dim):
        # nonzero coordinates, so that no point sits on a coordinate hyperplane
        return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
                for _ in range(dim)]

    checks = bad = zeros = 0
    for f, g in corpus_pairs() + [DEEP_PAIR]:
        a = f.domain.total
        for n in range(4):
            rep = fdb_report(f, g, n, mode)
            for _ in range(2):
                x = draw(a)
                if mode == "forward":
                    # label s names domain block s+1
                    v = {s: draw(a) for s in range(1, n + 2)}
                    point = x + [c for vs in v.values() for c in vs]
                    want = [expected_forward(f, g, x, v, s.partition) for s in rep.summands]
                    want.append(derivative([f, g], x, list(v.values())))
                else:
                    # label 1 names the covector in block 2, label s >= 2 block s+1
                    y, v = draw(g.codomain_dim), {s: draw(a) for s in range(2, n + 2)}
                    point = x + y + [c for vs in v.values() for c in vs]
                    want = [expected_reverse(f, g, x, y, v, s.partition) for s in rep.summands]
                    want.append([dot(y, derivative([f, g], x, [unit(a, i)] + list(v.values())))
                                 for i in range(a)])
                got = [s.result for s in rep.summands] + [rep.total]
                for fmap, value in zip(got, want):
                    checks += 1
                    bad += [jet[0] for jet in evaluate(fmap, [[c] for c in point])] != value
                    zeros += not any(value)
    return checks, bad, zeros


@MODES
def test_summands_and_totals_match_the_jets(mode):
    # 27 checks per pair and point: 1 + 2 + 5 + 15 summands and 4 totals; the
    # 95 that compare zero with zero are all on corpus pairs, none on the deep pair
    assert jet_mismatches(mode) == (270, 0, 95)


@MODES
def test_jets_catch_a_same_shape_swap(mode, monkeypatch):
    monkeypatch.setattr(faa_di_bruno, "_relabellings", same_shape_swap(faa_di_bruno._relabellings))
    assert jet_mismatches(mode)[1] > 0


@MODES
def test_jets_catch_the_inverse_placement(mode, monkeypatch):
    monkeypatch.setattr(faa_di_bruno, "_plan", inverse_placement(faa_di_bruno._plan))
    assert jet_mismatches(mode)[1] > 0
