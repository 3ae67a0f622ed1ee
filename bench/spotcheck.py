"""An oracle for order-3 towers that shares no code with the towers.

Along the line t -> a + t*v the map f becomes a vector p(t) of univariate
polynomials, and p'''(0) is the third directional derivative of f at a.  The
coefficients of p are rebuilt by exact Lagrange interpolation of
``Polynomial.evaluate`` at rational points (Griewank, Utke & Walther,
"Evaluating higher derivative tensors by forward propagation of univariate
Taylor series", Math. Comp. 69(231), 2000).  Nothing here calls the
combinators or the towers; the derived maps are read back from the CLI's
printed output.

Checks, for the printed order-3 towers D3 and R3:
  D3(a, v, v, v) = p'''(0)
  <v, R3(a, w, v, v)> = <w, p'''(0)>
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

POINT_VALUES = tuple(Fraction(k) for k in (-2, -1, 0, 1, 2)) + (Fraction(1, 2), Fraction(-1, 3))


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def interpolate(ts: list[Fraction], ys: list[Fraction]) -> list[Fraction]:
    """Coefficients (lowest first) of the polynomial through (ts[i], ys[i])."""
    coeffs = [Fraction(0)] * len(ts)
    for j, (tj, yj) in enumerate(zip(ts, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for m, tm in enumerate(ts):
            if m != j:
                basis = _poly_mul(basis, [-tm, Fraction(1)])
                denom *= tj - tm
        for k, b in enumerate(basis):
            coeffs[k] += yj * b / denom
    return coeffs


def third_directional(f, a: list[Fraction], v: list[Fraction], degree: int) -> list[Fraction]:
    """p'''(0) for p(t) = f(a + t*v), f a parsed map of total degree <= degree."""
    ts = [Fraction(t) for t in range(degree + 1)]
    samples = []
    for t in ts:
        point = [ai + t * vi for ai, vi in zip(a, v)]
        samples.append([p.evaluate(point) for p in f.coords])
    third = []
    for i in range(len(f.coords)):
        coeffs = interpolate(ts, [s[i] for s in samples])
        third.append(6 * coeffs[3] if len(coeffs) > 3 else Fraction(0))
    return third


def check_towers(rd, n: int, map_text: str, degree: int, outputs: dict[str, str],
                 seed: str) -> list[str]:
    """Spot-check the printed forward and reverse order-3 towers of one map.

    ``outputs`` maps a mode to the stdout of ``derive --order 3 --json``.
    Returns a list of failure messages, empty when both checks pass.
    """
    rng = random.Random(seed)
    a = [rng.choice(POINT_VALUES) for _ in range(n)]
    v = [rng.choice(POINT_VALUES) for _ in range(n)]
    w = [rng.choice(POINT_VALUES) for _ in range(n)]
    f = rd.syntax.parse_map(map_text, [n])
    expect = third_directional(f, a, v, degree)
    errors = []

    fwd = json.loads(outputs["forward"])
    d3 = rd.syntax.parse_map(fwd["map"], fwd["domain_blocks"])
    got = [p.evaluate(a + v + v + v) for p in d3.coords]
    if got != expect:
        errors.append("forward tower at (a, v, v, v) differs from p'''(0)")

    rev = json.loads(outputs["reverse"])
    r3 = rd.syntax.parse_map(rev["map"], rev["domain_blocks"])
    lhs = sum((vi * p.evaluate(a + w + v + v) for vi, p in zip(v, r3.coords)), Fraction(0))
    rhs = sum((wi * e for wi, e in zip(w, expect)), Fraction(0))
    if lhs != rhs:
        errors.append(f"<v, R3(a, w, v, v)> = {lhs} but <w, p'''(0)> = {rhs}")
    return errors
