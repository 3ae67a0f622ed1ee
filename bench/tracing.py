"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each ``revderiv`` layer
with timing wrappers, in every module namespace that holds the function (a
name imported with ``from .maps import compose`` is a separate binding), and
wraps the ``Polynomial`` methods on the class.  ``uninstall`` puts the
originals back.  Each span records calls, inclusive time and self time (its
duration minus the durations of the spans it directly contains); counters
for work done are taken at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable

COMBINATORS = ("reverse_derivative", "forward_derivative", "partial_reverse",
               "partial_forward", "dagger", "is_dlinear")
TOWERS = ("reverse_tower", "forward_tower")

# spans reported with calls and self time, spans reported with self time only,
# and counters reported as they are
CALLS_AND_SELF = (
    ("poly.mul", "poly.add", "poly.partial", "poly.substitute")
    + tuple(f"combinators.{name}" for name in COMBINATORS)
    + tuple(f"towers.{name}" for name in TOWERS)
    + ("partitions.enumerate", "faa_di_bruno.fdb_report", "laws.run_suite", "syntax.parse_map")
)
SELF_ONLY = ("poly.str", "faa_di_bruno.to_json", "corpus", "cli.main")
COUNTED = ("poly.mul.term_pairs", "towers.cache_entries_max",
           "partitions.enumerate.partitions_out", "faa_di_bruno.fdb_report.summands",
           "laws.run_suite.cases")


def bell(n: int) -> int:
    """Bell number by the Bell triangle, independent of the partitions module."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _is_routing(inner) -> bool:
    """True when every coordinate of the inner map is one variable or zero."""
    for p in inner.coords:
        if not p.terms:
            continue
        if len(p.terms) != 1:
            return False
        mono, c = p.terms[0]
        if c != 1 or sum(mono) != 1:
            return False
    return True


class Tracer:
    def __init__(self, rd):
        self.rd = rd
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.errors: list[str] = []
        self.root_s = 0.0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str | Callable[[tuple], str], fn: Callable,
              account: Callable[[tuple, object], None] | None = None) -> Callable:
        stack, calls, selfs, incl = self._stack, self.calls, self.self_s, self.incl_s
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args)
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                child = stack.pop()
                calls[span] += 1
                incl[span] += dur
                selfs[span] += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    tracer.root_s += dur
            if account is not None:
                account(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _tower(self, name: str, lru) -> Callable:
        inner = self._wrap(name, lru)
        counts = self.counts

        def wrapper(f, order):
            misses = lru.cache_info().misses
            result = inner(f, order)
            if lru.cache_info().misses == misses:
                counts[name + ".hits"] += 1
            return result

        wrapper.cache_info = lru.cache_info
        wrapper.cache_clear = lru.cache_clear
        wrapper.__wrapped__ = lru
        return wrapper

    # -- accounting hooks ----------------------------------------------------------

    def _mul(self, args, result) -> None:
        a, b = args
        if isinstance(b, self.rd.poly.Polynomial):
            self.counts["poly.mul.term_pairs"] += len(a.terms) * len(b.terms)

    def _compose(self, args, result) -> None:
        g, _ = args
        self.counts["maps.compose.calls"] += 1
        self.counts["maps.compose.substitutions"] += len(g.coords)

    def _partitions(self, args, result) -> None:
        (n,) = args
        self.counts["partitions.enumerate.partitions_out"] += len(result)
        if len(result) != bell(n):
            self.errors.append(f"enumerate_partitions({n}) gave {len(result)}, Bell is {bell(n)}")

    def _fdb(self, args, result) -> None:
        n = args[2]
        self.counts["faa_di_bruno.fdb_report.summands"] += len(result.summands)
        if len(result.summands) != bell(n + 1):
            self.errors.append(f"fdb_report n={n} has {len(result.summands)} summands, "
                               f"Bell({n + 1}) is {bell(n + 1)}")

    def _suite(self, args, result) -> None:
        self.counts["laws.run_suite.cases"] += result.cases * len(result.laws)

    # -- install / uninstall -----------------------------------------------------------

    def _patch_everywhere(self, original: Callable, wrapper: Callable) -> None:
        hit = False
        for modname, mod in list(sys.modules.items()):
            if modname != "revderiv" and not modname.startswith("revderiv."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    hit = True
        if not hit:
            raise RuntimeError(f"no module holds {original!r}")

    def _patch_method(self, cls, attr: str, span: str, account=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(span, original, account))

    def install(self) -> None:
        rd = self.rd
        poly = rd.poly.Polynomial
        self._patch_method(poly, "__mul__", "poly.mul", self._mul)
        self._patch_method(poly, "__add__", "poly.add")
        self._patch_method(poly, "partial", "poly.partial")
        self._patch_method(poly, "substitute", "poly.substitute")
        self._patch_method(poly, "__str__", "poly.str")
        self._patch_method(rd.faa_di_bruno.FdbReport, "to_json", "faa_di_bruno.to_json")

        def compose_span(args) -> str:
            return "maps.compose_routing" if _is_routing(args[1]) else "maps.compose_subst"

        wrapped = [
            (rd.maps.compose, self._wrap(compose_span, rd.maps.compose, self._compose)),
            (rd.partitions.enumerate_partitions,
             self._wrap("partitions.enumerate", rd.partitions.enumerate_partitions,
                        self._partitions)),
            (rd.faa_di_bruno.fdb_report,
             self._wrap("faa_di_bruno.fdb_report", rd.faa_di_bruno.fdb_report, self._fdb)),
            (rd.laws.run_suite, self._wrap("laws.run_suite", rd.laws.run_suite, self._suite)),
            (rd.syntax.parse_map, self._wrap("syntax.parse_map", rd.syntax.parse_map)),
            (rd.cli.main, self._wrap("cli.main", rd.cli.main)),
        ]
        for name in COMBINATORS:
            fn = getattr(rd.combinators, name)
            wrapped.append((fn, self._wrap(f"combinators.{name}", fn)))
        for name in TOWERS:
            lru = getattr(rd.towers, name)
            wrapped.append((lru, self._tower(f"towers.{name}", lru)))
        for name, fn in vars(rd.corpus).items():
            if name.startswith("random_") and callable(fn):
                wrapped.append((fn, self._wrap("corpus", fn)))
        for original, wrapper in wrapped:
            self._patch_everywhere(original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-operation bookkeeping ----------------------------------------------------

    def after_op(self) -> None:
        """Fold the tower caches' own statistics in before they are cleared."""
        entries = 0
        for name in TOWERS:
            info = getattr(self.rd.towers, name).cache_info()
            self.counts[f"towers.{name}.lru_hits"] += info.hits
            self.counts[f"towers.{name}.lru_misses"] += info.misses
            entries += info.currsize
        self.counts["towers.cache_entries_max"] = max(
            self.counts["towers.cache_entries_max"], entries)

    # -- results ------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics for one traced pass."""
        calls, selfs, counts = self.calls, self.self_s, self.counts
        m: dict[str, float] = {}
        for span in CALLS_AND_SELF:
            m[f"{span}.calls"] = calls[span]
            m[f"{span}.self_s"] = selfs[span]
        for span in SELF_ONLY:
            m[f"{span}.self_s"] = selfs[span]
        for name in COUNTED:
            m[name] = counts[name]
        for span in ("maps.compose_routing", "maps.compose_subst"):
            m[f"{span}.calls"] = calls[span]
            m[f"{span}.incl_s"] = self.incl_s[span]
        composes = calls["maps.compose_routing"] + calls["maps.compose_subst"]
        m["maps.routing_share"] = calls["maps.compose_routing"] / composes if composes else 0.0
        for name in TOWERS:
            span = f"towers.{name}"
            m[f"{span}.hit_ratio"] = counts[f"{span}.hits"] / calls[span] if calls[span] else 0.0
        return m

    def consistency_errors(self, traced_wall_s: float) -> list[str]:
        """The checks that the spans and counters add up."""
        c, calls = self.counts, self.calls
        errors = list(self.errors)
        routing, subst = calls["maps.compose_routing"], calls["maps.compose_subst"]
        if routing + subst != c["maps.compose.calls"]:
            errors.append(f"routing {routing} + substitution {subst} composes "
                          f"!= {c['maps.compose.calls']} composes")
        # compose is the only caller of substitute: every call must have been seen
        if calls["poly.substitute"] != c["maps.compose.substitutions"]:
            errors.append(f"{calls['poly.substitute']} substitutions, but composes "
                          f"account for {c['maps.compose.substitutions']}")
        for name in TOWERS:
            span = f"towers.{name}"
            hits, misses = c[f"{span}.lru_hits"], c[f"{span}.lru_misses"]
            if hits + misses != calls[span]:
                errors.append(f"{span}: cache hits {hits} + misses {misses} != calls {calls[span]}")
            if hits != c[f"{span}.hits"]:
                errors.append(f"{span}: cache reports {hits} hits, spans saw {c[f'{span}.hits']}")
        self_sum = sum(self.self_s.values())
        if abs(self_sum - self.root_s) > 1e-6 * max(1.0, self.root_s):
            errors.append(f"self times sum to {self_sum:.6f} s, outermost spans to {self.root_s:.6f} s")
        if self.root_s > traced_wall_s:
            errors.append(f"spans cover {self.root_s:.6f} s of a {traced_wall_s:.6f} s pass")
        return errors
