"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with ``-s`` to
see them).  Every comparison is an exact equality of canonical polynomial
maps; there are no numeric tolerances anywhere.  Corpus shapes: block
dimensions up to 3, degree up to 3, coefficients in {-3..3, 1/2}, seeded.
"""

import json
import random
import re
import time

from revderiv import cli
from revderiv.combinators import dagger
from revderiv.corpus import CorpusConfig, random_composable_pair, random_map, random_profile
from revderiv.faa_di_bruno import fdb_report
from revderiv.laws import (
    LAWS,
    LawFailure,
    _chain_rhs,
    law_ctx_rd1,
    law_ctx_rd2,
    law_ctx_rd3,
    law_ctx_rd4,
    law_ctx_rd5,
    law_ctx_rd6,
    law_ctx_rd7,
    law_ctx_tuple,
    law_dagger_base_independence,
    law_dagger_bridge,
    law_dagger_contravariance,
    law_dagger_involution,
    law_dagger_partial,
    law_rd1,
    law_rd2,
    law_rd3,
    law_rd4,
    law_rd5,
    law_rd6,
    law_rd7,
    law_stable,
    law_stable_context,
    law_tower_dlinear,
    law_tower_symmetry,
)
from revderiv.maps import ArityProfile, compose, pair, select_blocks
from revderiv.syntax import parse_map
from revderiv.towers import forward_tower, reverse_tower

SEED = 42
CFG = CorpusConfig(max_dim=3, max_degree=3, max_order=3)


def _verdict(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _run_law(law, law_id, cases):
    rng = random.Random(f"{SEED}/{law_id}")
    failures = []
    for _ in range(cases):
        failure = law(rng, CFG)
        if failure is not None:
            failures.append(failure)
    return failures


def test_criterion_1_rd_axioms():
    laws = [
        ("rd1", law_rd1), ("rd2", law_rd2), ("rd3", law_rd3), ("rd4", law_rd4),
        ("rd5", law_rd5), ("rd6", law_rd6), ("rd7", law_rd7),
    ]
    start = time.perf_counter()
    failures = []
    for law_id, law in laws:
        failures += _run_law(law, law_id, 100)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _verdict(f"1 seven axioms, 100 cases each, exact ({elapsed:.1f}s)", ok)


def test_criterion_2_context_suite():
    laws = [
        ("ctx-rd1", law_ctx_rd1), ("ctx-rd2", law_ctx_rd2), ("ctx-rd3", law_ctx_rd3),
        ("ctx-rd4", law_ctx_rd4), ("ctx-rd5", law_ctx_rd5), ("ctx-rd6", law_ctx_rd6),
        ("ctx-rd7", law_ctx_rd7), ("ctx-tuple", law_ctx_tuple),
    ]
    failures = []
    for law_id, law in laws:
        failures += _run_law(law, law_id, 50)
    _verdict("2 context identities with nonzero contexts, 50 cases each", not failures)


def test_criterion_3_dagger_suite():
    laws = [
        ("dagger-contravariance", law_dagger_contravariance),
        ("dagger-base-independence", law_dagger_base_independence),
        ("dagger-partial", law_dagger_partial),
        ("dagger-involution", law_dagger_involution),
    ]
    failures = []
    for law_id, law in laws:
        failures += _run_law(law, law_id, 50)
    _verdict("3 transpose laws and involution, 50 cases each", not failures)


def test_criterion_4_stable_rule():
    failures = _run_law(law_stable, "stable", 100)
    failures += _run_law(law_stable_context, "stable-context", 100)
    _verdict("4 stable rule, plain and in context, 100 cases each", not failures)


def test_criterion_5_tower_transpose_bridge():
    rng = random.Random(f"{SEED}/bridge")
    bad = 0
    for _ in range(50):
        f, g = random_composable_pair(rng, CFG)
        h = compose(g, f)
        for target in (f, h):
            for order in range(1, 5):  # orders 1..4
                if dagger(forward_tower(target, order), 2) != reverse_tower(target, order):
                    bad += 1
    failures = _run_law(law_dagger_bridge, "dagger-bridge", 50)
    _verdict("5 forward-tower transpose equals reverse tower, orders 1..4, 50 cases",
             bad == 0 and not failures)


def test_criterion_6_forward_partition_sum():
    rng = random.Random(f"{SEED}/fdb-forward")
    start = time.perf_counter()
    bad = 0
    for _ in range(50):
        f, g = random_composable_pair(rng, CFG)
        for n in range(4):
            rep = fdb_report(f, g, n, "forward")
            if not rep.equal:
                bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 120.0
    _verdict(f"6 forward partition sum = iterated tower, n=0..3, 50 pairs ({elapsed:.1f}s)", ok)


def test_criterion_7_reverse_partition_sum():
    rng = random.Random(f"{SEED}/fdb-reverse")
    bad = 0
    for _ in range(50):
        f, g = random_composable_pair(rng, CFG)
        for n in range(4):
            rep = fdb_report(f, g, n, "reverse")
            if not rep.equal:
                bad += 1
        # n=0 must be the reverse chain rule, byte for byte
        rep0 = fdb_report(f, g, 0, "reverse")
        if str(rep0.total) != str(_chain_rhs(f, g, 1)):
            bad += 1
    bad += 0 if _two_summand_display_matches() else 1
    _verdict("7 reverse partition sum = iterated tower, n=0..3, 50 pairs", bad == 0)


def _two_summand_display_matches():
    """Term-by-term check of the displayed two-summand second-derivative form."""
    rng = random.Random(f"{SEED}/display")
    for _ in range(10):
        f, g = random_composable_pair(rng, CFG)
        rep = fdb_report(f, g, 1, "reverse")
        dom = ArityProfile((f.domain.total, g.codomain_dim, f.domain.total))
        a0, b, a2 = (select_blocks(dom, [k]) for k in (1, 2, 3))
        base = compose(f, a0)
        push = compose(forward_tower(f, 1), pair([a0, a2]))
        s1 = compose(reverse_tower(f, 1), pair([a0, compose(reverse_tower(g, 2), pair([base, b, push]))]))
        s2 = compose(reverse_tower(f, 2), pair([a0, compose(reverse_tower(g, 1), pair([base, b])), a2]))
        if [str(p.partition) for p in rep.summands] != ["{1}|{2}", "{1,2}"]:
            return False
        if rep.summands[0].result != s1 or rep.summands[1].result != s2:
            return False
    return True


def test_criterion_8_summand_counts():
    f = parse_map("(x1^2 + x1)")
    g = parse_map("(2*x1^3 - x1)")
    counts = [len(fdb_report(f, g, n, "reverse").summands) for n in range(4)]
    _verdict("8 reverse summand counts are 1, 2, 5, 15 for n=0..3", counts == [1, 2, 5, 15])


def test_criterion_9_tower_symmetry_and_linearity():
    failures = _run_law(law_tower_symmetry, "tower-symmetry", 30)
    failures += _run_law(law_tower_dlinear, "tower-dlinear", 30)
    _verdict("9 forward tower symmetric and D-linear in its vector blocks, 30 cases",
             not failures)


def test_criterion_10_cli_contract(capsys, monkeypatch):
    # round-trip on 1000 generated maps
    rng = random.Random(f"{SEED}/roundtrip")
    trips = 0
    for _ in range(1000):
        prof = random_profile(rng, CFG)
        m = random_map(rng, prof, rng.randint(0, 3), CFG.max_degree)
        if parse_map(str(m), blocks=prof.blocks) == m:
            trips += 1
    # byte-identical reports for a fixed seed (wall-clock field normalized)
    args = ["verify", "--suite", "dagger", "--cases", "3", "--seed", "8", "--json"]
    assert cli.main(list(args)) == 0
    first = capsys.readouterr().out
    assert cli.main(list(args)) == 0
    second = capsys.readouterr().out
    scrub = lambda s: re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', s)
    deterministic = scrub(first) == scrub(second) and json.loads(first)["seed"] == 8
    # documented exit codes: 0 ok, 1 law failure, 2 usage/parse error
    ok0 = cli.main(["derive", "--map", "(x1^2)"]) == 0
    ok2 = cli.main(["derive", "--map", "(x1^"]) == 2
    monkeypatch.setitem(
        LAWS, "rd-axioms",
        [("broken", lambda rng, cfg: LawFailure("broken", ["(x1)"], "(x1)", "(x2)"))],
    )
    ok1 = cli.main(["verify", "--suite", "rd-axioms", "--cases", "1"]) == 1
    capsys.readouterr()
    _verdict("10 CLI round-trip (1000 maps), determinism, exit codes",
             trips == 1000 and deterministic and ok0 and ok1 and ok2)
