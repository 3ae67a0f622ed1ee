"""The law-suite runner: determinism, report schema, failure plumbing."""

import json
import random

import pytest

from revderiv import laws
from revderiv.corpus import CorpusConfig
from revderiv.faa_di_bruno import FdbReport
from revderiv.laws import LAWS, SUITE_NAMES, LawFailure, run_suite
from revderiv.maps import identity
from revderiv.partitions import enumerate_partitions


def test_every_suite_green_on_small_corpus():
    cfg = CorpusConfig()
    for name in SUITE_NAMES:
        report = run_suite(name, seed=7, cases=5, config=cfg)
        assert report.ok, [f.law for f in report.failures]
        assert report.suite == name
        assert report.laws == [law_id for law_id, _, _ in LAWS[name]]


def test_alternate_seed_and_shape_limits():
    cfg = CorpusConfig(max_dim=2, max_degree=2, max_order=2)
    for name in SUITE_NAMES:
        assert run_suite(name, seed=12345, cases=3, config=cfg).ok


def test_bell_numbers_from_the_triangle():
    assert [laws.bell(n) for n in range(12)] == [
        1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570]


@pytest.mark.parametrize("suite", ["fdb-forward", "fdb-reverse"])
def test_fdb_suites_count_summands_past_the_cli_cap(suite):
    # the summand count check needs Bell(6) at max_order 5
    report = run_suite(suite, cases=1, config=CorpusConfig(max_order=5))
    assert report.ok, [f.law for f in report.failures]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense")


def test_report_json_schema():
    report = run_suite("rd-axioms", seed=3, cases=2)
    payload = report.to_json()
    assert set(payload) == {"suite", "seed", "cases", "failures", "elapsed_ms"}
    assert payload["suite"] == "rd-axioms"
    assert payload["seed"] == 3
    assert payload["cases"] == 2
    assert payload["failures"] == []
    assert isinstance(payload["elapsed_ms"], int)
    json.dumps(payload)  # serializable


def test_reports_are_deterministic_for_fixed_seed():
    a = run_suite("dagger", seed=11, cases=4).to_json()
    b = run_suite("dagger", seed=11, cases=4).to_json()
    a["elapsed_ms"] = b["elapsed_ms"] = 0
    assert json.dumps(a) == json.dumps(b)


def test_failure_record_shape():
    # wire a deliberately broken law through the runner to check reporting
    def broken(law: str, cfg: CorpusConfig):
        return LawFailure(law, ["(x1)"], "(x1)", "(x2)")

    LAWS["_synthetic"] = [("broken", lambda rng, cfg: (), broken)]
    try:
        report = run_suite("_synthetic", seed=1, cases=3)
    finally:
        del LAWS["_synthetic"]
    assert not report.ok
    assert len(report.failures) == 3
    payload = report.to_json()
    assert payload["failures"][0] == {
        "law": "broken", "maps": ["(x1)"], "lhs": "(x1)", "rhs": "(x2)",
    }


def test_run_suites_order_preserved():
    reports = [run_suite(name, seed=2, cases=1) for name in ["stable", "rd-axioms"]]
    assert [r.suite for r in reports] == ["stable", "rd-axioms"]


def test_dagger_partial_failures_carry_its_own_id(monkeypatch):
    # a broken transpose makes the law fail on every case: dagger-partial runs
    # the transpose of the forward derivative that rd6 shares
    monkeypatch.setattr(laws, "dagger", lambda f, j: identity(1))
    monkeypatch.setitem(LAWS, "dagger", [e for e in LAWS["dagger"] if e[0] == "dagger-partial"])
    report = run_suite("dagger", seed=1, cases=3)
    assert [f.law for f in report.failures] == ["dagger-partial"] * 3


@pytest.mark.parametrize("mode", ["forward", "reverse"])
def test_fdb_failures_carry_the_mode_in_their_id(monkeypatch, mode):
    def fake_report(plan, total):
        # a report of the partitions in plan, each the one shape's representative
        oracle, reps = identity(1), (((1,), identity(1)),)
        return lambda f, g, n, m: FdbReport(m, n, f, g, plan, reps, total, oracle,
                                            None if total == oracle else "differs")

    monkeypatch.setitem(LAWS, f"fdb-{mode}", LAWS[f"fdb-{mode}"][:1])
    # a wrong summand count is reported before the totals are compared
    monkeypatch.setattr(laws, "fdb_report", fake_report((), identity(1)))
    failures = run_suite(f"fdb-{mode}", seed=1, cases=2).failures
    assert [f.law for f in failures] == [f"fdb-{mode}-count"] * 2
    assert (failures[0].lhs, failures[0].rhs) == ("0", "1")
    # the right count with an unequal total
    entry = (enumerate_partitions(1)[0], (1,), None)
    monkeypatch.setattr(laws, "fdb_report", fake_report((entry,), identity(1).scale(2)))
    failures = run_suite(f"fdb-{mode}", seed=1, cases=2).failures
    assert [f.law for f in failures] == [f"fdb-{mode}"] * 2
    assert (failures[0].lhs, failures[0].rhs) == ("(2*x1)", "(x1)")


def test_every_law_reports_under_its_own_id(monkeypatch):
    # every comparison fails, so each law reports the id it passes along
    calls = []

    def fail(law, *_):
        calls.append(law)
        return LawFailure(law, [], "", "")

    monkeypatch.setattr(laws, "_cmp", fail)
    monkeypatch.setattr(laws, "_flag", fail)
    cfg = CorpusConfig()
    failed = set()
    for suite, entries in LAWS.items():
        for law_id, draw, check in entries:
            calls.clear()
            failure = check(law_id, cfg, *draw(random.Random(f"0/{law_id}"), cfg))
            # no check runs after the first failure
            assert len(calls) == 1, (suite, law_id, calls)
            if failure is not None:
                assert failure.law in (law_id, f"{law_id}-count"), (suite, law_id)
                failed.add(law_id)
    # every law builds its failures through _cmp or _flag, so every law reached them
    assert failed == {law_id for entries in LAWS.values() for law_id, _, _ in entries}
