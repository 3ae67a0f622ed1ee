"""Mutants of the derivative kernel against the law checks.

Each law's check runs on the inputs its own draw produced, as ``run_suite``
runs it, so the failures seen here are those of ``verify``.  A mutant is
applied with ``monkeypatch``; the tower caches are emptied around each run,
so that no tower built under one kernel is read under another.
"""

import random

import pytest

from revderiv import combinators
from revderiv.combinators import _partial
from revderiv.corpus import CorpusConfig
from revderiv.laws import LAWS, run_suite
from revderiv.towers import forward_tower, reverse_tower

SEED, CASES = 0, 10


def _clear_towers():
    for tower in (reverse_tower, forward_tower):
        tower.cache_clear()


@pytest.fixture(autouse=True)
def fresh_towers():
    _clear_towers()
    yield
    _clear_towers()


def _scaled_above_one(f, j, reverse, order=1):
    """The kernel with every derivative of order 2 or more doubled."""
    d = _partial(f, j, reverse, order)
    return d.scale(2) if order >= 2 else d


def _checked_on_own_draws():
    """Per suite, the failures of each law's check on the inputs its draw
    produced, CASES cases at SEED, in the order ``run_suite`` reports them."""
    cfg = CorpusConfig()
    failures = {}
    for suite, entries in LAWS.items():
        found = failures[suite] = {}
        for law_id, draw, check in entries:
            rng = random.Random(f"{SEED}/{law_id}")
            found[law_id] = [fail for fail in (check(law_id, cfg, *draw(rng, cfg))
                                               for _ in range(CASES)) if fail is not None]
    return failures


def _failing_laws(monkeypatch, kernel):
    """The laws whose checks fail on their own draws under the kernel,
    after asserting that ``run_suite`` gives every suite the same verdict."""
    monkeypatch.setattr(combinators, "_partial", kernel)
    checked = _checked_on_own_draws()
    _clear_towers()
    for suite, found in checked.items():
        report = run_suite(suite, SEED, CASES)
        assert report.laws == list(found), suite
        assert report.law_failures == [len(fails) for fails in found.values()], suite
        assert report.failures == [fail for fails in found.values() for fail in fails], suite
    return {law_id for found in checked.values() for law_id, fails in found.items() if fails}


def test_the_unmutated_kernel_passes_every_check(monkeypatch):
    assert _failing_laws(monkeypatch, _partial) == set()


def test_a_kernel_doubled_above_order_one_fails_the_higher_order_laws(monkeypatch):
    # the first-order laws never call the kernel above order 1; the towers of
    # dagger-bridge, tower-symmetry, tower-dlinear, tower-klinear-covector and
    # degree-bound are a scaled kernel throughout, so their identities still hold
    assert _failing_laws(monkeypatch, _scaled_above_one) == {
        "second-reverse", "tower-bridge", "fdb-forward", "fdb-reverse"}
