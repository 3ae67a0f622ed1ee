"""The command-line contract: outputs, exit codes, determinism."""

import gc
import json
import math
import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from revderiv import cli, faa_di_bruno, laws
from revderiv.faa_di_bruno import FdbReport, fdb_report
from revderiv.laws import LAWS, LawFailure, LawReport
from revderiv.maps import ArityProfile, zero_map
from revderiv.syntax import parse_map


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- derive -------------------------------------------------------------------


def test_derive_second_reverse_of_cube(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "--map", "(x1^3)", "--blocks", "1",
        "--order", "2", "--mode", "reverse",
    )
    assert code == 0
    assert out.strip() == "(6*x1*x2*x3)"


def test_derive_reverse_of_identity(capsys):
    code, out, _ = run_cli(capsys, "derive", "--map", "(x1)", "--order", "1",
                           "--mode", "reverse")
    assert code == 0
    assert out.strip() == "(x2)"


def test_derive_order_zero_echoes_canonical_form(capsys):
    code, out, _ = run_cli(capsys, "derive", "--map", "( 1*x1 + 0 + x1 )", "--order", "0")
    assert code == 0
    assert out.strip() == "(2*x1)"


def test_derive_partial(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "--map", "(x1*x2)", "--blocks", "1,1",
        "--order", "1", "--partial", "1",
    )
    assert code == 0
    assert out.strip() == "(x2*x3)"


def test_derive_forward_mode(capsys):
    code, out, _ = run_cli(capsys, "derive", "--map", "(x1^3)", "--order", "2",
                           "--mode", "forward")
    assert code == 0
    assert out.strip() == "(6*x1*x2*x3)"


def test_derive_json(capsys):
    code, out, _ = run_cli(capsys, "derive", "--map", "(x1^2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"map": "(2*x1*x2)", "domain_blocks": [1, 1], "codomain_dim": 1}


def test_derive_parse_error_exits_2_with_caret(capsys):
    code, _, err = run_cli(capsys, "derive", "--map", "(x1^)")
    assert code == 2
    lines = err.strip().splitlines()
    assert lines[0].startswith("error:")
    assert lines[-1].strip() == "^"
    assert lines[-1].index("^") == 4


def test_derive_past_the_coordinate_cap_exits_2(capsys, monkeypatch):
    # a variable past the cap is a parse error at that variable
    code, out, err = run_cli(capsys, "derive", "--map", "(x1 + x999999999)")
    assert code == 2 and out == ""
    assert "x999999999 exceeds the cap of 1000 coordinates" in err
    assert err.splitlines()[-1].index("^") == 6

    # declared blocks past the cap are refused before anything is parsed
    def no_parse(source, blocks=None):
        raise AssertionError("a map was parsed past the cap")

    monkeypatch.setattr(cli, "parse_map", no_parse)
    for blocks in ("1000000000", "500,501"):
        code, out, err = run_cli(capsys, "derive", "--map", "(x1)", "--blocks", blocks)
        assert code == 2 and out == ""
        assert f"--blocks total {sum(map(int, blocks.split(',')))} exceeds the cap 1000" in err


def test_derive_echoes_integers_of_any_length(capsys):
    # past the interpreter's default 4,300-digit limit on int/str conversions,
    # which the CLI leaves as it is
    text = "(" + "7" * 5000 + ")"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run_cli(capsys, "derive", "--map", text, "--order", "0")
    assert (code, out, err) == (0, text + "\n", "")
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_derive_multi_block_total_rejected(capsys):
    code, _, err = run_cli(capsys, "derive", "--map", "(x1*x2)", "--blocks", "1,1")
    assert code == 2
    assert "single-block" in err


@pytest.mark.parametrize("mode", ["reverse", "forward"])
def test_derive_partial_at_every_order(capsys, mode):
    # block 2 of f is (x2, x3); the covector of the reverse mode is x4
    code, out, err = run_cli(capsys, "derive", "--map", "(x1^2*x2^3 + x1*x3)", "--blocks", "1,2",
                             "--partial", "2", "--order", "2", "--mode", mode, "--json")
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "reverse": {"map": "(6*x1^2*x2*x4*x5, 0)", "domain_blocks": [1, 2, 1, 2], "codomain_dim": 2},
        "forward": {"map": "(6*x1^2*x2*x4*x6)", "domain_blocks": [1, 2, 2, 2], "codomain_dim": 1},
    }[mode]
    code, out, _ = run_cli(capsys, "derive", "--map", "(x1*x2)", "--blocks", "1,1",
                           "--order", "2", "--partial", "1", "--mode", mode)
    assert (code, out) == (0, "(0)\n")


def test_derive_order_zero_echoes_a_multi_block_map(capsys):
    # with or without --partial J, order 0 is the map on its declared blocks
    for partial in ((), ("--partial", "1")):
        code, out, err = run_cli(capsys, "derive", "--map", "(x1*x2)", "--blocks", "1,1",
                                 "--order", "0", *partial)
        assert (code, out, err) == (0, "(x1*x2)\n", "")
    code, out, _ = run_cli(capsys, "derive", "--map", "(x1*x2)", "--blocks", "1,1",
                           "--order", "0", "--json")
    assert json.loads(out) == {"map": "(x1*x2)", "domain_blocks": [1, 1], "codomain_dim": 1}


@pytest.mark.parametrize("mode", ["reverse", "forward"])
def test_derive_order_far_above_degree_is_zero(capsys, mode):
    code, out, err = run_cli(capsys, "derive", "--map", "(x1^2)", "--order", "2000",
                             "--mode", mode, "--json")
    assert code == 0 and err == ""
    # (n, m) + (n,) * 1999 and (n,) * 2001 coincide for n = m = 1
    assert json.loads(out) == {"map": "(0)", "domain_blocks": [1] * 2001, "codomain_dim": 1}


@pytest.mark.parametrize("mode", ["reverse", "forward"])
def test_derive_order_over_the_cap_builds_no_tower(capsys, monkeypatch, mode):
    def no_derivative(f, j, order):
        raise AssertionError("a derivative was taken past the cap")

    monkeypatch.setattr(cli, "partial_reverse", no_derivative)
    monkeypatch.setattr(cli, "partial_forward", no_derivative)
    code, out, err = run_cli(capsys, "derive", "--map", "(x1^2)",
                             "--order", str(cli.DEFAULT_ORDER_CAP + 1), "--mode", mode)
    assert code == 2 and out == ""
    assert "--order 2001 exceeds the cap 2000" in err


@pytest.mark.parametrize("mode", ["reverse", "forward"])
def test_derive_deep_tower_below_the_degree(capsys, mode):
    # a tower order deeper than the interpreter's recursion limit allows
    # when each order recurses into the one below it; at the order cap the
    # coefficient 2000! has 5,736 digits and the map more coordinates than
    # the parser reads back, so the one term is read off the text
    for order in (600, 2000):
        code, out, err = run_cli(capsys, "derive", "--map", f"(x1^{order})",
                                 "--order", str(order), "--mode", mode)
        assert code == 0 and err == ""
        term = re.fullmatch(r"\((\d+)(\*x\d+)+\)\n", out)
        # Decimal reads a number past the interpreter's int/str digit limit
        assert term and int(Decimal(term[1])) == math.factorial(order)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no limit on int/str conversions")
def test_derive_leaves_the_int_str_limit_as_it_is(capsys, monkeypatch):
    # under the default 4,300-digit limit, which the CLI must not change
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)

    def refuse(digits):
        raise AssertionError("the CLI changed the interpreter's int/str digit limit")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    try:
        long = "7" * 5000
        text = f"({long}*x1^{long} + 1/{long})"
        assert run_cli(capsys, "derive", "--map", text, "--order", "0") == (0, text + "\n", "")
        code, out, err = run_cli(capsys, "derive", "--map", "(x1^2000)", "--order", "2000")
        assert code == 0 and err == ""
        vectors = "*".join(f"x{i}" for i in range(2, 2002))
        assert out == f"({Decimal(math.factorial(2000))}*{vectors})\n"
    finally:
        monkeypatch.undo()
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("mode", ["reverse", "forward"])
@pytest.mark.parametrize("text", ["(x1^2*x2 - x3, 3, x2^3)", "(x1^2)", "(2, 1/2)", "()"])
def test_derive_past_the_degree_prints_the_zero_map(capsys, mode, text):
    # two orders above the degree every derivative vanishes; the shape is the
    # tower's: reverse (n, m, n, ..., n) -> n, forward (n, ..., n) -> m
    f = parse_map(text)
    n, m, order = f.domain.total, f.codomain_dim, f.max_degree() + 2
    if mode == "reverse":
        expected = zero_map(ArityProfile((n, m) + (n,) * (order - 1)), n)
    else:
        expected = zero_map(ArityProfile((n,) * (order + 1)), m)
    code, out, _ = run_cli(capsys, "derive", "--map", text, "--order", str(order),
                           "--mode", mode)
    assert code == 0
    assert out == "(" + ", ".join(["0"] * expected.codomain_dim) + ")\n"
    code, out, _ = run_cli(capsys, "derive", "--map", text, "--order", str(order),
                           "--mode", mode, "--json")
    assert code == 0
    assert json.loads(out) == {"map": str(expected),
                               "domain_blocks": list(expected.domain.blocks),
                               "codomain_dim": expected.codomain_dim}


def test_derive_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("(x1^2)\n"))
    code, out, _ = run_cli(capsys, "derive", "--map", "-")
    assert code == 0
    assert out.strip() == "(2*x1*x2)"


# -- partitions -----------------------------------------------------------------


def test_partitions_two(capsys):
    code, out, _ = run_cli(capsys, "partitions", "2")
    assert code == 0
    assert out.splitlines() == ["{1}|{2}", "{1,2}", "count 2"]


def test_partitions_four_count(capsys):
    code, out, _ = run_cli(capsys, "partitions", "4")
    assert code == 0
    assert out.splitlines()[-1] == "count 15"


def test_partitions_one(capsys):
    code, out, _ = run_cli(capsys, "partitions", "1")
    assert code == 0
    assert out.splitlines() == ["{1}", "count 1"]


def test_partitions_zero_rejected(capsys):
    code, _, err = run_cli(capsys, "partitions", "0")
    assert code == 2
    assert "at least 1" in err


def test_partitions_cap(capsys):
    code, out, err = run_cli(capsys, "partitions", "11")
    assert code == 2 and out == ""
    assert "exceeds the cap 10" in err and "--max-n" in err
    code, _, err = run_cli(capsys, "partitions", "13", "--max-n", "12")
    assert code == 2
    assert "exceeds the cap 12" in err


def test_partitions_json(capsys):
    code, out, _ = run_cli(capsys, "partitions", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 2, "count": 2, "partitions": [[[1], [2]], [[1, 2]]]}


# -- verify -----------------------------------------------------------------------


def test_verify_stable_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "stable", "--cases", "3",
                           "--seed", "5")
    assert code == 0
    assert "suite stable" in out
    assert "failures" not in out.replace("0 failures", "")


def test_verify_json_schema_and_determinism(capsys):
    args = ("verify", "--suite", "rd-axioms", "--cases", "2", "--seed", "9", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert set(a) == {"suite", "seed", "cases", "failures", "elapsed_ms"}
    a["elapsed_ms"] = b["elapsed_ms"] = 0
    assert json.dumps(a) == json.dumps(b)


def test_verify_all_runs_every_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--cases", "1", "--seed", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [r["suite"] for r in payload] == list(cli.SUITE_NAMES)


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", "--suite", "imaginary")
    assert exc.value.code == 2


def test_verify_rejects_nonpositive_parameters(capsys):
    code, _, err = run_cli(capsys, "verify", "--cases", "0")
    assert code == 2 and "--cases" in err
    code, _, err = run_cli(capsys, "verify", "--max-dim", "-1")
    assert code == 2 and "--max-dim" in err


def test_verify_failure_exits_1(capsys, monkeypatch):
    def broken(rng: random.Random, cfg):
        return LawFailure("broken", ["(x1)"], "(x1)", "(x2)")

    monkeypatch.setitem(LAWS, "rd-axioms", [("broken", broken)])
    code, out, _ = run_cli(capsys, "verify", "--suite", "rd-axioms", "--cases", "2")
    assert code == 1
    assert "FAIL broken" in out


def test_verify_counts_each_failure_under_the_law_that_ran(capsys, monkeypatch):
    # a report missing a partition's summand fails under the finer id
    # fdb-{mode}-count, and its zero total fails fdb-reverse-base, whose id
    # extends fdb-reverse
    real = laws.fdb_report

    def short(f, g, n, mode):
        rep = real(f, g, n, mode)
        return FdbReport(rep.mode, rep.order, rep.f, rep.g, rep.plan[1:], rep.reps,
                         zero_map(rep.total.domain, rep.total.codomain_dim), rep.oracle,
                         rep.first_difference)

    monkeypatch.setattr(laws, "fdb_report", short)
    args = ("--cases", "2", "--seed", "42")
    code, out, _ = run_cli(capsys, "verify", "--suite", "fdb-forward", *args)
    assert code == 1
    assert ", 1 laws, 2 failures (" in out.splitlines()[0]
    assert out.splitlines()[1] == "  fdb-forward: 2 cases, 2 failures"
    assert out.count("  FAIL fdb-forward-count\n") == 2
    code, out, _ = run_cli(capsys, "verify", "--suite", "fdb-reverse", *args)
    assert code == 1
    assert ", 2 laws, 4 failures (" in out.splitlines()[0]
    assert out.splitlines()[1:4] == [
        "  fdb-reverse: 2 cases, 2 failures",
        "  fdb-reverse-base: 2 cases, 2 failures",
        "  FAIL fdb-reverse-count",
    ]
    # the failure ids in the JSON are the ones the laws reported
    code, out, _ = run_cli(capsys, "verify", "--suite", "fdb-reverse", *args, "--json")
    assert [f["law"] for f in json.loads(out)["failures"]] == ["fdb-reverse-count"] * 2 + [
        "fdb-reverse-base"] * 2


def test_verify_max_dim_is_capped_before_any_law_runs(capsys, monkeypatch):
    # three blocks of the largest dimension stay within the widest map derive accepts
    assert cli.MAX_DIM_CAP == 333
    ran = []

    def record(suite, seed, cases, cfg):
        ran.append(cfg.max_dim)
        return LawReport(suite, seed, cases, [], 0, [], [])

    monkeypatch.setattr(cli, "run_suite", record)
    code, out, err = run_cli(capsys, "verify", "--max-dim", "334")
    assert code == 2 and out == "" and ran == []
    assert "--max-dim 334 exceeds the cap 333" in err
    # the cap itself passes the check and reaches the suites
    code, _, _ = run_cli(capsys, "verify", "--suite", "stable", "--max-dim", "333")
    assert code == 0 and ran == [333]


def test_verify_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("RFDB_SEED", "77")
    code, out, _ = run_cli(capsys, "verify", "--suite", "rd-axioms", "--cases", "1",
                           "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 77
    # --seed overrides the environment
    code, out, _ = run_cli(capsys, "verify", "--suite", "rd-axioms", "--cases", "1",
                           "--seed", "3", "--json")
    assert json.loads(out)["seed"] == 3


def test_verify_rejects_non_integer_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("RFDB_SEED", "abc")
    code, out, err = run_cli(capsys, "verify", "--suite", "rd-axioms", "--cases", "1")
    assert code == 2 and out == ""
    assert "RFDB_SEED" in err and "'abc'" in err


def test_verify_max_order_cap_applies_to_fdb_suites(capsys):
    # the cap bounds the fdb laws' cost; their Bell counts are not tabulated, so the
    # library runs them past it (tests/test_laws.py)
    for suite in ("fdb-forward", "fdb-reverse", "all"):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-order", "5",
                                 "--cases", "1")
        assert code == 2 and out == ""
        assert "--max-order 5 exceeds the cap 4" in err
    code, _, _ = run_cli(capsys, "verify", "--suite", "stable", "--max-order", "5",
                         "--cases", "1")
    assert code == 0


# -- fdb ----------------------------------------------------------------------------


def test_fdb_reverse_two_summands(capsys):
    code, out, _ = run_cli(capsys, "fdb", "--f", "(x1^2)", "--g", "(x1^2)",
                           "--n", "1", "--mode", "reverse")
    assert code == 0
    assert "2 summands" in out
    assert "verdict: equal" in out


def test_fdb_n0_single_summand(capsys):
    code, out, _ = run_cli(capsys, "fdb", "--f", "(x1^2)", "--g", "(x1^2)",
                           "--n", "0", "--mode", "reverse")
    assert code == 0
    assert "1 summands" in out


def test_fdb_n2_five_summands_json(capsys):
    code, out, _ = run_cli(capsys, "fdb", "--f", "(x1^2)", "--g", "(x1^3)",
                           "--n", "2", "--mode", "reverse", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["summands"]) == 5
    assert payload["equal"] is True


def test_fdb_interface_mismatch_exits_2(capsys):
    # g reads x2, but f has a single output
    code, _, err = run_cli(capsys, "fdb", "--f", "(x1)", "--g", "(x1*x2)",
                           "--n", "0", "--mode", "forward")
    assert code == 2
    assert "compose" in err


@pytest.mark.parametrize("mode", ["forward", "reverse"])
def test_fdb_outer_map_may_ignore_trailing_inputs(capsys, mode):
    # g is read on f's two outputs even though it never uses x2
    for f_text, g_text in (("(x1, x1^2)", "(x1^2)"), ("(x1, x1)", "(x1)")):
        code, out, _ = run_cli(capsys, "fdb", "--f", f_text, "--g", g_text,
                               "--n", "1", "--mode", mode, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["equal"] is True and len(payload["summands"]) == 2


@pytest.mark.parametrize("mode, total", [("forward", 80), ("reverse", 48)])
def test_fdb_reports_a_total_that_differs_from_the_oracle(capsys, monkeypatch, mode, total):
    # a tower scaled by 2 scales every summand, so the total is not the
    # oracle's 12*x1^2*x2*x3; the verdict and exit code come before the output
    name = f"{mode}_tower"
    tower = getattr(faa_di_bruno, name)
    monkeypatch.setattr(faa_di_bruno, name, lambda f, k: tower(f, k).scale(2))
    argv = ("fdb", "--f", "(x1^2)", "--g", "(x1^2)", "--n", "1", "--mode", mode)
    difference = f"coordinate 1, monomial x1^2*x2*x3: {total} vs 12"
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == f"mode {mode}, n=1: 2 summands"
    assert lines[3:] == [f"total:  ({total}*x1^2*x2*x3)", "oracle: (12*x1^2*x2*x3)",
                         f"verdict: NOT equal ({difference})"]
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["equal"] is False and payload["first_difference"] == difference
    assert len(payload["summands"]) == 2


# the deep pair of CI's partition-sum step
DEEP_F, DEEP_G = "(x1^3*x2 + x2^2, x1*x2 - x1^4)", "(x1^2*x2^3 + x1, x2^5)"


@pytest.mark.parametrize("mode", ["forward", "reverse"])
def test_fdb_writes_the_report_one_summand_at_a_time(capsys, mode):
    # the streamed JSON is json.dumps of the report's to_json(), and the text
    # report prints the same strings, one summand a line
    f = parse_map(DEEP_F)
    g = parse_map(DEEP_G, (f.codomain_dim,))
    for n in range(4):
        payload = fdb_report(f, g, n, mode).to_json()
        argv = ("fdb", "--f", DEEP_F, "--g", DEEP_G, "--n", str(n), "--mode", mode)
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0 and out == json.dumps(payload, indent=2) + "\n"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.splitlines() == [
            f"mode {mode}, n={n}: {len(payload['summands'])} summands",
            *(f"  {s['partition']}: sizes [{','.join(map(str, s['block_sizes']))}], map {s['map']}"
              for s in payload["summands"]),
            f"total:  {payload['total']}", f"oracle: {payload['oracle']}", "verdict: equal"]


def test_fdb_cap(capsys):
    code, _, err = run_cli(capsys, "fdb", "--f", "(x1)", "--g", "(x1)",
                           "--n", "5", "--mode", "forward")
    assert code == 2
    assert "--max-n" in err
    code2, out, _ = run_cli(capsys, "fdb", "--f", "(x1)", "--g", "(x1)",
                            "--n", "5", "--mode", "forward", "--max-n", "5")
    assert code2 == 0


# -- exit status 2 ------------------------------------------------------------------

# every refusal a command makes after argparse has accepted its arguments:
# (argv, environment, the exact stderr)
REFUSALS = [
    (["derive", "--map", "(x1)", "--blocks", "500,501"], {},
     "error: --blocks total 1001 exceeds the cap 1000; a map has at most that many coordinates\n"),
    (["derive", "--map", "(x1^)"], {},
     "error: expected 'num'\n(x1^)\n    ^\n"),
    (["derive", "--map", "(x1 + x1001)"], {},
     "error: x1001 exceeds the cap of 1000 coordinates\n(x1 + x1001)\n      ^\n"),
    (["derive", "--map", "(x1)", "--order", "-1"], {},
     "error: --order must be nonnegative\n"),
    (["derive", "--map", "(x1)", "--order", "2001"], {},
     "error: --order 2001 exceeds the cap 2000; derive builds no higher tower\n"),
    (["derive", "--map", "(x1*x2)", "--blocks", "1,1", "--order", "0", "--partial", "5"], {},
     "error: block index 5 out of range for 2 blocks\n"),
    (["derive", "--map", "(x1*x2)", "--blocks", "1,1"], {},
     "error: total derivatives need a single-block domain; use --partial J or declare one block\n"),
    (["derive", "--map", "(x1)", "--partial", "2"], {},
     "error: block index 2 out of range for 1 blocks\n"),
    (["derive", "--map", "(x1)", "--partial", "0", "--mode", "forward"], {},
     "error: block index 0 out of range for 1 blocks\n"),
    (["verify", "--cases", "0"], {}, "error: --cases must be positive\n"),
    (["verify", "--max-dim", "0"], {}, "error: --max-dim must be positive\n"),
    (["verify", "--max-deg", "-1"], {}, "error: --max-deg must be positive\n"),
    (["verify", "--max-order", "0"], {}, "error: --max-order must be positive\n"),
    (["verify", "--max-dim", "334"], {},
     "error: --max-dim 334 exceeds the cap 333; a drawn map has up to 3 blocks, and derive "
     "takes 1000 coordinates\n"),
    (["verify", "--suite", "fdb-reverse", "--max-order", "5"], {},
     "error: --max-order 5 exceeds the cap 4; the fdb suites go no higher; pick another --suite\n"),
    (["verify", "--suite", "rd-axioms"], {"RFDB_SEED": "abc"},
     "error: RFDB_SEED must be an integer, got 'abc'\n"),
    (["partitions", "0"], {}, "error: n must be at least 1\n"),
    (["partitions", "11"], {}, "error: n 11 exceeds the cap 10; raise --max-n if you mean it\n"),
    (["partitions", "13", "--max-n", "12"], {},
     "error: n 13 exceeds the cap 12; raise --max-n if you mean it\n"),
    (["fdb", "--f", "(x1)", "--g", "(x1)", "--n", "-1", "--mode", "forward"], {},
     "error: --n must be nonnegative\n"),
    (["fdb", "--f", "(x1)", "--g", "(x1)", "--n", "5", "--mode", "forward"], {},
     "error: --n 5 exceeds the cap 4; raise --max-n if you mean it\n"),
    (["fdb", "--f", "(x1 +)", "--g", "(x1)", "--n", "0", "--mode", "forward"], {},
     "error: expected a coefficient or a variable\n(x1 +)\n     ^\n"),
    (["fdb", "--f", "(x1)", "--g", "(x1*x2)", "--n", "0", "--mode", "reverse"], {},
     "error: uses x2 but declared blocks cover 1 coordinates\n(x1*x2)\n    ^\n"
     "(--g is read on the 1 outputs of --f, so that the two compose)\n"),
    # refused before stdin is read: pytest's captured stdin raises on a read
    (["fdb", "--f", "-", "--g", "-", "--n", "0", "--mode", "forward"], {},
     "error: --f and --g cannot both read stdin ('-')\n"),
]
if getattr(sys, "get_int_max_str_digits", lambda: 0)():
    # an integer past the interpreter's int/str digit limit is named by its length, not echoed
    REFUSALS.append((["verify", "--suite", "rd-axioms", "--cases", "1"], {"RFDB_SEED": "7" * 5000},
                     "error: RFDB_SEED has 5000 digits, past the interpreter's "
                     f"{sys.get_int_max_str_digits()}-digit limit\n"))


@pytest.mark.parametrize("argv, env, stderr", REFUSALS,
                         ids=[" ".join(argv) for argv, _, _ in REFUSALS])
def test_refusals_exit_2_with_their_exact_message(capsys, monkeypatch, argv, env, stderr):
    monkeypatch.delenv("RFDB_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert run_cli(capsys, *argv) == (2, "", stderr)


def test_only_the_library_errors_of_the_derivative_are_refusals(capsys, monkeypatch):
    # a ValueError from fdb_report is a refusal; any other error is a bug and
    # propagates, as does one raised outside the derivative call in derive
    def refuse(f, g, n, mode):
        raise ValueError("no such pair")

    monkeypatch.setattr(cli, "fdb_report", refuse)
    argv = ("fdb", "--f", "(x1)", "--g", "(x1)", "--n", "0", "--mode", "forward")
    assert run_cli(capsys, *argv) == (2, "", "error: no such pair\n")

    def bug(*args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "fdb_report", bug)
    with pytest.raises(KeyError):
        run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "parse_map", bug)
    with pytest.raises(KeyError):
        run_cli(capsys, "derive", "--map", "(x1)")


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes" in out


def test_fdb_help_says_dash_reads_stdin(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "fdb", "--help")
    assert exc.value.code == 0
    # argparse wraps help at the terminal width
    out = " ".join(capsys.readouterr().out.split())
    for flag, role in (("--f F", "inner"), ("--g G", "outer")):
        assert f"{flag} {role} map expression; '-' reads stdin (not for both --f and --g)" in out


def test_repeated_calls_leave_no_cyclic_garbage(capsys):
    # argparse objects form reference cycles, so a parser built per call
    # would leave garbage that only the cyclic collector frees
    argv = ["derive", "--map", "(x1^3)", "--order", "2"]
    assert cli.main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            cli.main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out == "(6*x1*x2*x3)\n" * 21


def test_closed_pipe_exits_with_the_verdict_and_no_traceback():
    # Bell(10) lines are far more than a pipe holds, so the writer is still
    # blocked when the reader goes away after the first line
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "revderiv.cli", "partitions", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first == b"{1}|{2}|{3}|{4}|{5}|{6}|{7}|{8}|{9}|{10}\n"
    assert err == b""


def test_only_a_command_that_prints_json_loads_json():
    # start-up and a text report leave json alone; -S keeps site, which may
    # import it on its own, out
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import revderiv.cli\n"
            "revderiv.cli.build_parser()\n"
            "loaded = ['json' in sys.modules]\n"
            "for flags in ([], ['--json']):\n"
            "    revderiv.cli.main(['derive', '--map', '(x1^2)', *flags])\n"
            "    loaded.append('json' in sys.modules)\n"
            "print(loaded)\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == "[False, False, True]"


def test_start_up_loads_no_dataclasses_inspect_or_typing():
    # each command runs in a fresh process, where these modules would cost more
    # than a small map's derivative; -S keeps site's own imports out
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import revderiv.cli\n"
            "revderiv.cli.build_parser()\n"
            "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "\n"
