#!/usr/bin/env python3
"""Closed-loop benchmark of revderiv: one caller, one operation at a time.

Run from the repository root:

    python3 bench/run.py --workload tower-wide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

The caller sends the next operation only after the previous one finished,
the way a user runs ``revderiv`` commands one after another.  The tower
caches are cleared before every operation, as in a fresh CLI process.

``--trace 0`` reports the end-to-end metrics: it makes whole passes over the
workload's pool of operations, in an order the seed shuffles, while the next
pass is expected to end within ``--seconds`` (and until at least 100
operations ran).  ``--trace 1`` makes one pass, running each operation
untraced and then traced, and reports per-layer metrics, the tracing
overhead and the consistency checks.  Every operation's output is compared
with ``reference.json``; on ``tower-wide`` an independent interpolation
oracle also checks the printed towers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 means
every check passed, 1 that some check failed, 2 that the benchmark could not
run (for example because ``src/revderiv`` is missing).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import spotcheck
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

MIN_OPS = 100  # at least 10 samples above p90
HARD_STOP_S = 150.0  # stop even short of MIN_OPS, to exit well within 180 s
SETUP_SAMPLES = 9
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import revderiv.cli\n"
    "revderiv.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def load_program() -> types.SimpleNamespace:
    if not (SRC / "revderiv" / "__init__.py").is_file():
        raise BenchError(f"no revderiv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import revderiv
    from revderiv import (cli, combinators, corpus, faa_di_bruno, laws, maps,
                          partitions, poly, syntax, towers)
    if Path(revderiv.__file__).resolve().parent != SRC / "revderiv":
        raise BenchError(f"imported revderiv from {revderiv.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        cli=cli, combinators=combinators, corpus=corpus, faa_di_bruno=faa_di_bruno,
        laws=laws, maps=maps, partitions=partitions, poly=poly, syntax=syntax, towers=towers,
    )


def load_reference(workload: str) -> dict[str, str]:
    if not REFERENCE.is_file():
        raise BenchError(f"missing {REFERENCE}")
    return json.loads(REFERENCE.read_text())["workloads"][workload]


def measure_setup() -> float:
    """Median time, over fresh interpreters, to import revderiv and build the
    CLI parser."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def run_op(rd, op: workloads.Op, reference: dict[str, str]) -> tuple[float, str | None, object]:
    """Run one operation with cold tower caches.

    Returns (latency in s, failure message or None, raw result).
    """
    rd.towers.reverse_tower.cache_clear()
    rd.towers.forward_tower.cache_clear()
    t0 = time.perf_counter()
    try:
        raw = op.call()
    except (Exception, SystemExit) as err:  # a failed operation, counted and reported
        return time.perf_counter() - t0, f"{op.key}: raised {err!r}", None
    latency = time.perf_counter() - t0
    try:
        ok, text = op.check(raw)
    except (ValueError, KeyError, TypeError) as err:
        return latency, f"{op.key}: unreadable output ({err!r})", raw
    if not ok:
        return latency, f"{op.key}: failed verdict or exit code", raw
    expected = reference.get(op.key)
    if expected is None:
        return latency, f"{op.key}: no reference output", raw
    if workloads.digest(text) != expected:
        return latency, f"{op.key}: output differs from the reference", raw
    return latency, None, raw


def spot_check(rd, ops_and_outputs: list[tuple[workloads.Op, object]], seed: int) -> list[str]:
    """Run the interpolation oracle on every map whose two towers printed."""
    towers: dict[str, dict] = {}
    for op, raw in ops_and_outputs:
        map_key, mode = op.key.rsplit("/", 1)
        towers.setdefault(map_key, {"wide": op.wide})[mode] = raw[1]
    errors = []
    for map_key, entry in towers.items():
        if "forward" in entry and "reverse" in entry:
            n, text = entry["wide"]
            found = spotcheck.check_towers(rd, n, text, workloads.WIDE_DEGREE, entry,
                                           seed=f"spot/{seed}/{map_key}")
            errors += [f"{map_key}: {message}" for message in found]
    return errors


def run_untraced(rd, workload: str, seed: int, seconds: float) -> dict:
    reference = load_reference(workload)
    ops = workloads.pool(rd, workload)
    setup_s = measure_setup()
    latencies: list[float] = []
    failures: list[str] = []
    spot_inputs: list[tuple[workloads.Op, object]] = []
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for op in workloads.pass_order(ops, seed, passes):
            latency, error, raw = run_op(rd, op, reference)
            latencies.append(latency)
            if error:
                failures.append(error)
            # the oracle checks whatever a successful derive printed,
            # whether or not it matches the reference
            if passes == 0 and op.wide is not None and raw is not None and raw[0] == 0:
                spot_inputs.append((op, raw))
        passes += 1
        now = time.perf_counter()
        # whole passes only, so that every run measures the same work
        expected_end = now - start + (now - pass_start)
        if expected_end > HARD_STOP_S or (
                len(latencies) >= MIN_OPS and expected_end > seconds):
            break
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = spot_check(rd, spot_inputs, seed)
    completed = len(latencies) - len(failures)
    metrics = {
        "ops_per_s": completed / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {workload}, seed {seed}: {passes} passes of {len(ops)} operations "
          f"in {wall_s:.1f} s, closed loop, 1 caller")
    print(f"  fail_ratio = {len(failures) / len(latencies)} ({len(failures)}/{len(latencies)})")
    if spot_inputs:
        print(f"  spot check: {len(spot_inputs)} printed towers, "
              f"{'ok' if not checks else f'{len(checks)} failures'}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    for message in failures[:10] + checks[:10]:
        print(f"  FAIL {message}")
    return {
        "correct": not failures and not checks,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in metrics.items()},
    }


def run_traced(rd, workload: str, seed: int) -> dict:
    """One pass over the pool in seeded order.  Each operation runs untraced
    and then traced, back to back, so the difference of the two is the
    tracing overhead; per-layer metrics are the traced pass's totals."""
    reference = load_reference(workload)
    ops = workloads.pool(rd, workload)
    failures: list[str] = []
    tracer = Tracer(rd)
    untraced_s = traced_s = 0.0
    for op in workloads.pass_order(ops, seed, 0):
        t0 = time.perf_counter()
        untraced_error = run_op(rd, op, reference)[1]
        untraced_s += time.perf_counter() - t0
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced_error = run_op(rd, op, reference)[1]
            tracer.after_op()
            traced_s += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        failures += [e for e in (untraced_error, traced_error) if e]
    errors = tracer.consistency_errors(traced_s)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.loop_s"] = traced_s - tracer.root_s
    print(f"workload {workload}, seed {seed}: {len(ops)} operations, each untraced "
          f"({untraced_s:.2f} s in all) and then traced ({traced_s:.2f} s)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {layer_unit(name)}")
    print(f"  consistency checks: {'ok' if not errors else f'{len(errors)} failed'}")
    for message in (failures + errors)[:10]:
        print(f"  FAIL {message}")
    return {
        "correct": not failures and not errors,
        "attempted": 2 * len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": layer_unit(name)}
                    for name, value in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode not in (0, 1) or not lines:
            raise BenchError(f"{workload} did not run: {done.stderr.strip()}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            rd = load_program()
            if args.trace:
                result = run_traced(rd, args.workload, args.seed)
            else:
                result = run_untraced(rd, args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
