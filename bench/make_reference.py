#!/usr/bin/env python3
"""Write reference.json: the digest of every pool operation's canonical output.

Run from the repository root, on the commit whose outputs are the reference:

    python3 bench/make_reference.py

Each operation runs once with cold tower caches and must pass its own
verdict (exit code 0, no law failures, ``equal``).  The benchmark compares
every later run against these digests, so a change that alters any byte of
an output (apart from ``elapsed_ms``) shows as a failed operation.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import workloads
from run import REFERENCE, ROOT, load_program


def main() -> int:
    rd = load_program()
    table: dict[str, dict[str, str]] = {}
    for workload in workloads.WORKLOADS:
        digests = table[workload] = {}
        for op in workloads.pool(rd, workload):
            rd.towers.reverse_tower.cache_clear()
            rd.towers.forward_tower.cache_clear()
            ok, text = op.check(op.call())
            if not ok:
                print(f"error: {workload} {op.key} fails its own verdict", file=sys.stderr)
                return 1
            digests[op.key] = workloads.digest(text)
        print(f"{workload}: {len(digests)} operations", flush=True)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    payload = {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": table,
    }
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
