"""Toy-size smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Run from the repository root. For every workload in ``BENCHMARK.json`` it
runs ``run.py --toy`` untraced and traced and checks that:

* the last output line is the result object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``, correct and
  without failed operations;
* the untraced run reports every ``end_to_end`` metric and the traced run
  every ``per_layer`` metric, each with its listed unit and nothing else;
* in the written trace, every job's self times (recomputed here from the
  raw spans) plus its unattributed remainder equal its wall clock.

It also checks that the benchmark exits non-zero, printing no result, in
a directory that holds only ``BENCHMARK.json`` and the benchmark.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, listed, what):
    problems = []
    if proc.returncode != 0:
        return [f"{what}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{what}: correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}; {proc.stdout[-1500:]}")
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in listed}
    if set(got) != set(want):
        problems.append(f"{what}: missing {sorted(set(want) - set(got))}, "
                        f"unlisted {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        value = entry.get("value")
        if name in want and entry.get("unit") != want[name]:
            problems.append(f"{what}: {name} unit {entry.get('unit')!r}, listed {want[name]!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{what}: {name} value {value!r}")
    return problems


def check_balance(path, what):
    """Recompute self times from the spans; they and the remainder must add up to the wall clock."""
    problems = []
    with open(path, encoding="utf-8") as fh:
        rounds = json.load(fh)
    for r, jobs in enumerate(rounds):
        for job, trace in jobs.items():
            fields = trace["fields"]
            parent, busy = fields.index("parent"), fields.index("busy")
            spans = trace["spans"]
            selfs = [s[busy] for s in spans]
            for s in spans:
                if s[parent] is not None:
                    selfs[s[parent]] -= s[busy]
            bal = trace["balance"]
            total = sum(selfs) + bal["unattributed_s"]
            if abs(total - bal["wall_s"]) > 1e-6 or min(selfs, default=0.0) < -1e-6:
                problems.append(f"{what} round {r} {job}: self {sum(selfs)!r} + unattributed "
                                f"{bal['unattributed_s']!r} != wall {bal['wall_s']!r}")
    return problems


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        problems += check_result(run_bench(root, name, 0), bench["end_to_end"], f"{name} untraced")
        problems += check_result(run_bench(root, name, 1), bench["per_layer"], f"{name} traced")
        problems += check_balance(os.path.join(HERE, "out", f"trace_{name}_3_trace1.json"), name)
        print(f"{name}: checked", flush=True)

    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
            problems.append("benchmark did not fail without the library")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
