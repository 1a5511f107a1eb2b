"""One benchmark job in its own process; prints one JSON line.

* ``--mode sketch``: one sketch-mode ``indisketch.cli.run`` on a record
  file, exactly as the command line would run it. It prints the job's CPU
  time and wall clock, its peak RSS (its own, as the process runs nothing
  else), the report's SHA-256, the estimate and diagnostics. Untraced, it
  touches only the public API, its spans read CPU time, and it adds the
  setup and pass CPU times taken from spans around
  ``StreamDistanceEstimator``. With ``--trace 1`` its spans read the wall
  clock and wrap every module the job enters, and it adds the bank layout
  computed from the registry's array shapes.
* ``--mode exact``: exact-mode ``cli.run`` repeated until ``REPEAT_S`` of
  CPU time (at least once); it prints each run's times, digest and exact
  distance.
* ``--mode setup``: the construction of ``StreamDistanceEstimator``
  repeated likewise; it prints each construction's CPU time.

    python3 perfbench/job.py --mode sketch --input FILE --k 2 --n 16 --seed 7 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from time import perf_counter, process_time

from spans import Tracer
from workloads import DELTA, EPSILON, REPEAT_S, load_library


def peak_rss_kb() -> int:
    """Peak resident set of this process's own address space, in KiB.

    ``ru_maxrss`` would carry over the launching process's size across
    ``exec``; ``VmHWM`` starts afresh with the new program.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def bank_layout(registry) -> dict:
    """Rows and computed bytes of the prefix, coefficient and accumulator arrays per group."""
    out = {}
    for (s, sp), g in sorted(registry.groups.items()):
        out[f"{s}_{sp}"] = {
            "rows": int(g["joint"].shape[0]),
            "prefix_bytes": int(g["prefix"].nbytes),
            "coeff_bytes": int(g["coeff"].nbytes),
            "acc_bytes": int(g["joint"].nbytes + g["margins"].nbytes),
        }
    return out


def instrument(tracer: Tracer, full: bool, built: list) -> None:
    """Spans around the sketch route; ``full`` adds every module the job enters."""
    from indisketch import cli, estimator, hashing, sketches

    est_cls, reg_cls = estimator.StreamDistanceEstimator, estimator._BankRegistry
    tracer.wrap(est_cls, "__init__", "estimator.setup", lambda a, r: built.append(a[0]))
    tracer.wrap(est_cls, "consume", "estimator.consume")
    tracer.wrap(est_cls, "tensor_norm_estimate", "estimator.evaluate")
    if not full:
        return

    def flushed(args, _result):
        reg, counts = args[0], args[1]
        rows = sum(g["joint"].shape[0] for g in reg.groups.values())
        tracer.counts["estimator.flushed_tuples"] += len(counts)
        tracer.counts["estimator.row_updates"] += len(counts) * rows

    def cauchy(_args, result):
        tracer.counts["hashing.cauchy_values"] += int(result.size)

    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap_iter(cli, "parse_records", "cli.parse_records")
    tracer.wrap(estimator, "_build_reduce_plan", "estimator.plan")
    tracer.count(reg_cls, "add_bank", "estimator.banks")
    tracer.wrap(reg_cls, "freeze", "estimator.freeze")
    tracer.wrap(reg_cls, "bulk_update", "estimator.bulk_update", flushed)
    tracer.wrap(estimator, "repetition_seeds", "sketches.repetition_seeds")
    tracer.wrap(estimator, "batched_cauchy_tables", "hashing.batched_cauchy_tables", cauchy)
    count_hashing(tracer, (cli, estimator, hashing, sketches))


def count_hashing(tracer: Tracer, modules) -> None:
    """Count derive_key where each module looks it up, and 0/1 hash tables built."""
    from indisketch import hashing

    for mod in modules:
        if "derive_key" in mod.__dict__:
            tracer.count(mod, "derive_key", "hashing.derive_key_calls")
    tracer.count(hashing.ZeroOneHash, "table", "hashing.zero_one_tables")


def layers(tr: Tracer) -> dict:
    """Per-layer metrics of one traced sketch job: name -> (value, unit)."""
    c = tr.counts
    return {
        "cli.parse_s": (tr.inclusive("cli.parse_records"), "s"),
        "estimator.plan_s": (tr.inclusive("estimator.plan"), "s"),
        "estimator.freeze_s": (tr.inclusive("estimator.freeze"), "s"),
        "estimator.banks": (c["estimator.banks"], "count"),
        "estimator.update_s": (tr.self_time("estimator.consume"), "s"),
        "estimator.flushes": (tr.calls("estimator.bulk_update"), "count"),
        "estimator.flushed_tuples": (c["estimator.flushed_tuples"], "count"),
        "estimator.row_updates": (c["estimator.row_updates"], "count"),
        "estimator.flush_s": (tr.inclusive("estimator.bulk_update"), "s"),
        "estimator.evaluate_s": (tr.inclusive("estimator.evaluate"), "s"),
        "sketches.seeds_s": (tr.inclusive("sketches.repetition_seeds"), "s"),
        "hashing.cauchy_s": (tr.inclusive("hashing.batched_cauchy_tables"), "s"),
        "hashing.cauchy_values": (c["hashing.cauchy_values"], "count"),
        "hashing.derive_key_calls": (c["hashing.derive_key_calls"], "count"),
        "hashing.zero_one_tables": (c["hashing.zero_one_tables"], "count"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("sketch", "exact", "setup"), default="sketch")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-id", default="sketch")
    args = p.parse_args(argv)

    load_library(os.getcwd())
    from indisketch import cli
    from indisketch.estimator import StreamDistanceEstimator

    if args.mode == "setup":
        times: list = []
        while not times or sum(times) < REPEAT_S:
            c0 = process_time()
            StreamDistanceEstimator(args.k, args.n, EPSILON, DELTA, seed=args.seed)
            times.append(process_time() - c0)
        print(json.dumps({"setup_cpu_s": times}))
        return 0

    if args.mode == "exact":
        cfg = cli.RunConfig(k=args.k, n=args.n, mode="exact", input_path=args.input)
        runs: list = []
        while not runs or sum(r["cpu_s"] for r in runs) < REPEAT_S:
            t0, c0 = perf_counter(), process_time()
            report = cli.run(cfg)
            wall, cpu = perf_counter() - t0, process_time() - c0
            text = cli.format_report(report, "json")
            runs.append({
                "cpu_s": cpu, "wall_s": wall, "m": report.m,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "exact_distance": report.exact_distance,
            })
        print(json.dumps({"runs": runs}))
        return 0

    tracer = Tracer(args.run_id, clock=perf_counter if args.trace else process_time)
    built: list = []
    instrument(tracer, bool(args.trace), built)
    cfg = cli.RunConfig(
        k=args.k, n=args.n, epsilon=EPSILON, delta=DELTA, mode="sketch",
        seed=args.seed, input_path=args.input,
    )
    try:
        t0, c0 = perf_counter(), process_time()
        report = cli.run(cfg)
        wall, cpu = perf_counter() - t0, process_time() - c0
    finally:
        tracer.restore()
    peak_kb = peak_rss_kb()
    text = cli.format_report(report, "json")
    out = {
        "cpu_s": cpu,
        "wall_s": wall,
        "peak_rss_kb": peak_kb,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "estimate": report.distance_estimate,
        "m": report.m,
        "records_read": report.diagnostics["records_read"],
        "traversals": report.diagnostics["reader_traversals"],
        "diag_bank_rows": report.diagnostics["bank_rows"],
    }
    if args.trace:
        out["groups"] = bank_layout(built[0].registry)
        out["trace"] = tracer.dump()
        out["balance"] = tracer.balance(wall)
        out["layers"] = layers(tracer)
        print(json.dumps(out))
        return 0
    del built[:]

    # Untraced spans read CPU time.
    out["pass_cpu_s"] = tracer.inclusive("estimator.consume")
    out["setup_cpu_s"] = tracer.inclusive("estimator.setup")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
