"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload long-stream --seed 1 --seconds 36 --trace 0

Run from the repository root. The workload's records are generated from
``--seed`` and written to a file before timing starts; the library only
ever receives that file. A run times the user routes on it:

* a sketch-mode ``cli.run`` in a fresh process (``job.py``), which gives
  ``sketch_s``, ``setup_s``, ``pass_rps`` and ``peak_rss_mb``; setup jobs,
  which only construct the estimator, add ``setup_s`` samples;
* an exact-mode ``cli.run`` in a fresh process (``exact_s``), checked
  against an independent oracle computed here from the generated records;
* ``dimension_reduce`` over ``exact_sub_oracles`` of the dense
  independence tensor, cycling over five reduction seeds (``oracle_s``).

An untraced run lasts about ``--seconds``: sketch jobs take about two
thirds of it, and half-second blocks of exact jobs, oracle calls and
(while constructions are few) setup jobs alternate in between. Every end-to-end metric is the median of the run's
samples, and every timing is the CPU time of the process doing the work,
scaled to a reference host's speed by ``speed.py`` (see ``Run.metrics``).
Sample counts are printed, and so are the unscaled medians. ``--trace 1``
instead runs one untraced sketch
job (the tracing-overhead baseline), then traced rounds of all three
routes while the next round is expected to end within ``--seconds``, and
reports the per-layer metrics. Human-readable lines come first; the last
line of standard output is the JSON result. Results and spans are also
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from functools import partial
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
JOB_TIMEOUT_S = 170
BLOCK_S = 0.5  # seconds of repeated exact, oracle or setup operations between sketch jobs
PROBE_S = 0.25  # seconds between reference timings while a job runs
MIN_SETUP_SAMPLES = 5  # setup jobs join the blocks until the run has this many constructions

# The benchmark and its job processes run on one core, so that the
# reference work timed around and during each operation (speed.py) runs on
# the core the operation runs on. BLAS threads are capped at that one core
# before numpy is first imported, here and (through the environment) in
# every job process.
NPROC = len(os.sched_getaffinity(0))
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from job import count_hashing  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import REFERENCE_S, reference, scale, timed  # noqa: E402
from workloads import (  # noqa: E402
    DELTA, EPSILON, ORACLE_CALLS, SYNTH_RECORDS, TOY, WORKLOADS,
    dense_tensor, exact_distance, generate, load_library, within_band, write_records,
)

END_TO_END_UNITS = {
    "setup_s": "s", "sketch_s": "s", "pass_rps": "records/s", "exact_s": "s",
    "peak_rss_mb": "MB", "oracle_s": "s",
}


def median(values):
    return statistics.median(values) if values else float("nan")


class Run:
    """Inputs, operations, samples and checks of one benchmark run."""

    def __init__(self, lib, name, w, seed, path):
        self.lib, self.name, self.w, self.seed = lib, name, w, seed
        self.path = path
        recs = generate(w, seed)
        write_records(self.path, recs)
        tensor = dense_tensor(recs, w.n)
        self.exact = exact_distance(tensor, w.m, w.k)
        self.dense = lib.DenseTensor(tensor)
        self.subs = lib.estimator.exact_sub_oracles(self.dense)
        self.attempted = self.failed = 0
        self.errors: list = []
        self.first: dict = {}  # reference output of every deterministic operation
        self.samples: dict = {}
        self.unscaled: dict = {}  # raw CPU and wall seconds of the timed operations
        self.untraced_entries: set = set()  # trace targets the library no longer has
        self.check(lib.l1_norm(self.dense) == self.exact * 2 * w.m**w.k,
                   "dense tensor norm disagrees with the oracle")

    def add(self, metric, value, unit=None):
        self.samples.setdefault(metric, ([], unit))[0].append(value)

    def add_unscaled(self, metric, cpu, wall):
        entry = self.unscaled.setdefault(metric, {"cpu": [], "wall": []})
        entry["cpu"].append(cpu)
        entry["wall"].append(wall)

    def check(self, ok, what):
        if not ok:
            self.errors.append(what)

    def same_as_first(self, key, value, what):
        self.check(self.first.setdefault(key, value) == value, f"{what} changed between rounds")

    def attempt(self, fn, what):
        """Run one operation; it fails if it raises or any of its checks fails."""
        self.attempted += 1
        before = len(self.errors)
        try:
            fn()
        except Exception as e:  # a failed operation is counted, the run goes on
            self.errors.append(f"{what}: {type(e).__name__}: {e}")
        if len(self.errors) > before:
            self.failed += 1

    # -- the three routes -------------------------------------------------

    def job(self, mode, trace=0, run_id="job"):
        """One ``job.py`` process; its CPU time is scaled by the reference
        timed before, every PROBE_S during and after it."""
        cmd = [
            sys.executable, os.path.join(HERE, "job.py"), "--mode", mode, "--input", self.path,
            "--k", str(self.w.k), "--n", str(self.w.n), "--seed", str(self.seed),
            "--trace", str(trace), "--run-id", run_id,
        ]
        refs = [reference()]
        deadline = perf_counter() + JOB_TIMEOUT_S
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            while True:
                try:
                    stdout, stderr = proc.communicate(timeout=PROBE_S)
                    break
                except subprocess.TimeoutExpired:
                    if perf_counter() > deadline:
                        raise
                    refs.append(reference())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        refs.append(reference())
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} job exited {proc.returncode}: {stderr[-2000:]}")
        out = json.loads(stdout.splitlines()[-1])
        out["scale"] = scale(refs)
        return out

    def sketch(self, trace, run_id="sketch"):
        out = self.job("sketch", trace, run_id)
        self.check(0.0 <= out["estimate"] <= 1.0, "sketch estimate outside [0, 1]")
        self.check(out["m"] == out["records_read"] == self.w.m, "sketch job read a wrong record count")
        self.check(out["traversals"] == 1, "sketch job traversed its input twice")
        self.same_as_first("sketch_sha", out["sha256"], "sketch report")
        self.first.setdefault("estimate", out["estimate"])
        return out

    def check_exact(self, exact_distance, m, sha):
        self.check(exact_distance == float(self.exact), "exact mode disagrees with the oracle")
        self.check(m == self.w.m, "exact mode read a wrong record count")
        self.same_as_first("exact_sha", sha, "exact report")

    def oracle_call(self, subs, j):
        value = self.lib.estimator.dimension_reduce(
            self.w.n, subs, EPSILON, DELTA, seed=self.seed * ORACLE_CALLS + j)
        self.check(math.isfinite(value) and value >= 0.0, "oracle estimate not finite")
        self.same_as_first(("oracle", j), value, f"oracle estimate {j}")

    # -- rounds -----------------------------------------------------------

    def record_sketch(self):
        out = self.sketch(0)
        k = out["scale"]
        self.add("sketch_s", out["cpu_s"] * k)
        self.add_unscaled("sketch_s", out["cpu_s"], out["wall_s"])
        self.add("pass_rps", self.w.m / (out["pass_cpu_s"] * k))
        self.add("peak_rss_mb", out["peak_rss_kb"] / 1024.0)
        self.add("setup_s", out["setup_cpu_s"] * k)

    def record_setup(self):
        out = self.job("setup")
        for s in out["setup_cpu_s"]:
            self.add("setup_s", s * out["scale"])

    def record_exact(self):
        out = self.job("exact")
        for r in out["runs"]:
            self.check_exact(r["exact_distance"], r["m"], r["sha256"])
            self.add("exact_s", r["cpu_s"] * out["scale"])
            self.add_unscaled("exact_s", r["cpu_s"], r["wall_s"])

    def record_oracle(self):
        """One sample: the mean time per call over a cycle of every reduction
        seed, with the reference timed before, between and after the calls."""
        refs = [reference()]
        cpu = wall = 0.0
        for j in range(ORACLE_CALLS):
            _, c, w = timed(partial(self.oracle_call, self.subs, j))
            cpu, wall = cpu + c, wall + w
            refs.append(reference())
        self.add("oracle_s", cpu * scale(refs) / ORACLE_CALLS)
        self.add_unscaled("oracle_s", cpu / ORACLE_CALLS, wall / ORACLE_CALLS)

    def block(self, op, what):
        """Repeat a short operation for at least BLOCK_S seconds (at least once)."""
        t0 = perf_counter()
        self.attempt(op, what)
        while perf_counter() - t0 < BLOCK_S:
            self.attempt(op, what)

    def traced_round(self, traces):
        rid = f"{self.name}-{self.seed}-r{len(traces)}"
        spans: dict = {}
        traces.append(spans)
        self.attempt(lambda: self.traced_sketch(rid, spans), "traced sketch job")
        self.attempt(lambda: self.traced_exact(rid, spans), "traced exact job")
        self.attempt(lambda: self.traced_oracle(rid, spans), "traced oracle calls")

    def traced_sketch(self, rid, spans):
        out = self.sketch(1, rid + "-sketch")
        self.check(balanced(out["balance"]), "sketch trace does not balance")
        rows = sum(g["rows"] for g in out["groups"].values())
        self.check(rows == out["diag_bank_rows"], "computed bank rows differ from diagnostics")
        spans["sketch"] = {"balance": out["balance"], **out["trace"]}
        self.untraced_entries.update(out["trace"]["missing"])
        for name, (value, unit) in out["layers"].items():
            self.add(name, value, unit)
        self.add("estimator.bank_rows", out["diag_bank_rows"], "count")
        total = 0
        for g in ("1_0", "1_1", "2_1", "2_2"):
            layout = out["groups"].get(g, {})
            self.add(f"estimator.rows.{g}", layout.get("rows", 0), "count")
            for part in ("prefix", "coeff", "acc"):
                size = layout.get(f"{part}_bytes", 0)
                self.add(f"estimator.{part}_bytes.{g}", size, "bytes")
                total += size
        self.add("estimator.bank_bytes", total, "bytes")
        self.add("trace.sketch_s", out["wall_s"], "s")
        self.add("trace.unattributed_s", out["balance"]["unattributed_s"], "s")

    def traced_exact(self, rid, spans):
        cli = self.lib.cli
        tr = Tracer(rid + "-exact")
        support = []
        tr.wrap(cli, "run", "cli.run")
        tr.wrap_iter(cli, "parse_records", "cli.parse_records")
        tr.wrap(cli, "build_frequency_table", "stream.build_frequency_table",
                lambda _a, table: support.append(len(table.joint)))
        tr.wrap(cli, "exact_statistical_distance", "stream.exact_statistical_distance")
        cfg = cli.RunConfig(k=self.w.k, n=self.w.n, mode="exact", input_path=self.path)
        try:
            report, _, wall = timed(lambda: cli.run(cfg))
        finally:
            tr.restore()
        self.check_exact(report.exact_distance, report.m,
                         hashlib.sha256(cli.format_report(report, "json").encode()).hexdigest())
        bal = tr.balance(wall)
        self.check(balanced(bal), "exact trace does not balance")
        spans["exact"] = {"balance": bal, **tr.dump()}
        self.untraced_entries.update(tr.missing)
        self.add("stream.table_s", tr.self_time("stream.build_frequency_table"), "s")
        self.add("stream.distance_s", tr.inclusive("stream.exact_statistical_distance"), "s")
        self.add("stream.support", support[0], "count")

    def traced_oracle(self, rid, spans):
        estimator = self.lib.estimator
        tr = Tracer(rid + "-oracle")
        for fn in ("dimension_reduce", "layered_l1_estimate", "cover_algorithm", "tensor_tournament"):
            tr.wrap(estimator, fn, "estimator." + fn)
        count_hashing(tr, (estimator, self.lib.hashing))
        subs = estimator.SubAlgorithms(
            approx_a=tr.wrapped(self.subs.approx_a, "tensor.approx_a"),
            approx_b=tr.wrapped(self.subs.approx_b, "tensor.approx_b"),
            beta=self.subs.beta,
        )
        try:
            t0 = perf_counter()
            for j in range(ORACLE_CALLS):
                self.oracle_call(subs, j)
            wall = perf_counter() - t0
        finally:
            tr.restore()
        bal = tr.balance(wall)
        self.check(balanced(bal), "oracle trace does not balance")
        spans["oracle"] = {"balance": bal, **tr.dump()}
        self.untraced_entries.update(tr.missing)
        self.add("estimator.tournaments", tr.calls("estimator.tensor_tournament"), "count")
        self.add("estimator.covers", tr.calls("estimator.cover_algorithm"), "count")
        self.add("estimator.subcalls", tr.calls("tensor.approx_a") + tr.calls("tensor.approx_b"), "count")
        self.add("estimator.tournament_s", tr.self_time("estimator.tensor_tournament"), "s")
        self.add("tensor.oracle_s", tr.inclusive("tensor.approx_a") + tr.inclusive("tensor.approx_b"), "s")
        self.add("hashing.oracle_derive_key_calls", tr.counts["hashing.derive_key_calls"], "count")
        self.add("hashing.oracle_zero_one_tables", tr.counts["hashing.zero_one_tables"], "count")

    def synth(self):
        t0 = perf_counter()
        got = sum(1 for _ in self.lib.cli.generate_synthetic(
            "mixture(0.5)", self.w.k, self.w.n, SYNTH_RECORDS, self.seed))
        self.add("cli.synth_rps", got / (perf_counter() - t0), "records/s")

    # -- results ----------------------------------------------------------

    def quality(self):
        """Relative error of the sketch estimate; contract-band misses over all estimates."""
        exact = float(self.exact)
        scale = float(2 * self.w.m**self.w.k)
        estimates = [self.first[("oracle", j)] / scale
                     for j in range(ORACLE_CALLS) if ("oracle", j) in self.first]
        rel = float("nan")
        if "estimate" in self.first:
            estimates.append(self.first["estimate"])
            rel = abs(self.first["estimate"] - exact) / exact
        misses = sum(1 for e in estimates if not within_band(e, exact))
        return rel, misses, len(estimates)

    def metrics(self):
        """The median of each metric's samples; counts must repeat exactly across rounds.

        End-to-end timings are CPU seconds: on a shared host the wall clock
        also counts the time other tenants hold the core. CPU time still
        stretches while they load the core's caches or hyperthread sibling,
        so every timing is scaled by the reference work timed around it,
        and during a job every ``PROBE_S`` (``speed.py``). Per-layer times
        are wall-clock medians over traced rounds.
        """
        out = {}
        for name, (values, unit) in self.samples.items():
            unit = unit or END_TO_END_UNITS[name]
            if unit in ("count", "bytes"):
                self.check(len(set(values)) == 1, f"{name} changed between rounds")
                out[name] = (values[0], unit)
            else:
                out[name] = (median(values), unit)
        return out


def rounds_loop(seconds, one_round):
    """Run at least one round, and more while the next is expected to end within ``seconds``."""
    start = perf_counter()
    durations = []
    while True:
        t0 = perf_counter()
        one_round()
        durations.append(perf_counter() - t0)
        if perf_counter() - start + median(durations) > seconds:
            return len(durations)


def balanced(bal, tol=1e-6):
    """Self times plus the unattributed remainder equal the wall clock; none is negative."""
    total = sum(bal["self_s"].values()) + bal["unattributed_s"]
    return (abs(total - bal["wall_s"]) <= tol and bal["min_self_s"] >= -tol
            and bal["unattributed_s"] >= -tol)


def untraced(run, seconds):
    """Sketch jobs take about two thirds of the run; blocks of exact jobs,
    oracle cycles and (while constructions are few) setup jobs alternate in
    between, so every metric samples the whole run (the host's speed drifts
    over seconds)."""
    deadline = perf_counter() + seconds
    last = None  # (start, duration) of the latest sketch job
    short = [(run.record_exact, "exact job"), (run.record_oracle, "oracle cycle"),
             (run.record_setup, "setup job")]
    blocks = 0
    while True:
        now = perf_counter()
        if last is None or (now - last[0] >= 1.5 * last[1] and deadline - now >= last[1]):
            run.attempt(run.record_sketch, "sketch job")
            last = (now, perf_counter() - now)
        elif now < deadline or blocks < len(short):
            op, what = short[blocks % len(short)]
            blocks += 1
            if op != run.record_setup or len(run.samples.get("setup_s", ([], None))[0]) < MIN_SETUP_SAMPLES:
                run.block(op, what)
        else:
            break
    rel, misses, estimates = run.quality()
    metrics = run.metrics()
    metrics["rel_err"] = (rel, "ratio")
    counts = {name: len(values) for name, (values, _) in sorted(run.samples.items())}
    return metrics, {"samples": counts, "band_misses": misses, "estimates": estimates}, None


def traced(run, seconds):
    start = perf_counter()
    base = []
    run.attempt(run.synth, "generate_synthetic")
    run.attempt(lambda: base.append(run.sketch(0)["wall_s"]), "untraced sketch job")
    traces: list = []
    rounds = rounds_loop(seconds - (perf_counter() - start), lambda: run.traced_round(traces))
    rel, misses, estimates = run.quality()
    metrics = run.metrics()
    if "estimate" in run.first:
        metrics["estimator.est_exact_ratio"] = (run.first["estimate"] / float(run.exact), "ratio")
    metrics["estimator.estimates"] = (estimates, "count")
    metrics["estimator.band_misses"] = (misses, "count")
    if metrics.get("estimator.row_updates", (0, ""))[0]:
        metrics["estimator.row_update_ns"] = (
            metrics["estimator.flush_s"][0] / metrics["estimator.row_updates"][0] * 1e9, "ns")
    if base and "trace.sketch_s" in metrics:
        metrics["trace.overhead_s"] = (metrics["trace.sketch_s"][0] - base[0], "s")
    info = {"samples": {"traced_rounds": rounds}, "band_misses": misses, "estimates": estimates,
            "untraced_sketch_s": base}
    return metrics, info, traces


def environment(seconds, w):
    import numpy

    return {
        "nproc": NPROC,
        "pinned_cpu": CPU,
        "blas_threads": 1,
        "reference_s": REFERENCE_S,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "run_seconds": seconds,
        "workload": {"k": w.k, "n": w.n, "m": w.m, "epsilon": EPSILON, "delta": DELTA},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="indisketch repository benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy input sizes, for the smoke check")
    args = p.parse_args(argv)
    # On SIGTERM, unwind so that a running sketch job is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    table = TOY if args.toy else WORKLOADS
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    lib = load_library(os.getcwd())

    w = table[args.workload]
    os.makedirs(OUT, exist_ok=True)
    # Reports name their input file, so the path is relative and fixed per
    # (workload, seed): report digests then repeat across runs and checkouts.
    path = os.path.relpath(os.path.join(OUT, f"records-{args.workload}-{args.seed}.txt"))
    try:
        run = Run(lib, args.workload, w, args.seed, path)
        metrics, info, traces = (traced if args.trace else untraced)(run, args.seconds)
    finally:
        if os.path.exists(path):
            os.remove(path)

    env = environment(args.seconds, w)
    digests = {k: run.first[k] for k in ("exact_sha", "sketch_sha") if k in run.first}
    reported = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
    tag = f"{args.workload}_{args.seed}_trace{args.trace}"
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "digests": digests, "exact_distance": float(run.exact),
                   "info": info, "errors": run.errors, "metrics": reported,
                   "samples": {k: v for k, (v, _) in sorted(run.samples.items())},
                   "unscaled_samples": run.unscaled,
                   "untraced_entries": sorted(run.untraced_entries)},
                  fh, indent=1, sort_keys=True)
    if traces is not None:
        with open(os.path.join(OUT, f"trace_{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(traces, fh)

    for key, value in env.items():
        print(f"env {key} {json.dumps(value)}")
    for key, value in digests.items():
        print(f"digest {key} {value}")
    print("samples " + " ".join(f"{k}={v}" for k, v in info["samples"].items()))
    print(f"failed_share {info['band_misses']}/{info['estimates']} estimates outside the contract band")
    for err in run.errors:
        print(f"error {err}")
    for entry in sorted(run.untraced_entries):
        print(f"untraced-entry {entry} (not found in the library)")
    for name, entry in sorted(run.unscaled.items()):
        print(f"unscaled {name} cpu {median(entry['cpu']):.6g} s wall {median(entry['wall']):.6g} s "
              f"(medians of {len(entry['cpu'])}; not metrics)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} {value!r} {unit}")
    correct = not run.errors and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
