"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Statistical criteria use frozen seeds, so the suite is
deterministic.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from indisketch import (
    CoverConfig,
    DenseTensor,
    EstimatorOverrides,
    LayerConfig,
    StreamDistanceEstimator,
    TournamentConfig,
    TupleStream,
    build_frequency_table,
    cover_algorithm,
    dense_independence_tensor,
    distance_from_tensor_norm,
    epsilon_l1_estimate,
    exact_statistical_distance,
    hyperplane,
    independence_distance,
    independence_tensor_entry,
    is_significant,
    l1_norm,
    layered_l1_estimate,
    polylog_l1_estimate,
    prefix_zero,
    split_compare_ratio,
    suffix_sum,
    tensor_tournament,
    vector_sub_oracles,
    SketchBank,
)
from indisketch.cli import CountingReader, RunConfig, generate_synthetic, run
from indisketch.hashing import ZeroOneHash
from indisketch.sketches import reference_sketch_value, required_epsilon_reps

import conftest

pytestmark = pytest.mark.acceptance


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    conftest.record_criterion(line)
    assert ok, f"criterion {num}: {detail}"


def random_stream(rnd, k, n, m):
    return [tuple(rnd.randint(1, n) for _ in range(k)) for _ in range(m)]


def test_criterion_01_exact_oracle_identity():
    """Tensor-norm normalization equals the exact oracle on random streams."""
    rnd = random.Random(1)
    checked = 0
    for _ in range(1000):
        k = rnd.choice((2, 3))
        n = rnd.randint(1, 4)
        m = rnd.randint(1, 8)
        table = build_frequency_table(TupleStream(k, n, random_stream(rnd, k, n, m)))
        norm = sum(
            abs(independence_tensor_entry(table, i))
            for i in itertools.product(range(1, n + 1), repeat=k)
        )
        assert isinstance(exact_statistical_distance(table), Fraction)
        if distance_from_tensor_norm(norm, m, k) != exact_statistical_distance(table):
            report(1, False, f"mismatch on k={k} n={n} stream")
        checked += 1
    report(1, checked == 1000, f"norm/oracle identity exact on {checked} random streams")


def _random_tensor(rnd, s, n):
    vals = [rnd.randint(-9, 9) for _ in range(n**s)]
    return DenseTensor.from_entries(vals, s, n)


def _random_mask(rnd, n):
    return np.asarray([rnd.randint(0, 1) for _ in range(n)], dtype=np.int64)


def test_criterion_02_tensor_algebra():
    """Mask/collapse composition identities hold exactly on random tensors."""
    rnd = random.Random(2)
    for trial in range(500):
        s = rnd.randint(1, 4)
        n = rnd.randint(2, 5)
        M = _random_tensor(rnd, s, n)
        t = rnd.randint(0, s - 1)
        H = _random_mask(rnd, n)
        ones = [np.ones(n, dtype=np.int64)] * t
        ok = prefix_zero(suffix_sum(M, t), [H]) == suffix_sum(
            prefix_zero(M, ones + [H]), t
        )
        ok &= suffix_sum(suffix_sum(M, t), 1) == suffix_sum(M, t + 1)
        hs = [_random_mask(rnd, n) for _ in range(s)]
        gs = [_random_mask(rnd, n) for _ in range(s)]
        ok &= prefix_zero(M, [h * g for h, g in zip(hs, gs)]) == prefix_zero(
            prefix_zero(M, hs), gs
        )
        t2 = rnd.randint(0, s - 1)
        hs2 = [_random_mask(rnd, n) for _ in range(t2)]
        Mp = suffix_sum(prefix_zero(M, hs2), t2)
        if Mp.s >= 1:
            ok &= prefix_zero(Mp, [H]) == suffix_sum(prefix_zero(M, hs2 + [H]), t2)
            ok &= suffix_sum(prefix_zero(Mp, [H]), 1) == suffix_sum(
                prefix_zero(M, hs2 + [H]), t2 + 1
            )
        if not ok:
            report(2, False, f"identity failed on trial {trial}")
    report(2, True, "composition identities exact on 500 random tensors")


def test_criterion_03_significant_hyperplane():
    """Collapse approximates any (1 - eps/2)-significant hyperplane."""
    rnd = random.Random(3)
    total = 0
    for eps in (0.5, 0.2, 0.05):
        for _ in range(200):
            n = rnd.randint(2, 5)
            s = rnd.randint(2, 4)
            rest = np.asarray(
                [rnd.randint(-2, 2) for _ in range(n**s)], dtype=np.int64
            ).reshape((n,) * s)
            rest[0] = 0
            rest_mass = int(np.abs(rest).sum())
            row = np.asarray(
                [rnd.randint(1, 8) for _ in range(n ** (s - 1))], dtype=np.int64
            ).reshape((n,) * (s - 1))
            row.flat[0] += int(math.ceil((1 - eps / 2) / (eps / 2) * max(rest_mass, 1))) + 1
            M = rest.copy()
            M[0] = row
            M = DenseTensor(M)
            assert is_significant(M, 1, 1 - eps / 2)
            target = l1_norm(hyperplane(M, 1))
            got = l1_norm(suffix_sum(M, 1))
            if not (1 - eps) * target <= got <= (1 + eps) * target:
                report(3, False, f"violated at eps={eps}")
            total += 1
    report(3, total == 600, "collapse within (1 +- eps) of the dominant hyperplane, 600 instances")


def test_criterion_04_coefficient_identity():
    """The production fold (a registry bank's rows after two flushes) equals
    the dense expansion exactly, its Cauchy tables replaced by small integers."""
    rnd = random.Random(4)
    values = 0
    for _instance in range(100):
        k = rnd.choice((2, 3, 4))
        n = rnd.randint(2, 5 if k < 4 else 4)
        m = rnd.randint(1, 39)
        recs = random_stream(rnd, k, n, m)
        cut = rnd.randint(1, max(1, m - 1))  # two flushes, the second empty only at m = 1
        table = build_frequency_table(TupleStream(k, n, recs))
        for s in range(k + 1):
            for sp in range(s + 1):
                prefix = [[rnd.randint(0, 1) for _ in range(n)] for _ in range(s)]
                coeff = [
                    [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(k - sp)]
                    for _row in range(3)
                ]
                bank = conftest.integer_bank(k, n, prefix, sp, coeff)
                for chunk in (recs[:cut], recs[cut:]):
                    bank.bulk_update(Counter(chunk))
                for row, value in zip(coeff, bank.values().tolist()):
                    if value != reference_sketch_value(table, prefix, sp, row):
                        report(4, False, f"row mismatch k={k} n={n} s={s} s'={sp}")
                    values += 1
    report(4, True, f"fold rows exact on 100 instances x all (s, s') x 3 rows, {values} values")


def test_criterion_05_cauchy_median_estimator():
    """Sharp estimator lands within 15% of the dense target on 90% of seeds."""
    rnd = random.Random(5)
    eps, delta = 0.1, 0.05
    reps = required_epsilon_reps(eps, delta)
    streams_checked = 0
    worst = 1.0
    while streams_checked < 20:
        n = rnd.randint(4, 16)
        m = rnd.randint(50, 500)
        recs = [(v, v) for v in (rnd.randint(1, n) for _ in range(m // 2))]
        recs += random_stream(rnd, 2, n, m - len(recs))
        table = build_frequency_table(TupleStream(2, n, recs))
        mask = [rnd.randint(0, 1) for _ in range(n)]
        M = dense_independence_tensor(table)
        target = l1_norm(suffix_sum(prefix_zero(M, [mask]), 1))
        if target == 0:
            continue  # relative tolerance undefined; redraw the instance
        hits = 0
        for trial in range(100):
            bank = SketchBank(2, n, 1, 1, [mask], repetitions=reps,
                              seed=streams_checked * 1000 + trial)
            bank.bulk_update(table.joint)
            est = epsilon_l1_estimate(bank, eps, delta)
            hits += abs(est - target) <= 0.15 * target
        worst = min(worst, hits / 100)
        if hits < 90:
            report(5, False, f"stream {streams_checked}: only {hits}/100 within 15%")
        streams_checked += 1
    report(5, True, f"20 streams x 100 seeds, worst per-stream hit rate {worst:.2f} >= 0.90")


def test_criterion_06_polylog_approximator():
    """Coarse estimator stays within the 2*log^2(n) window on 95% of trials."""
    rnd = random.Random(6)
    n = 16
    beta = 2 * math.log2(n) ** 2
    reps = 192
    results = []
    for inst in range(20):
        m = rnd.randint(60, 400)
        recs = [(v, v) for v in (rnd.randint(1, n) for _ in range(m // 2))]
        recs += random_stream(rnd, 2, n, m - len(recs))
        table = build_frequency_table(TupleStream(2, n, recs))
        mask = [rnd.randint(0, 1) for _ in range(n)]
        target = l1_norm(prefix_zero(dense_independence_tensor(table), [mask]))
        if target == 0:
            continue
        hits = 0
        trials = 40
        for trial in range(trials):
            bank = SketchBank(2, n, 1, 0, [mask], repetitions=reps,
                              seed=inst * 777 + trial)
            bank.bulk_update(table.joint)
            est = polylog_l1_estimate(bank, 0.05)
            hits += target / beta <= est <= beta * target
        results.append(hits / trials)
    ok = all(r >= 0.95 for r in results) and len(results) >= 15
    report(6, ok, f"{len(results)} instances, per-instance window rates min {min(results):.2f}")


def test_criterion_07_split_compare_bound():
    """Lopsided pairwise splits are rarer than sqrt(1 - eps) + 0.05."""
    eps = 0.5
    root = (1 - eps) ** 0.25
    lam = 1 + 2 * root / (1 - root)
    rnd = random.Random(7)
    v = np.asarray([rnd.uniform(0.5, 1.5) for _ in range(32)])
    assert v.max() < (1 - eps) * v.sum()
    bad = 0
    trials = 10_000
    for s in range(trials):
        z = ZeroOneHash(seed=s, n=32, q=0.5).table()
        x, y = split_compare_ratio(v, z)
        bad += (x >= lam * y) or (y >= lam * x)
    bound = math.sqrt(1 - eps) + 0.05
    report(7, bad / trials <= bound, f"lopsided fraction {bad / trials:.3f} <= {bound:.3f}")


def _check_threshold_max(v, H, U, eps_out, alpha):
    """Conditions of the threshold-max contract for one output."""
    masked = v * H
    cond1 = True
    if U > 0:
        cond1 = any(
            x > 0 and (1 - eps_out) * x <= U <= (1 + eps_out) * x for x in masked
        )
    total = masked.sum()
    cond2 = True
    if total > 0:
        big = [x for x in masked if x >= (1 - alpha) * total]
        if big:
            x = big[0]
            cond2 = U > 0 and (1 - eps_out) * x <= U <= (1 + eps_out) * x
    return cond1 and cond2


def test_criterion_08_threshold_max_contract():
    """Tournament satisfies both contract conditions with exact oracles."""
    eps, delta, beta = 0.1, 0.1, 2.0
    cfg = TournamentConfig.from_targets(eps, delta, beta=beta)
    eps_out = 3 * eps
    trials = 200
    summaries = []

    # class 1: one coordinate holding all but ~2e-4 of the mass
    v1 = np.zeros(16)
    v1[3] = 100_000.0
    v1[[0, 5, 9]] = [7.0, 7.0, 6.0]
    H1 = np.ones(16, dtype=np.uint8)
    assert v1.max() >= (1 - cfg.alpha) * v1.sum()
    subs1 = vector_sub_oracles(v1, beta=beta)
    fail = sum(
        not _check_threshold_max(
            v1, H1, tensor_tournament(H1, cfg, subs1, seed=s), eps_out, cfg.alpha
        )
        for s in range(trials)
    )
    summaries.append(("dominant", fail))

    # class 2: masked vector is null; output must be identically zero
    v2 = np.zeros(8)
    subs2 = vector_sub_oracles(v2, beta=beta)
    fail = sum(
        tensor_tournament(np.ones(8, dtype=np.uint8), cfg, subs2, seed=s) != 0.0
        for s in range(trials)
    )
    summaries.append(("null", fail))

    # class 3: uniform, no significant coordinate; zero with prob >= 1-delta
    v3 = np.ones(64)
    subs3 = vector_sub_oracles(v3, beta=beta)
    fail = sum(
        not _check_threshold_max(
            v3,
            np.ones(64, dtype=np.uint8),
            tensor_tournament(np.ones(64, dtype=np.uint8), cfg, subs3, seed=s),
            eps_out,
            cfg.alpha,
        )
        for s in range(trials)
    )
    summaries.append(("uniform", fail))

    budget = (delta + 0.05) * trials
    ok = all(f <= budget for _, f in summaries) and summaries[1][1] == 0
    report(8, ok, "failures per class " + ", ".join(f"{k}={f}/{trials}" for k, f in summaries))


def test_criterion_09_cover_contract():
    """Cover outputs map to distinct coordinates and catch significant ones."""
    eps_cov, delta, beta = 0.3, 0.1, 1.0
    tcfg = TournamentConfig.from_targets(eps_cov / 3, delta, beta=beta)
    ccfg = CoverConfig.from_targets(eps_cov, delta, tcfg.alpha, rho=127)
    rnd = random.Random(9)
    trials = 200
    coverage_failures = 0
    for s in range(trials):
        v = np.ones(64)
        i, j = rnd.sample(range(64), 2)
        v[i] = 130.0
        v[j] = 130.0
        subs = vector_sub_oracles(v, beta=beta)
        H = np.ones(64, dtype=np.uint8)
        out = cover_algorithm(H, ccfg, tcfg, subs, seed=s)
        # distinctness: each output approximates a coordinate in its own
        # bucket; buckets partition the coordinates, so matches are distinct
        for u in out.values():
            assert any(
                x > 0 and (1 - eps_cov) * x <= u <= (1 + eps_cov) * x for x in v
            ), "output approximates no coordinate"
        close = [u for u in out.values() if abs(u - 130.0) <= eps_cov * 130.0]
        if len(close) < 2:
            coverage_failures += 1
    budget = (delta + 0.05) * trials
    report(
        9,
        coverage_failures <= budget,
        f"distinctness always; significant-coverage failures {coverage_failures}/{trials} <= {budget:.0f}",
    )


def _exact_cover(v):
    def run_cover(mask, _seed):
        return [float(x) for x, m in zip(v, mask) if m and x > 0]

    return run_cover


def test_criterion_10_layered_estimator():
    """Layered summation succeeds at the 2/3 rate, and 0.9 after medians."""
    eps = 0.3
    cfg = LayerConfig.from_targets(
        eps, 1024, 1e7, count_threshold=64, base_count=40, phase_steps=32
    )
    single = np.zeros(1024)
    single[17] = 100.0
    two_scale = np.zeros(1024)
    two_scale[:8] = 1000.0
    two_scale[8:520] = 1.0
    uniform = np.ones(1024)
    trials = 300
    oks = []
    for name, v in (("single", single), ("two-scale", two_scale), ("uniform", uniform)):
        truth = float(v.sum())
        results = np.array(
            [
                layered_l1_estimate(1024, cfg, _exact_cover(v), seed=s)
                for s in range(trials)
            ]
        )
        success = (results >= (1 - eps) * truth) & (results <= (1 + eps) * truth)
        single_rate = float(success.mean())
        medians = np.median(results[: 33 * 9].reshape(33, 9), axis=1)
        med_ok = (medians >= (1 - eps) * truth) & (medians <= (1 + eps) * truth)
        med_rate = float(med_ok.mean())
        oks.append((name, single_rate, med_rate))
    ok = all(s >= 2 / 3 - 0.05 and m >= 0.9 for _, s, m in oks)
    report(10, ok, "; ".join(f"{n}: single {s:.2f}, median-of-9 {m:.2f}" for n, s, m in oks))


def test_criterion_11_end_to_end():
    """Full sketch pipeline tracks the exact oracle on synthetic streams,
    at k = 2 and at the recursive plans of k = 3 and k = 4."""
    runs = 90
    cases = []
    for kind in ("diagonal", "independent", "mixture(0.5)"):
        for k, n in ((2, 4), (2, 8), (3, 4), (4, 2)):
            recs = list(generate_synthetic(kind, k, n, 1000, seed=1234))
            table = build_frequency_table(TupleStream(k, n, recs))
            exact = float(exact_statistical_distance(table))
            est = np.array(
                [
                    independence_distance(
                        TupleStream(k, n, recs),
                        0.3,
                        0.1,
                        seed=s,
                        overrides=EstimatorOverrides(amplification=1),
                    ).distance_estimate
                    for s in range(runs)
                ]
            )
            if exact < 0.1:
                good = np.abs(est - exact) <= 0.05
            else:
                good = (est >= 0.7 * exact) & (est <= 1.3 * exact)
            single_rate = float(good[:60].mean())
            med = np.median(est.reshape(10, 9), axis=1)
            if exact < 0.1:
                med_ok = np.abs(med - exact) <= 0.05
            else:
                med_ok = (med >= 0.7 * exact) & (med <= 1.3 * exact)
            cases.append((f"{kind} k={k} n={n}", exact, single_rate, float(med_ok.mean())))
    ok = all(s >= 2 / 3 and m >= 0.9 for _, _, s, m in cases)
    report(
        11,
        ok,
        "; ".join(f"{c}: single {s:.2f} median {m:.2f}" for c, _, s, m in cases),
    )


def test_criterion_12_single_pass_and_reproducibility():
    """Sketch mode reads each record once; identical runs give identical bytes."""
    recs = list(generate_synthetic("mixture(0.5)", 2, 4, 300, seed=5))
    reader = CountingReader(recs)
    est = StreamDistanceEstimator(2, 4, 0.3, 0.1, seed=2)
    est.consume(reader)
    one_pass = reader.records_read == 300 and reader.traversals == 1
    est.tensor_norm_estimate()

    cfg = dict(
        k=2, n=4, mode="sketch", seed=21, generate="mixture(0.5)", m=250,
        overrides={"amplification": "3"},
    )
    a = run(RunConfig(**cfg)).to_json()
    b = run(RunConfig(**cfg)).to_json()
    report(
        12,
        one_pass and a == b,
        f"records read once ({reader.records_read}/300), reports byte-identical",
    )
