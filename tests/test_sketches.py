"""Product-sketch mechanics: update rules, linearity (estimator snapshots
and merge), the coefficient identity against the dense tensor semantics,
and the two estimators."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indisketch import (
    ConfigurationError,
    EmptyStreamError,
    EstimatorOverrides,
    MalformedInputError,
    MergeIncompatibleError,
    ProductSketchState,
    SketchBank,
    StreamDistanceEstimator,
    TupleStream,
    build_frequency_table,
    dense_independence_tensor,
    epsilon_l1_estimate,
    generate_synthetic,
    l1_norm,
    polylog_l1_estimate,
    prefix_zero,
    reference_sketch_value,
    suffix_sum,
)
from indisketch import sketches
from indisketch.sketches import required_epsilon_reps


def fraction_tables(rnd, fams, n):
    return [
        [Fraction(rnd.randint(-9, 9), rnd.randint(1, 7)) for _ in range(n)]
        for _ in range(fams)
    ]


class TestUpdateRules:
    def test_single_tuple_full_sketch(self):
        # s = s' = 0: joint is the coefficient product, margins the factors
        c = [[2.0, 5.0], [3.0, 7.0]]
        st_ = ProductSketchState(k=2, n=2, s=0, s_prime=0, prefix=[], coeff=c)
        st_.update((1, 2))
        assert st_.joint == 2.0 * 7.0
        assert st_.margins == [2.0, 7.0]
        assert st_.m_seen == 1

    def test_empty_stream(self):
        st_ = ProductSketchState(k=2, n=2, s=0, s_prime=0, prefix=[], coeff=[[1, 1], [1, 1]])
        assert st_.joint == 0 and st_.margins == [0, 0]
        with pytest.raises(EmptyStreamError):
            st_.value()

    def test_masked_prefix_annihilates_joint(self):
        st_ = ProductSketchState(
            k=2, n=2, s=1, s_prime=1, prefix=[[0, 0]], coeff=[[1.5, 2.5]]
        )
        for rec in [(1, 1), (2, 2), (1, 2)]:
            st_.update(rec)
        assert st_.joint == 0
        assert st_.margins[0] == 0
        assert st_.value() == 0

    def test_hand_expanded_value(self):
        # substituted coefficient values against the tensor expansion
        probes = [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(3)]]
        st_ = ProductSketchState(k=2, n=2, s=0, s_prime=0, prefix=[], coeff=probes)
        for rec in [(1, 1), (2, 2)]:
            st_.update(rec)
        # m^(k-1)*joint - margin1*margin2 = 2*(1*1 + 2*3) - (1+2)*(1+3)
        assert st_.value() == 2 * 7 - 12 == 2
        table = build_frequency_table(TupleStream(2, 2, [(1, 1), (2, 2)]))
        assert reference_sketch_value(table, [], 0, probes) == 2


class TestCoefficientIdentity:
    @pytest.mark.parametrize("k", [2, 3])
    def test_exact_probe_identity(self, k):
        """sketch value == sum_i C(i) * collapsed-masked-tensor entry, exactly."""
        rnd = random.Random(k)
        for trial in range(25):
            n = rnd.randint(2, 4)
            m = rnd.randint(1, 8)
            recs = [
                tuple(rnd.randint(1, n) for _ in range(k)) for _ in range(m)
            ]
            table = build_frequency_table(TupleStream(k, n, recs))
            for s in range(k + 1):
                for sp in range(s + 1):
                    prefix = [
                        [rnd.randint(0, 1) for _ in range(n)] for _ in range(s)
                    ]
                    for probe in range(3):
                        coeff = fraction_tables(rnd, k - sp, n)
                        st_ = ProductSketchState(
                            k=k, n=n, s=s, s_prime=sp, prefix=prefix, coeff=coeff
                        )
                        for rec in recs:
                            st_.update(rec)
                        assert st_.value() == reference_sketch_value(
                            table, prefix, sp, coeff
                        )


# a small k = 3 plan, so that the merge tests stay fast
SMALL = EstimatorOverrides(amplification=1, rounds=1, eps_reps=3, polylog_reps=2)


def estimator(k, n, seed=7, overrides=None):
    return StreamDistanceEstimator(k, n, 0.3, 0.1, seed=seed, overrides=overrides)


def split_run(k, n, ov):
    """Two estimators fed the halves of a stream, and the report of one
    estimator fed the whole. ``consume`` ends with a flush, so the halves
    split the whole run's pass on a flush boundary and the sums are those of
    the whole run, bit for bit."""
    recs = list(generate_synthetic("mixture(0.5)", k, n, 300, seed=k))
    first, second = recs[:130], recs[130:]
    whole = estimator(k, n, overrides=ov)
    whole.consume(first)
    whole.consume(second)
    a, b = estimator(k, n, overrides=ov), estimator(k, n, overrides=ov)
    a.consume(first)
    b.consume(second)
    return a, b, second, whole.report().to_json()


SPLITS = [(2, 8, None), (3, 3, SMALL)]


def assert_same_accumulators(x, y, exact=True):
    assert x["m_seen"] == y["m_seen"]
    assert x["groups"].keys() == y["groups"].keys()
    for key, g in x["groups"].items():
        for name in ("joint", "margins"):
            if exact:
                assert np.array_equal(g[name], y["groups"][key][name])
            else:
                np.testing.assert_allclose(g[name], y["groups"][key][name], rtol=1e-12)


class TestLinearity:
    def test_merge_equals_concatenation(self):
        for k, n, ov in SPLITS:
            a, b, _, want = split_run(k, n, ov)
            for parts in ((a, b), (b, a)):
                merged = estimator(k, n, overrides=ov)
                for part in parts:
                    merged.merge(part.snapshot())
                assert merged.m_seen == a.m_seen + b.m_seen
                assert merged.report().to_json() == want

    def test_merge_commutative_associative(self):
        # estimator merge is a float +=: associative only to rounding
        rnd = random.Random(0)
        snaps = []
        for _ in range(3):
            part = estimator(2, 3)
            part.consume([tuple(rnd.randint(1, 3) for _ in range(2)) for _ in range(4)])
            snaps.append(part.snapshot())
        s1, s2, s3 = snaps
        lhs = estimator(2, 3)
        for snap in (s1, s2, s3):
            lhs.merge(snap)
        inner = estimator(2, 3)
        inner.merge(s2)
        inner.merge(s1)
        rhs = estimator(2, 3)
        rhs.merge(s3)
        rhs.merge(inner.snapshot())
        assert lhs.m_seen == rhs.m_seen == 12
        assert_same_accumulators(lhs.snapshot(), rhs.snapshot(), exact=False)

    def test_merge_with_empty_is_identity(self):
        a = estimator(2, 3)
        a.consume([(1, 2), (3, 3), (2, 2), (1, 1)])
        want = a.report().to_json()
        a.merge(estimator(2, 3).snapshot())
        assert a.report().to_json() == want

    def test_merge_randomness_mismatch(self):
        a = estimator(2, 3)
        a.consume([(1, 2), (3, 3)])
        before = a.snapshot()
        others = [
            estimator(2, 3, seed=8),
            estimator(2, 3, overrides=EstimatorOverrides(eps_reps=100)),
            estimator(2, 3, overrides=EstimatorOverrides(max_chunk=16)),
            StreamDistanceEstimator(2, 3, 0.25, 0.1, seed=7),
        ]
        snaps = []
        for other in others:
            other.consume([(1, 1)])
            snaps.append(other.snapshot())
        # malformed snapshots of the same configuration
        same = estimator(2, 3)
        same.consume([(1, 1)])
        good = same.snapshot()
        groups = good["groups"]
        first, last = list(groups)[0], list(groups)[-1]
        one_row = {"joint": np.ones(1), "margins": np.ones((1, 2))}
        snaps += [
            {**good, "groups": {key: g for key, g in groups.items() if key != last}},
            {**good, "groups": {**groups, first: one_row}},
            {**good, "groups": {**groups, last: {**groups[last], "margins": np.ones(2)}}},
            {**good, "m_seen": -5},
            {**good, "m_seen": 2.5},
        ]
        for snap in snaps:
            with pytest.raises(MergeIncompatibleError):
                a.merge(snap)
        assert_same_accumulators(a.snapshot(), before)

    def test_permutation_invariance(self):
        recs = [(1, 2), (3, 1), (2, 2), (3, 3)]
        a = ProductSketchState.from_seeds(2, 3, 1, 1, [[1, 1, 0]], seed=3)
        b = ProductSketchState.from_seeds(2, 3, 1, 1, [[1, 1, 0]], seed=3)
        for r in recs:
            a.update(r)
        for r in reversed(recs):
            b.update(r)
        assert a.value() == pytest.approx(b.value())


class TestBank:
    def test_bank_rows_match_scalar_states(self):
        recs = [(1, 2), (3, 4), (1, 1), (2, 2), (4, 4)]
        bank = SketchBank(2, 4, 1, 1, [[1, 0, 1, 1]], repetitions=6, seed=42)
        for r in recs:
            bank.update(r)
        for rep in range(6):
            st_ = ProductSketchState.from_seeds(
                2, 4, 1, 1, [[1, 0, 1, 1]], seed=42, rep=rep
            )
            for r in recs:
                st_.update(r)
            assert bank.values()[rep] == pytest.approx(st_.value())

    @pytest.mark.parametrize(
        "s,s_prime", [(s, sp) for s in range(4) for sp in range(s + 1)]
    )
    def test_every_depth_pair_matches_scalar_states(self, s, s_prime):
        masks = [[1, 0, 1], [1, 1, 0], [0, 1, 1]][:s]
        recs = [(1, 2, 3), (3, 1, 1), (1, 3, 2), (2, 2, 2), (1, 2, 3), (3, 3, 1)]
        bank = SketchBank(3, 3, s, s_prime, masks, repetitions=5, seed=17)
        for chunk in (recs[:4], recs[4:]):
            counts = {}
            for r in chunk:
                counts[r] = counts.get(r, 0) + 1
            bank.bulk_update(counts)
        assert bank.m_seen == len(recs)
        for rep in range(5):
            st_ = ProductSketchState.from_seeds(3, 3, s, s_prime, masks, seed=17, rep=rep)
            for r in recs:
                st_.update(r)
            assert bank.joint[rep] == pytest.approx(st_.joint, rel=1e-12)
            assert bank.margins[rep] == pytest.approx(st_.margins, rel=1e-12)

    @pytest.mark.parametrize("chunk", ["repeats", "permutation"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_fold_matches_scalar_states_at_every_depth(self, k, chunk, monkeypatch):
        """Every (s, s') at k = 2, 3, 4, s' = k - 1 and s' = k among them,
        against the scalar rule. A permutation chunk's n distinct suffixes
        fill 1/n of their lead-by-last grid when s' < k - 1. Small fold
        blocks split the banks, a bank's repetitions and the leads, and
        GRID_FILL = 0 folds every suffix as its own lead; each leaves every
        accumulator within rtol 1e-12."""
        n, reps = 7, 4
        rng = np.random.default_rng(k)
        if chunk == "permutation":
            recs = list(zip(*(rng.permutation(n).tolist() for _ in range(k))))
            recs = [tuple(x + 1 for x in r) for r in recs]
        else:
            recs = [tuple(r) for r in rng.integers(1, 4, (10, k)).tolist()]
        chunks = (recs, recs[:3])  # one flush of the whole chunk, then a few repeats
        masks = [rng.integers(0, 2, n) | (np.arange(n) % 3 == 0) for _ in range(k)]
        grid = sketches.GRID_FILL
        for s in range(k + 1):
            for s_prime in range(s + 1):
                rows = []
                for block, fill in ((sketches.FOLD_BLOCK, grid), (40, grid), (7, grid), (40, 0), (7, 0)):
                    monkeypatch.setattr(sketches, "FOLD_BLOCK", block)
                    monkeypatch.setattr(sketches, "GRID_FILL", fill)
                    bank = SketchBank(k, n, s, s_prime, masks[:s], repetitions=reps, seed=31)
                    for part in chunks:
                        bank.bulk_update(dict(Counter(part)))
                    rows.append((bank.joint, bank.margins))
                for r in range(reps):
                    st_ = ProductSketchState.from_seeds(k, n, s, s_prime, masks[:s], seed=31, rep=r)
                    for rec in chunks[0] + chunks[1]:
                        st_.update(rec)
                    assert rows[0][0][r] == pytest.approx(st_.joint, rel=1e-12)
                    assert rows[0][1][r] == pytest.approx(st_.margins, rel=1e-12)
                for joint, margins in rows[1:]:
                    np.testing.assert_allclose(joint, rows[0][0], rtol=1e-12, atol=0)
                    np.testing.assert_allclose(margins, rows[0][1], rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "recs,in_place",
        [
            # every coordinate holds the values 3-6 of n = 8: each table is read in place
            ([(3, 4), (4, 6), (5, 3), (6, 5), (3, 3), (5, 6), (3, 4)], {True}),
            # the first coordinate holds 1, 4, 6 (gathered), the second 3-6 (in place)
            ([(1, 3), (4, 4), (6, 5), (1, 6), (4, 3)], {True, False}),
            # leads (1, 1), (1, 3), (2, 2), (2, 4): the second lead column
            # 0, 2, 1, 3 spans 0-3 by its ends but is no run, so it is gathered
            ([(1, 1, 2), (1, 3, 5), (2, 2, 2), (2, 4, 7), (1, 3, 2)], {True, False}),
        ],
        ids=["run-from-3", "gap-and-run", "unsorted-lead"],
    )
    def test_fold_reads_runs_in_place(self, recs, in_place, monkeypatch):
        """Table reads at a run of indices are views, any other index set is
        gathered. At every (s, s') both forms agree with the scalar rule and
        with a fold that always gathers, and no fold writes into the masks or
        the Cauchy tables it reads."""
        k, n, reps = len(recs[0]), 8, 5
        rng = np.random.default_rng(k)
        masks = [rng.integers(0, 2, n) | (np.arange(n) % 3 == 0) for _ in range(k)]
        table_index, read = sketches._table_index, set()

        def spy(index):
            at = table_index(index)
            read.add(isinstance(at, slice))
            return at

        for s in range(k + 1):
            for s_prime in range(s + 1):
                rows = []
                for helper in (spy, lambda index: index):  # then gather every read
                    monkeypatch.setattr(sketches, "_table_index", helper)
                    bank = SketchBank(k, n, s, s_prime, masks[:s], repetitions=reps, seed=41)
                    group = bank.registry.groups[(s, s_prime)]
                    tables = group["prefix"].tobytes(), group["coeff"].tobytes()
                    bank.bulk_update(dict(Counter(recs)))
                    assert (group["prefix"].tobytes(), group["coeff"].tobytes()) == tables
                    rows.append((bank.joint, bank.margins))
                for r in range(reps):
                    st_ = ProductSketchState.from_seeds(k, n, s, s_prime, masks[:s], seed=41, rep=r)
                    for rec in recs:
                        st_.update(rec)
                    assert rows[0][0][r] == pytest.approx(st_.joint, rel=1e-12)
                    assert rows[0][1][r] == pytest.approx(st_.margins, rel=1e-12)
                np.testing.assert_allclose(rows[1][0], rows[0][0], rtol=1e-12, atol=0)
                np.testing.assert_allclose(rows[1][1], rows[0][1], rtol=1e-12, atol=0)
        assert read == in_place

    @pytest.mark.parametrize("shared_suffix", [False, True])
    def test_flush_memory_follows_the_chunk(self, shared_suffix):
        # n^k = 8e9 cells: a flush must scale with the chunk, not the domain,
        # and with one shared suffix its row blocks must still stay small
        k, n, reps = 3, 2000, 128
        rng = np.random.default_rng(5)
        masks = [rng.integers(0, 2, n), rng.integers(0, 2, n)]
        if shared_suffix:
            recs = [(i, 7, 9) for i in range(1, n + 1)]
        else:
            recs = [tuple(int(x) for x in rng.integers(1, n + 1, k)) for _ in range(6)]
            recs += [recs[0], (recs[1][0], recs[2][1], recs[3][2])]
        bank = SketchBank(k, n, 2, 1, masks, repetitions=reps, seed=23)
        counts = {}
        for r in recs:
            counts[r] = counts.get(r, 0) + 1
        tracemalloc.start()
        bank.bulk_update(counts)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20
        for rep in range(3):
            st_ = ProductSketchState.from_seeds(k, n, 2, 1, masks, seed=23, rep=rep)
            for r in recs:
                st_.update(r)
            assert bank.joint[rep] == pytest.approx(st_.joint, rel=1e-12)
            assert bank.margins[rep] == pytest.approx(st_.margins, rel=1e-12)

    @pytest.mark.parametrize("grid_fill", [sketches.GRID_FILL, math.inf])
    def test_flush_memory_of_an_empty_grid(self, grid_fill, monkeypatch):
        # 2,000 distinct suffixes (i, pi(i)) fill 1/2000 of their 4M-cell
        # lead-by-last grid, so the fold gathers per suffix; made to take
        # the grid, it blocks the leads, so either way it holds a few
        # FOLD_BLOCK temporaries, not the grid of one bank (32 MB)
        monkeypatch.setattr(sketches, "GRID_FILL", grid_fill)
        k, n, reps = 3, 2000, 128
        rng = np.random.default_rng(6)
        masks = [rng.integers(0, 2, n), rng.integers(0, 2, n)]
        last = rng.permutation(n) + 1
        counts = {(int(rng.integers(1, n + 1)), i + 1, int(last[i])): 1 for i in range(n)}
        bank = SketchBank(k, n, 2, 1, masks, repetitions=reps, seed=29)
        tracemalloc.start()
        bank.bulk_update(counts)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 6 * 8 * sketches.FOLD_BLOCK
        recs = list(counts)
        for rep in range(2):
            st_ = ProductSketchState.from_seeds(k, n, 2, 1, masks, seed=29, rep=rep)
            for r in recs:
                st_.update(r)
            assert bank.joint[rep] == pytest.approx(st_.joint, rel=1e-12)
            assert bank.margins[rep] == pytest.approx(st_.margins, rel=1e-12)

    def test_sparse_flush_does_not_build_the_grid(self, monkeypatch):
        # 5,000 permutation suffixes at n = 100,000 fill 1/5000 of their
        # 25M-cell grid: every sum the fold builds has at most one cell
        # per suffix, so the cost is that of per-suffix gathers
        n, N, reps = 100_000, 5000, 64
        rng = np.random.default_rng(8)
        mask = rng.integers(0, 2, n)
        counts = {(i + 1, int(x) + 1): 1 for i, x in enumerate(rng.permutation(n)[:N])}
        bank = SketchBank(2, n, 1, 0, [mask], repetitions=reps, seed=37)
        bincount = np.bincount

        def bounded(x, weights=None, minlength=0):
            out = bincount(x, weights, minlength)
            assert out.size <= N, f"a fold sum of {out.size} cells for {N} suffixes"
            return out

        monkeypatch.setattr(np, "bincount", bounded)
        bank.bulk_update(counts)
        monkeypatch.undo()
        for rep in range(2):
            st_ = ProductSketchState.from_seeds(2, n, 1, 0, [mask], seed=37, rep=rep)
            for r in counts:
                st_.update(r)
            assert bank.joint[rep] == pytest.approx(st_.joint, rel=1e-12)
            assert bank.margins[rep] == pytest.approx(st_.margins, rel=1e-12)

    def test_bulk_rejects_malformed_tuples(self):
        bank = SketchBank(2, 3, 1, 0, [[1, 1, 0]], repetitions=4, seed=7)
        bad_counts = ({(1, 2): -3}, {(1, 2): 2.5}, {(1, 2): "2"}, {(1, 1): 1, (1, 2): -1})
        for bad in ({(1, 2, 3): 1}, {(1, 4): 2}, {(0, 1): 1}, *bad_counts):
            with pytest.raises(MalformedInputError):
                bank.bulk_update(bad)
        assert bank.m_seen == 0 and not bank.joint.any()

    def test_rejects_malformed_masks(self):
        for masks in ([], [[1, 1, 0]] * 2, [[1, 1]], [[1, 1, 0, 1]]):
            with pytest.raises(ConfigurationError):
                SketchBank(2, 3, 1, 0, masks, repetitions=4, seed=7)

    def test_bulk_equals_per_tuple(self):
        recs = [(1, 2), (1, 2), (3, 1), (2, 2), (1, 2)]
        a = SketchBank(2, 3, 1, 0, [[1, 1, 0]], repetitions=4, seed=7)
        b = SketchBank(2, 3, 1, 0, [[1, 1, 0]], repetitions=4, seed=7)
        for r in recs:
            a.update(r)
        counts = {}
        for r in recs:
            counts[r] = counts.get(r, 0) + 1
        b.bulk_update(counts)
        assert np.allclose(a.values(), b.values())
        assert a.m_seen == b.m_seen == len(recs)


class TestMarginCancellation:
    def test_unmasked_collapse_of_independence_tensor_vanishes(self):
        """Collapsing any leading coordinate of the difference tensor with an
        all-ones mask cancels exactly: both distributions share margins."""
        rnd = random.Random(8)
        for _ in range(10):
            n, m = rnd.randint(2, 4), rnd.randint(2, 12)
            recs = [(rnd.randint(1, n), rnd.randint(1, n)) for _ in range(m)]
            table = build_frequency_table(TupleStream(2, n, recs))
            M = dense_independence_tensor(table)
            assert l1_norm(suffix_sum(M, 1)) == 0

    def test_sharp_estimator_sees_zero_under_identity_mask(self):
        recs = [(1, 1), (2, 2)] * 5
        bank = SketchBank(2, 2, 1, 1, [[1, 1]], repetitions=64, seed=2)
        for r in recs:
            bank.update(r)
        assert epsilon_l1_estimate(bank, 0.5, 0.5, c=1.0) == pytest.approx(0.0, abs=1e-9)


class TestEpsilonEstimate:
    def test_masked_everything_gives_zero(self):
        bank = SketchBank(2, 4, 1, 1, [[0, 0, 0, 0]], repetitions=64, seed=3)
        for r in [(1, 1), (2, 3), (4, 4)]:
            bank.update(r)
        assert epsilon_l1_estimate(bank, 0.5, 0.5, c=1.0) == 0.0

    def test_single_tuple_gives_zero(self):
        bank = SketchBank(2, 4, 1, 1, [[1, 1, 1, 1]], repetitions=64, seed=3)
        bank.update((2, 3))
        assert epsilon_l1_estimate(bank, 0.5, 0.5, c=1.0) == pytest.approx(0.0, abs=1e-9)

    def test_repetition_floor_enforced(self):
        bank = SketchBank(2, 4, 1, 1, [[1, 1, 1, 1]], repetitions=10, seed=3)
        bank.update((1, 1))
        with pytest.raises(ConfigurationError):
            epsilon_l1_estimate(bank, 0.1, 0.05)

    def test_shape_enforced(self):
        bank = SketchBank(2, 4, 1, 0, [[1, 1, 1, 1]], repetitions=512, seed=3)
        bank.update((1, 1))
        with pytest.raises(ConfigurationError):
            epsilon_l1_estimate(bank, 0.5, 0.5, c=1.0)

    def test_concentration_on_known_target(self):
        # masked collapsed norm of the independence tensor, n=8
        rnd = random.Random(5)
        recs = [(rnd.randint(1, 8), rnd.randint(1, 8)) for _ in range(200)]
        recs += [(i, i) for i in range(1, 9)] * 12
        table = build_frequency_table(TupleStream(2, 8, recs))
        mask = [1, 0, 1, 1, 0, 1, 1, 0]
        target = l1_norm(suffix_sum(prefix_zero(dense_independence_tensor(table), [mask]), 1))
        assert target > 0
        eps, delta = 0.1, 0.05
        reps = required_epsilon_reps(eps, delta)
        hits = 0
        trials = 40
        for s in range(trials):
            bank = SketchBank(2, 8, 1, 1, [mask], repetitions=reps, seed=s)
            bank.bulk_update(table.joint)
            est = epsilon_l1_estimate(bank, eps, delta)
            hits += abs(est - target) <= 0.15 * target
        assert hits >= 0.9 * trials


class TestPolylogEstimate:
    def test_zero_target(self):
        bank = SketchBank(2, 4, 1, 0, [[0, 0, 0, 0]], repetitions=64, seed=3)
        bank.update((1, 1))
        assert polylog_l1_estimate(bank, 0.5, c=1.0) == 0.0

    def test_repetition_floor(self):
        bank = SketchBank(2, 4, 1, 0, [[1, 1, 1, 1]], repetitions=4, seed=3)
        bank.update((1, 1))
        with pytest.raises(ConfigurationError):
            polylog_l1_estimate(bank, 0.05)

    def test_degenerate_parameters_reduce_to_full_sketch(self):
        # s = s' = 0 sketches the whole tensor
        recs = [(1, 1), (2, 2), (1, 2)]
        bank = SketchBank(2, 2, 0, 0, [], repetitions=8, seed=11)
        for r in recs:
            bank.update(r)
        st_ = ProductSketchState.from_seeds(2, 2, 0, 0, [], seed=11, rep=0)
        for r in recs:
            st_.update(r)
        assert bank.values()[0] == pytest.approx(st_.value())

    def test_window_on_known_target(self):
        rnd = random.Random(6)
        recs = [(i, i) for i in range(1, 17)] * 6
        recs += [(rnd.randint(1, 16), rnd.randint(1, 16)) for _ in range(100)]
        table = build_frequency_table(TupleStream(2, 16, recs))
        mask = [rnd.randint(0, 1) for _ in range(16)]
        target = l1_norm(prefix_zero(dense_independence_tensor(table), [mask]))
        assert target > 0
        beta = 2 * math.log2(16) ** 2
        hits = 0
        trials = 40
        for s in range(trials):
            bank = SketchBank(2, 16, 1, 0, [mask], repetitions=192, seed=s)
            bank.bulk_update(table.joint)
            est = polylog_l1_estimate(bank, 0.05)
            hits += target / beta <= est <= beta * target
        assert hits >= 0.95 * trials


class TestSerialization:
    def test_round_trip(self):
        a = estimator(2, 4)
        a.consume([(1, 2), (3, 4), (2, 2)])
        snap = a.snapshot()
        back = estimator(2, 4)
        back.merge(snap)
        assert back.m_seen == a.m_seen == 3
        assert_same_accumulators(back.snapshot(), snap)
        assert back.report().to_json() == a.report().to_json()
        # the snapshot is a copy: the estimator it came from runs on
        a.consume([(4, 4)])
        assert_same_accumulators(back.snapshot(), snap)

    def test_unknown_format_rejected(self):
        a = estimator(2, 3)
        for fmt in ("product-sketch/1", "nope/9", None):
            snap = a.snapshot()
            snap["format"] = fmt
            with pytest.raises(ConfigurationError):
                a.merge(snap)

    def test_restored_state_merges_with_seeded_original(self):
        # a restored half merges into an estimator that consumed the other half
        for k, n, ov in SPLITS:
            a, b, _, want = split_run(k, n, ov)
            restored = estimator(k, n, overrides=ov)
            restored.merge(a.snapshot())
            b.merge(restored.snapshot())
            assert b.report().to_json() == want

    def test_snapshot_supports_pass_splitting(self):
        # snapshot after the first half, restore, finish the pass, compare
        for k, n, ov in SPLITS:
            a, _, second, want = split_run(k, n, ov)
            resumed = estimator(k, n, overrides=ov)
            resumed.merge(a.snapshot())
            resumed.consume(second)
            assert resumed.m_seen == 300
            assert resumed.report().to_json() == want
