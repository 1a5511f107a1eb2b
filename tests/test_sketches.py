"""Product-sketch mechanics: the production fold's update rules, linearity
(estimator snapshots and merge), the coefficient identity against the dense
tensor semantics, and the two estimators."""

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
from indisketch import estimator as estimator_mod, sketches, stream as stream_mod
from indisketch.sketches import required_epsilon_reps

from conftest import integer_bank, substitute_tables

# fold blocks (FOLD_BLOCK) and grid fills (GRID_FILL) that split banks,
# repetitions and leads, and send every suffix to its own lead or to the grid
GRID = sketches.GRID_FILL
FOLD_SHAPES = [(sketches.FOLD_BLOCK, GRID), (7, 0), (40, math.inf), (40, GRID), (7, GRID), (40, 0)]


# chunks whose indices into a table run 3-6 in every coordinate; hold 1, 4, 6
# in the first and run 3-6 in the second; and give leads (1, 1), (1, 3),
# (2, 2), (2, 4), whose second column 0, 2, 1, 3 spans 0-3 but is no run
FOLD_RECORDS = {
    "run-from-3": [(3, 4), (4, 6), (5, 3), (6, 5), (3, 3), (5, 6), (3, 4)],
    "gap-and-run": [(1, 3), (4, 4), (6, 5), (1, 6), (4, 3)],
    "unsorted-lead": [(1, 1, 2), (1, 3, 5), (2, 2, 2), (2, 4, 7), (1, 3, 2)],
}


def integer_tables(rng, rows, d, n):
    """``rows`` rows of d tables of small integers (-3..3) over [1, n]."""
    return rng.integers(-3, 4, (rows, d, n)).astype(np.float64)


def fold(bank, *chunks):
    """Fold each chunk of records into ``bank`` as one flush; returns the bank."""
    for chunk in chunks:
        bank.bulk_update(Counter(chunk))
    return bank


def one_record_per_flush(bank, recs):
    """The rows of ``bank`` after each record is folded as its own flush, the
    linearity rule every chunked fold must meet: (joint, margins)."""
    for rec in recs:
        bank.update(rec)
    return bank.joint, bank.margins


def reference_values(bank, recs, prefix):
    """The dense expansion of each row's tables of ``bank`` over ``recs``."""
    table = build_frequency_table(TupleStream(bank.k, bank.n, recs))
    coeff = bank.registry.tables((bank.s, bank.s_prime))
    return [reference_sketch_value(table, prefix, bank.s_prime, c.tolist()) for c in coeff]


class TestUpdateRules:
    def test_single_tuple_full_sketch(self):
        # s = s' = 0: joint is the coefficient product, margins the factors
        bank = integer_bank(2, 2, [], 0, [[[2.0, 5.0], [3.0, 7.0]]])
        bank.update((1, 2))
        assert bank.joint.tolist() == [2.0 * 7.0]
        assert bank.registry.groups[(0, 0)]["margins"].tolist() == [[1, 0], [0, 1]]
        assert bank.margins.tolist() == [[2.0, 7.0]]
        assert bank.m_seen == 1

    def test_empty_stream(self):
        bank = integer_bank(2, 2, [], 0, [[[1, 1], [1, 1]]])
        assert not bank.joint.any() and not bank.margins.any()
        with pytest.raises(EmptyStreamError):
            bank.values()

    def test_masked_prefix_annihilates_joint(self):
        bank = integer_bank(2, 2, [[0, 0]], 1, [[[1.5, 2.5]]])
        for rec in [(1, 1), (2, 2), (1, 2)]:
            bank.update(rec)
        assert bank.joint.tolist() == [0]
        assert bank.registry.groups[(1, 1)]["margins"].tolist() == [[2, 1], [1, 2]]
        assert bank.margins.tolist() == [[0, 1.5 + 2 * 2.5]]
        assert bank.values().tolist() == [0]

    def test_hand_expanded_value(self):
        # substituted coefficient values against the tensor expansion
        probes = [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(3)]]
        bank = integer_bank(2, 2, [], 0, [[[1, 2], [1, 3]]])
        for rec in [(1, 1), (2, 2)]:
            bank.update(rec)
        # m^(k-1)*joint - margin1*margin2 = 2*(1*1 + 2*3) - (1+2)*(1+3)
        assert bank.values().tolist() == [2 * 7 - 12] == [2]
        table = build_frequency_table(TupleStream(2, 2, [(1, 1), (2, 2)]))
        assert reference_sketch_value(table, [], 0, probes) == 2

    @pytest.mark.parametrize(
        "prefix,s_prime,coeff",
        [
            ([], 0, [[1, 2]] * 3),  # a table more than there are dimensions
            ([], 0, [[1, 2, 3], [1, 2]]),  # a table of 3 values at n = 2
            ([], 1, [[1, 2]]),  # s' = 1 with no prefix mask
            ([], 0, [[1, 2]]),  # a table too few
        ],
        ids=["extra-table", "long-table", "collapse-beyond-prefix", "missing-table"],
    )
    def test_reference_rejects_malformed_tables(self, prefix, s_prime, coeff):
        table = build_frequency_table(TupleStream(2, 2, [(1, 1), (2, 2), (1, 2)]))
        with pytest.raises(ConfigurationError):
            reference_sketch_value(table, prefix, s_prime, coeff)


class TestCoefficientIdentity:
    @pytest.mark.parametrize("k", [2, 3])
    def test_exact_probe_identity(self, k, monkeypatch):
        """Production rows on small-integer tables equal sum_i C(i) *
        collapsed-masked-tensor entry exactly, the records split over two
        flushes, at the first three fold shapes of FOLD_SHAPES."""
        rnd = random.Random(k)
        rng = np.random.default_rng(k)
        for trial in range(25):
            n = rnd.randint(2, 4)
            m = rnd.randint(1, 8)
            recs = [
                tuple(rnd.randint(1, n) for _ in range(k)) for _ in range(m)
            ]
            cut = rnd.randint(0, m)
            for s in range(k + 1):
                for sp in range(s + 1):
                    prefix = [
                        [rnd.randint(0, 1) for _ in range(n)] for _ in range(s)
                    ]
                    coeff = integer_tables(rng, 3, k - sp, n)
                    values = []
                    for block, fill in FOLD_SHAPES[:3]:
                        monkeypatch.setattr(sketches, "FOLD_BLOCK", block)
                        monkeypatch.setattr(sketches, "GRID_FILL", fill)
                        bank = fold(integer_bank(k, n, prefix, sp, coeff), recs[:cut], recs[cut:])
                        values.append(bank.values().tolist())
                    assert values == [reference_values(bank, recs, prefix)] * 3


# a small k = 3 plan, so that the merge tests stay fast
SMALL = EstimatorOverrides(amplification=1, rounds=1, eps_reps=3, polylog_reps=2)


def estimator(k, n, seed=7, overrides=None):
    return StreamDistanceEstimator(k, n, 0.3, 0.1, seed=seed, overrides=overrides)


def split_run(k, n, ov):
    """Two estimators fed the halves of a stream, and the report of one
    estimator fed the whole. Its snapshot after the first half folds its
    tally, so the halves split the whole run's pass on a fold point and the
    sums are those of the whole run, bit for bit."""
    recs = list(generate_synthetic("mixture(0.5)", k, n, 300, seed=k))
    first, second = recs[:130], recs[130:]
    whole = estimator(k, n, overrides=ov)
    whole.consume(first)
    whole.snapshot()
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
        assert g.keys() == y["groups"][key].keys()
        for name in g:
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

    def test_merge_refuses_other_formats_and_layouts(self):
        """A snapshot of format /1 (per-row margins) or /2 (a joint per
        sharp row) is refused, and one of format /3 that carries per-row
        (rows, k) margins or a joint per sharp row adds nothing."""
        a = estimator(2, 3)
        a.consume([(1, 2), (3, 3)])
        before = a.snapshot()
        other = estimator(2, 3)
        other.consume([(1, 1)])
        snap = other.snapshot()
        ((key, g),) = snap["groups"].items()  # the sharp group alone
        rows = other.bank_rows()
        per_row = {key: {**g, "margins": np.ones((rows, 2))}}
        per_sharp_row = {key: {"joint": np.ones(rows), "margins": g["margins"]}}
        for old, groups in (("/1", per_row), ("/2", per_sharp_row)):
            with pytest.raises(ConfigurationError):
                a.merge({**snap, "format": "indisketch-snapshot" + old, "groups": groups})
        for groups in (per_row, per_sharp_row):
            with pytest.raises(MergeIncompatibleError):
                a.merge({**snap, "groups": groups})
        assert_same_accumulators(a.snapshot(), before)

    def test_merge_at_flush_points_is_byte_identical(self, monkeypatch):
        """A stream cut where one run flushes, each part snapshotted and the
        snapshots merged in order, gives that run's report to the byte: the
        value counts are exact, and the joint sums are added in fold order.
        The first part spans several flushes, the others one flush each, on
        the sorted tally: a dense one is folded once, at the snapshot."""
        monkeypatch.setattr(stream_mod, "DENSE_CELLS", 0)
        k, n, ov, bound = 3, 3, SMALL, 4
        monkeypatch.setattr(estimator_mod, "_FOLD_TUPLES", bound)
        recs = list(generate_synthetic("mixture(0.5)", k, n, 200, seed=5))
        # a chunk closes at the record that brings it to the fold bound's distinct tuples
        ends, seen = [], set()
        for i, rec in enumerate(recs):
            seen.add(rec)
            if len(seen) == bound:
                ends.append(i + 1)
                seen = set()
        whole = estimator(k, n, overrides=ov)
        whole.consume(recs)
        cuts = [0, ends[-2], ends[-1], len(recs)]
        assert len(ends) > 5 and cuts[-2] < cuts[-1]
        merged = estimator(k, n, overrides=ov)
        for lo, hi in zip(cuts, cuts[1:]):
            part = estimator(k, n, overrides=ov)
            part.consume(recs[lo:hi])
            merged.merge(part.snapshot())
        assert_same_accumulators(merged.snapshot(), whole.snapshot())
        assert merged.report().to_json() == whole.report().to_json()
        counts = [np.bincount(np.array(recs)[:, j] - 1, minlength=n) for j in range(k)]
        for g in merged.snapshot()["groups"].values():
            assert g["margins"].tolist() == np.array(counts, dtype=float).tolist()

    @pytest.mark.parametrize("cells", [stream_mod.DENSE_CELLS, 0], ids=["dense", "sorted"])
    def test_sharp_only_merge_is_byte_identical_at_any_cut(self, cells, monkeypatch):
        """A sharp-only plan holds exact integer state: the value counts and
        each bank's masked counts. So a stream cut at records that are no
        fold point, each part snapshotted and the snapshots merged, gives
        the one-pass report to the byte, on the dense tally (folded once)
        and on the sorted one (folded at every 4 distinct tuples)."""
        monkeypatch.setattr(stream_mod, "DENSE_CELLS", cells)
        bound = 4
        monkeypatch.setattr(estimator_mod, "_FOLD_TUPLES", bound)
        for k, n, ov in SPLITS:
            recs = list(generate_synthetic("mixture(0.5)", k, n, 300, seed=k + 10))
            ends, seen = [], set()  # the sorted tally's fold points
            for i, rec in enumerate(recs):
                seen.add(rec)
                if len(seen) == bound:
                    ends.append(i + 1)
                    seen = set()
            cuts = [0, ends[1] + 1, ends[4] - 1, ends[6] + 2, len(recs)]
            assert not set(cuts[1:-1]) & set(ends)
            whole = estimator(k, n, overrides=ov)
            assert list(whole.registry.groups) == [(k - 1, k - 1)]
            whole.consume(recs)
            merged = estimator(k, n, overrides=ov)
            for lo, hi in zip(cuts, cuts[1:]):
                part = estimator(k, n, overrides=ov)
                part.consume(recs[lo:hi])
                merged.merge(part.snapshot())
            assert_same_accumulators(merged.snapshot(), whole.snapshot())
            assert merged.report().to_json() == whole.report().to_json()

    def test_permutation_invariance(self):
        recs = [(1, 2), (3, 1), (2, 2), (3, 3)]
        a, b = (SketchBank(2, 3, 1, 1, [[1, 1, 0]], repetitions=4, seed=3) for _ in range(2))
        one_record_per_flush(a, recs)
        one_record_per_flush(b, reversed(recs))
        assert a.values() == pytest.approx(b.values())


class TestBank:
    def test_bank_rows_match_scalar_states(self):
        """Rows of seeded Cauchy tables, fed a record at a time, equal the
        dense expansion of their own tables."""
        recs = [(1, 2), (3, 4), (1, 1), (2, 2), (4, 4)]
        bank = SketchBank(2, 4, 1, 1, [[1, 0, 1, 1]], repetitions=6, seed=42)
        one_record_per_flush(bank, recs)
        assert bank.values() == pytest.approx(reference_values(bank, recs, [[1, 0, 1, 1]]))

    @pytest.mark.parametrize(
        "s,s_prime", [(s, sp) for s in range(4) for sp in range(s + 1)]
    )
    def test_every_depth_pair_matches_scalar_states(self, s, s_prime):
        """Two flushes on small-integer tables give the dense expansion
        exactly, and the rows of one flush per record, bit for bit."""
        masks = [[1, 0, 1], [1, 1, 0], [0, 1, 1]][:s]
        recs = [(1, 2, 3), (3, 1, 1), (1, 3, 2), (2, 2, 2), (1, 2, 3), (3, 3, 1)]
        coeff = integer_tables(np.random.default_rng(17), 5, 3 - s_prime, 3)
        bank = fold(integer_bank(3, 3, masks, s_prime, coeff), recs[:4], recs[4:])
        assert bank.m_seen == len(recs)
        assert bank.values().tolist() == reference_values(bank, recs, masks)
        joint, margins = one_record_per_flush(integer_bank(3, 3, masks, s_prime, coeff), recs)
        assert np.array_equal(bank.joint, joint) and np.array_equal(bank.margins, margins)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_margins_follow_value_counts_at_every_depth(self, k):
        """Every (s, s') on small-integer tables, the records folded over
        flushes of at most three records: ``margins`` holds the stream's
        value counts exactly, and each row's margins formed from them equal
        a fold of one record per flush and the update rule summed record by
        record, exactly."""
        n, m = 5, 20
        rng = np.random.default_rng(40 + k)
        recs = [tuple(r) for r in rng.integers(1, n + 1, (m, k)).tolist()]
        masks = rng.integers(0, 2, (k, n))
        counts = [np.bincount(np.array(recs)[:, j] - 1, minlength=n).tolist() for j in range(k)]
        for s in range(k + 1):
            for s_prime in range(s + 1):
                coeff = integer_tables(rng, 3, k - s_prime, n)  # three rows

                def rule(r, j, x):  # record value x's term of row r's margin j
                    mask = masks[j][x - 1] if j < s else 1
                    return mask * (coeff[r, j - s_prime, x - 1] if j >= s_prime else 1)

                chunks = [recs[i : i + 3] for i in range(0, m, 3)]
                bank = fold(integer_bank(k, n, masks[:s], s_prime, coeff), *chunks)
                assert bank.registry.groups[(s, s_prime)]["margins"].tolist() == counts
                want = [[sum(rule(r, j, x[j]) for x in recs) for j in range(k)] for r in range(3)]
                assert bank.margins.tolist() == want
                one_each = integer_bank(k, n, masks[:s], s_prime, coeff)
                _, margins = one_record_per_flush(one_each, recs)
                assert np.array_equal(bank.margins, margins)

    @pytest.mark.parametrize(
        "k,chunk",
        [(k, chunk) for k in (2, 3, 4) for chunk in ("repeats", "permutation")]
        + [(2, "run-from-3"), (2, "gap-and-run"), (3, "unsorted-lead")],
    )
    def test_fold_matches_scalar_states_at_every_depth(self, k, chunk, monkeypatch):
        """Every (s, s') at k = 2, 3, 4, s' = k - 1 and s' = k among them, on
        small-integer tables. A permutation chunk's n distinct suffixes fill
        1/n of their lead-by-last grid when s' < k - 1; the chunks of
        ``FOLD_RECORDS`` index the tables at a run, a gap and a run, and an
        unsorted lead column. At every fold shape of FOLD_SHAPES (small
        blocks split the banks, a bank's repetitions and the leads;
        GRID_FILL = 0 folds every suffix as its own lead) the rows are the
        same to the bit and their values the dense expansion, and no fold
        writes into the masks or the Cauchy tables it reads."""
        n, reps = 7, 4
        rng = np.random.default_rng(k)
        if chunk == "permutation":
            recs = list(zip(*(rng.permutation(n).tolist() for _ in range(k))))
            recs = [tuple(x + 1 for x in r) for r in recs]
        elif chunk == "repeats":
            recs = [tuple(r) for r in rng.integers(1, 4, (10, k)).tolist()]
        else:
            recs = FOLD_RECORDS[chunk]
        chunks = (recs, recs[:3])  # one flush of the whole chunk, then a few repeats
        masks = [rng.integers(0, 2, n) | (np.arange(n) % 3 == 0) for _ in range(k)]
        for s in range(k + 1):
            for s_prime in range(s + 1):
                coeff = integer_tables(rng, reps, k - s_prime, n)
                rows = []
                for block, fill in FOLD_SHAPES:
                    monkeypatch.setattr(sketches, "FOLD_BLOCK", block)
                    monkeypatch.setattr(sketches, "GRID_FILL", fill)
                    bank = integer_bank(k, n, masks[:s], s_prime, coeff)
                    group, reg = bank.registry.groups[(s, s_prime)], bank.registry
                    read = group["prefix"].tobytes(), reg.tables((s, s_prime)).tobytes()
                    fold(bank, *chunks).registry.fold_pending()
                    assert (group["prefix"].tobytes(), reg.tables((s, s_prime)).tobytes()) == read
                    rows.append((bank.joint, bank.margins))
                assert bank.values().tolist() == reference_values(bank, recs + recs[:3], masks[:s])
                for joint, margins in rows[1:]:
                    assert np.array_equal(joint, rows[0][0]) and np.array_equal(margins, rows[0][1])

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
        coeff = integer_tables(rng, 3, 2, n)  # the rows checked below, exactly
        substitute_tables(bank.registry, (2, 1), coeff)
        counts = Counter(recs)
        tracemalloc.start()
        bank.bulk_update(counts)
        bank.registry.fold_pending()  # the fold, drawing each block's tables
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # beyond the draw workspace, which the first draw reserves for later ones
        assert peak - bank.registry._work.nbytes < 1 << 20
        joint, margins = one_record_per_flush(integer_bank(k, n, masks, 1, coeff), recs)
        assert np.array_equal(bank.joint[:3], joint) and np.array_equal(bank.margins[:3], margins)

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
        coeff = integer_tables(rng, 2, 2, n)  # the rows checked below, exactly
        substitute_tables(bank.registry, (2, 1), coeff)
        tracemalloc.start()
        bank.bulk_update(counts)
        bank.registry.fold_pending()  # the fold, drawing each block's tables
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 6 * 8 * sketches.FOLD_BLOCK
        joint, margins = one_record_per_flush(integer_bank(k, n, masks, 1, coeff), counts)
        assert np.array_equal(bank.joint[:2], joint) and np.array_equal(bank.margins[:2], margins)

    def test_sparse_flush_does_not_build_the_grid(self, monkeypatch):
        # 5,000 permutation suffixes at n = 100,000 fill 1/5000 of their
        # 25M-cell grid: every sum the fold builds has at most one cell
        # per suffix, so the cost is that of per-suffix gathers
        n, N, reps = 100_000, 5000, 64
        rng = np.random.default_rng(8)
        mask = rng.integers(0, 2, n)
        counts = {(i + 1, int(x) + 1): 1 for i, x in enumerate(rng.permutation(n)[:N])}
        bank = SketchBank(2, n, 1, 0, [mask], repetitions=reps, seed=37)
        coeff = integer_tables(rng, 2, 2, n)  # the rows checked below, exactly
        substitute_tables(bank.registry, (1, 0), coeff)
        bincount = np.bincount

        def bounded(x, weights=None, minlength=0):
            out = bincount(x, weights, minlength)
            assert out.size <= N, f"a fold sum of {out.size} cells for {N} suffixes"
            return out

        monkeypatch.setattr(np, "bincount", bounded)
        bank.bulk_update(counts)
        bank.registry.fold_pending()
        monkeypatch.undo()
        joint, margins = one_record_per_flush(integer_bank(2, n, [mask], 0, coeff), counts)
        assert np.array_equal(bank.joint[:2], joint) and np.array_equal(bank.margins[:2], margins)

    def test_masks_hold_only_zero_and_one(self):
        # the registry stores masks as uint8, which would truncate 0.5
        for bad in ([1, 0.5, 0], [2, 0, 1], [1, -1, 0]):
            with pytest.raises(ConfigurationError, match="only 0 and 1"):
                SketchBank(2, 3, 1, 0, [bad], repetitions=2, seed=7)

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
        one_record_per_flush(bank, recs)
        assert bank.values() == pytest.approx(reference_values(bank, recs, []))

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
