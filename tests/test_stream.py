"""Frequency tables, the independence tensor and the exact oracle."""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indisketch import (
    ConfigurationError,
    EmptyStreamError,
    EstimateReport,
    FrequencyTable,
    MalformedInputError,
    StreamDistanceEstimator,
    TupleStream,
    build_frequency_table,
    dimension_reduce,
    distance_from_tensor_norm,
    exact_statistical_distance,
    independence_tensor_entry,
)
from indisketch.cli import RunConfig, format_report, run
from indisketch.estimator import vector_sub_oracles
from indisketch import stream as stream_mod
from indisketch.stream import RECORD_BLOCK, TupleTally, checked_tuple, record_blocks


def table_of(stream, k=2, n=2):
    return build_frequency_table(TupleStream(k, n, stream))


class TestBuildFrequencyTable:
    def test_hand_count(self):
        t = table_of([(1, 1), (2, 2)])
        assert t.m == 2
        assert t.joint == {(1, 1): 1, (2, 2): 1}
        assert t.margins[0] == {1: 1, 2: 1}
        assert t.margins[1] == {1: 1, 2: 1}

    def test_empty_stream(self):
        t = table_of([])
        assert t.m == 0
        assert t.joint == {}
        assert all(marg == {} for marg in t.margins)

    def test_repeated_tuple(self):
        t = table_of([(1, 2), (1, 2)])
        assert t.joint == {(1, 2): 2}
        assert t.margins[0] == {1: 2}
        assert t.margins[1] == {2: 2}

    def test_out_of_range_reports_record_index(self):
        with pytest.raises(MalformedInputError) as err:
            table_of([(1, 1), (3, 1)])
        assert "record 2" in str(err.value)

    def test_wrong_arity(self):
        with pytest.raises(MalformedInputError):
            table_of([(1, 1, 1)])

    def test_margin_consistency(self):
        t = table_of([(1, 1), (1, 2), (2, 1), (1, 1)])
        assert sum(t.joint.values()) == t.m
        for l in range(t.k):
            assert sum(t.margins[l].values()) == t.m
        # f_l(t) equals the sum of joint counts with coordinate l = t
        for l in range(t.k):
            for v in range(1, t.n + 1):
                direct = sum(c for i, c in t.joint.items() if i[l] == v)
                assert t.margins[l].get(v, 0) == direct


class TestCoordinateChecks:
    """Records must hold integral coordinates; nothing is truncated."""

    def test_non_integral_coordinate_names_record(self):
        with pytest.raises(MalformedInputError) as err:
            checked_tuple((1.9, 2.7), 2, 4, index=3)
        assert "record 3: non-integer coordinate 1.9" in str(err.value)
        for bad in ((1, float("nan")), (1, float("inf")), (1, "2"), (1, 2.5 + 0j)):
            with pytest.raises(MalformedInputError):
                checked_tuple(bad, 2, 4)
        with pytest.raises(MalformedInputError, match="non-integer coordinate 2.5"):
            checked_tuple(iter([1, 2.5]), 2, 4)

    def test_integral_floats_and_numpy_integers_accepted(self):
        t = checked_tuple((2.0, np.int64(3), np.uint8(1), np.float32(4.0)), 4, 4)
        assert t == (2, 3, 1, 4) and all(type(x) is int for x in t)

    def test_exact_route_rejects_non_integral_tuples(self):
        with pytest.raises(MalformedInputError) as err:
            table_of([(1, 1), (1.5, 2.2)])
        assert "record 2" in str(err.value)
        assert table_of([(1.0, 2.0), (np.int32(1), 2)]).joint == {(1, 2): 2}

    def test_exact_route_rejects_non_integral_blocks(self):
        block = np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 1.5]])
        with pytest.raises(MalformedInputError) as err:
            table_of([(1, 1), block])
        assert str(err.value) == "record 4: non-integer coordinate 1.5"
        assert table_of([block[:2]]).joint == {(1, 2): 1, (2, 1): 1}

    @pytest.mark.parametrize("bad", [
        [1, 0], [3, 1], [1.5, 1], [np.nan, 2], [-np.inf, 1],
        np.array([0, 1], dtype=np.uint8), np.array([1, 3], dtype=np.uint8),
        np.array([0, 2], dtype=np.uint64), np.array([3, 1], dtype=np.uint64),
        np.array([-0.0, 1.0]), np.array([2.0, np.inf]),
    ])
    def test_block_errors_match_per_record_errors(self, bad):
        """The block check names the bad row of the block's second slice, of
        any integer or float dtype, as ``checked_tuple`` names it."""
        good = [[1, 2]] * (RECORD_BLOCK + 5)
        if isinstance(bad, np.ndarray):
            dtype, bad = bad.dtype, bad.tolist()
        else:
            dtype = np.int64 if all(float(x).is_integer() for x in bad) else np.float64
        block = np.array(good + [bad] + good, dtype=dtype)
        at = 2 + len(good) + 1  # after two tuples and the good rows
        with pytest.raises(MalformedInputError) as got:
            list(record_blocks([(2, 2), (1, 1), block], 2, 2))
        with pytest.raises(MalformedInputError) as want:
            checked_tuple(tuple(bad), 2, 2, at)
        assert str(got.value) == str(want.value) and got.value.index == at

    def test_block_arity_error_names_its_first_row(self):
        with pytest.raises(MalformedInputError) as err:
            list(record_blocks([(2, 2), np.ones((3, 3), dtype=np.int64)], 2, 2))
        assert str(err.value) == "record 2: expected 2 coordinates, got 3"

    def test_blocks_and_tuples_keep_order_and_numbering(self):
        source = [(1, 2), np.array([[2, 2]] * (RECORD_BLOCK + 1)), (2, 1), (1, 1)]
        blocks = list(record_blocks(source, 2, 2))
        assert all(b.dtype == np.int64 and len(b) <= RECORD_BLOCK for b in blocks)
        rows = np.concatenate(blocks).tolist()
        assert rows == [[1, 2]] + [[2, 2]] * (RECORD_BLOCK + 1) + [[2, 1], [1, 1]]
        with pytest.raises(MalformedInputError) as err:
            list(record_blocks(source + [(3, 1)], 2, 2, start=10))
        assert err.value.index == 10 + RECORD_BLOCK + 5


@pytest.mark.parametrize(
    "k,n,message",
    [
        (2.5, 4, "non-integer k 2.5"),
        (1, 4, "k must be >= 2"),
        (2, 0, "n must be >= 1"),
        (2, -1, "n must be >= 1"),
        (2, 2.5, "non-integer n 2.5"),
    ],
)
def test_domain_checked_on_every_route(k, n, message):
    """[n]^k needs an integral k >= 2 and n >= 1 on every route: a stream,
    a run (which validates its RunConfig first), the one-pass estimator and
    the oracle reduction, which has no arity."""
    routes = [
        lambda: TupleStream(k, n, []),
        lambda: run(RunConfig(k=k, n=n, generate="diagonal", m=5)),
        lambda: StreamDistanceEstimator(k, n, 0.3, 0.1),
    ]
    if k == 2:
        routes.append(lambda: dimension_reduce(n, vector_sub_oracles([1.0]), 0.3, 0.1))
    for route in routes:
        with pytest.raises(ConfigurationError, match=message):
            route()


@pytest.mark.parametrize("seed", [2.7, 1.5, -0.5, float("nan"), "3", None])
def test_seed_checked_as_integral(seed):
    """A non-integral seed is a configuration error on every route, not a
    seed truncated to an int while the report's config shows the original."""
    routes = [
        lambda: run(RunConfig(k=2, n=4, mode="sketch", generate="diagonal", m=20, seed=seed)),
        lambda: run(RunConfig(k=2, n=4, mode="exact", generate="diagonal", m=20, seed=seed)),
        lambda: StreamDistanceEstimator(2, 4, 0.3, 0.1, seed=seed),
        lambda: dimension_reduce(4, vector_sub_oracles([1.0] * 4), 0.3, 0.1, seed=seed),
    ]
    for route in routes:
        with pytest.raises(ConfigurationError, match="seed"):
            route()


def test_negative_and_integral_float_seeds_accepted():
    assert StreamDistanceEstimator(2, 4, 0.3, 0.1, seed=-3.0).seed == -3
    reports = [
        format_report(run(RunConfig(k=2, n=4, mode="sketch", generate="diagonal", m=20, seed=s)), "json")
        for s in (-2.0, -2)
    ]
    assert reports[0] == reports[1] and '"seed": -2,' in reports[0]


GOOD_COORD = st.integers(1, 3)
ODD_COORD = st.sampled_from(
    [0, 4, -1, 2**63, 2**64 + 5, -(2**70), True, False, 2.0, 2.5, float("nan"), float("inf"),
     "2", None, np.int64(3), np.uint8(1), np.float32(2.0), np.float32(2.5), np.bool_(True)]
)
RECORD = st.tuples(
    st.sampled_from(["tuple", "list", "iter", "array"]),
    st.one_of(
        st.lists(GOOD_COORD, min_size=3, max_size=3),
        st.lists(GOOD_COORD, min_size=3, max_size=3),
        st.lists(st.one_of(GOOD_COORD, ODD_COORD), min_size=2, max_size=4),
    ),
)


def _build(records):
    """Fresh record objects (iterators are used up by a pass)."""
    kinds = {"tuple": tuple, "list": list, "iter": iter}
    out = []
    for kind, coords in records:
        if kind == "array":
            try:
                out.append(np.array(coords))
            except (ValueError, TypeError, OverflowError):
                out.append(tuple(coords))
        else:
            out.append(kinds[kind](coords))
    return out


def _outcome(fn):
    try:
        return fn(), None
    except (MalformedInputError, TypeError) as err:
        return None, (type(err), str(err), getattr(err, "index", None))


@given(st.lists(RECORD, min_size=1, max_size=12), st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_record_batches_match_per_record_checks(records, start):
    k, n = 3, 3
    want, want_err = _outcome(
        lambda: [checked_tuple(r, k, n, start + 1 + i) for i, r in enumerate(_build(records))]
    )
    for block in (1, 3, RECORD_BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stream_mod, "RECORD_BLOCK", block)
            got, got_err = _outcome(lambda: list(record_blocks(_build(records), k, n, start)))
        assert got_err == want_err
        if want is not None:
            assert all(b.dtype == np.int64 and b.shape[1:] == (k,) for b in got)
            assert [b.tolist() for b in got] == [
                [list(r) for r in want[i : i + block]] for i in range(0, len(want), block)
            ]


class TestTupleTally:
    # a dense table, byte keys, sorted int64 keys
    @pytest.mark.parametrize("k,n", [(2, 5), (4, 70000), (3, 100)])
    @pytest.mark.parametrize("limit", [1, 2, 7, 40])
    def test_limit_stops_where_a_record_at_a_time_count_does(self, k, n, limit, monkeypatch):
        rng = np.random.default_rng(limit)
        values = np.array([1, 2, n - 1, n])
        recs = values[rng.integers(0, 4, (300, k))]
        pre = limit // 2  # fewer distinct tuples than the limit
        tally = TupleTally(k, n)
        tally.add(recs[:pre])
        seen = set(map(tuple, recs[:pre].tolist()))
        taken = tally.add(recs[pre:], limit)
        for i, r in enumerate(recs[pre:].tolist(), start=1):
            seen.add(tuple(r))
            if len(seen) >= limit:
                break
        assert taken == i and len(tally) == len(seen)
        want = Counter(map(tuple, recs[: pre + taken].tolist()))
        got = dict(zip(map(tuple, tally.tuples().tolist()), tally.counts.tolist()))
        assert got == want and tally.m == pre + taken
        if n**k <= stream_mod.DENSE_CELLS:  # the sorted form counts the same, in the same order
            monkeypatch.setattr(stream_mod, "DENSE_CELLS", 0)
            other = TupleTally(k, n)
            assert other._table is None
            other.add(recs[:pre])
            assert other.add(recs[pre:], limit) == taken
            assert np.array_equal(other.tuples(), tally.tuples())
            assert np.array_equal(other.counts, tally.counts)
            assert (len(other), other.m) == (len(tally), tally.m)

    def test_exact_route_beyond_int64_keys(self):
        # n^k >= 2^63, so tuples cannot be one int64 key
        k, n = 4, 70000
        assert n**k >= 2**63
        rng = np.random.default_rng(9)
        recs = rng.integers(1, n + 1, (300, k))
        recs = np.concatenate([recs, recs[:50], [[n] * k, [1, n, 1, n]]])
        table = build_frequency_table(TupleStream(k, n, [recs[:100], *map(tuple, recs[100:])]))
        joint = Counter(map(tuple, recs.tolist()))
        margins = [dict(Counter(recs[:, l].tolist())) for l in range(k)]
        assert table.joint == joint and table.margins == margins and table.m == len(recs)
        ref = FrequencyTable(k=k, n=n, m=len(recs), joint=dict(joint), margins=margins)
        assert exact_statistical_distance(table) == exact_statistical_distance(ref)


class TestIndependenceTensorEntry:
    def test_correlated_pair(self):
        # m^(k-1)*f - f_1*f_2 = 2*1 - 1*1 for the seen diagonal cell
        t = table_of([(1, 1), (2, 2)])
        assert independence_tensor_entry(t, (1, 1)) == 1
        assert independence_tensor_entry(t, (1, 2)) == -1

    def test_single_tuple_is_independent(self):
        t = table_of([(1, 1)])
        assert independence_tensor_entry(t, (1, 1)) == 0

    def test_constant_column_is_independent(self):
        # first coordinate constant: joint factorizes, all entries vanish
        t = table_of([(1, 1), (1, 2)])
        for i in itertools.product((1, 2), repeat=2):
            assert independence_tensor_entry(t, i) == 0

    def test_empty_stream_error(self):
        with pytest.raises(EmptyStreamError):
            independence_tensor_entry(table_of([]), (1, 1))

    def test_index_checked_as_a_record(self):
        t = table_of([(1, 1), (2, 2)])
        assert independence_tensor_entry(t, (np.int64(1), 2.0)) == -1
        for index, message in [
            ((1.5, 1), "non-integer coordinate 1.5"),  # never read as (1, 1)
            ((1, 1, 1), "expected 2 coordinates, got 3"),
            ((3, 1), "coordinate 3 outside"),
        ]:
            with pytest.raises(MalformedInputError, match=message):
                independence_tensor_entry(t, index)

    def test_bound(self):
        t = table_of([(1, 1)] * 4)
        for i in itertools.product((1, 2), repeat=2):
            assert abs(independence_tensor_entry(t, i)) <= 2 * t.m**t.k


class TestExactStatisticalDistance:
    def test_perfectly_correlated(self):
        assert exact_statistical_distance(table_of([(1, 1), (2, 2)])) == Fraction(1, 2)

    def test_single_tuple(self):
        assert exact_statistical_distance(table_of([(1, 1)])) == 0

    def test_uniform_product(self):
        t = table_of([(1, 1), (1, 2), (2, 1), (2, 2)])
        assert exact_statistical_distance(t) == 0

    def test_empty(self):
        with pytest.raises(EmptyStreamError):
            exact_statistical_distance(table_of([]))

    def test_range(self):
        t = table_of([(1, 1), (1, 1), (2, 2), (1, 2)])
        d = exact_statistical_distance(t)
        assert 0 <= d <= 1


class TestDistanceFromTensorNorm:
    def test_matches_exact_oracle(self):
        t = table_of([(1, 1), (2, 2)])
        norm = sum(
            abs(independence_tensor_entry(t, i))
            for i in itertools.product((1, 2), repeat=2)
        )
        assert norm == 4
        assert distance_from_tensor_norm(norm, 2, 2) == Fraction(1, 2)
        assert distance_from_tensor_norm(norm, 2, 2) == exact_statistical_distance(t)

    def test_zero_norm(self):
        assert distance_from_tensor_norm(0, 5, 2) == 0

    def test_maximal_norm(self):
        m, k = 3, 2
        assert distance_from_tensor_norm(2 * m**k, m, k) == 1

    def test_empty(self):
        with pytest.raises(EmptyStreamError):
            distance_from_tensor_norm(4, 0, 2)


streams = st.integers(min_value=2, max_value=3).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.tuples(*([st.integers(min_value=1, max_value=n)] * k)),
                min_size=1,
                max_size=8,
            ).map(lambda recs: (n, recs))
        ),
    )
)


@given(streams)
@settings(max_examples=200, deadline=None)
def test_norm_identity_property(data):
    """Tensor-norm normalization reproduces the oracle exactly."""
    k, (n, recs) = data
    t = build_frequency_table(TupleStream(k, n, recs))
    norm = sum(
        abs(independence_tensor_entry(t, i))
        for i in itertools.product(range(1, n + 1), repeat=k)
    )
    assert distance_from_tensor_norm(norm, t.m, k) == exact_statistical_distance(t)


@given(streams, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(data, rnd):
    k, (n, recs) = data
    shuffled = list(recs)
    rnd.shuffle(shuffled)
    t1 = build_frequency_table(TupleStream(k, n, recs))
    t2 = build_frequency_table(TupleStream(k, n, shuffled))
    for i in itertools.product(range(1, n + 1), repeat=k):
        assert independence_tensor_entry(t1, i) == independence_tensor_entry(t2, i)


class TestEstimateReport:
    def test_exact_presence_invariant(self):
        with pytest.raises(ValueError):
            EstimateReport(
                distance_estimate=0.5, m=1, n=2, k=2, mode="sketch", seed=0,
                exact_distance=0.5,
            )
        with pytest.raises(ValueError):
            EstimateReport(
                distance_estimate=0.5, m=1, n=2, k=2, mode="both", seed=0,
            )

    def test_json_round_trip_fields(self):
        rep = EstimateReport(
            distance_estimate=0.25, m=4, n=2, k=2, mode="sketch", seed=7,
            diagnostics={"rounds": 3},
        )
        assert '"distance_estimate": 0.25' in rep.to_json()
