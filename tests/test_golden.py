"""Golden values of every randomness derivation, pinned exactly.

The values were recorded from the numpy-scalar implementation of the hash
core. Any faster path (pure-int scalars, batched tables, row blocks) must
reproduce them bit for bit, because a bank's tables are pure functions of
(seed, index) and reports must stay byte-identical for identical seeds.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from indisketch import (
    CoverConfig,
    EstimatorOverrides,
    LayerConfig,
    SubAlgorithms,
    TournamentConfig,
    TupleStream,
    build_frequency_table,
    cover_algorithm,
    dense_independence_tensor,
    dimension_reduce,
    exact_sub_oracles,
    layered_l1_estimate,
    tensor_tournament,
)
from indisketch.cli import generate_synthetic
from indisketch.estimator import (
    StreamDistanceEstimator,
    _sides,
    vector_sub_oracles,
)
from indisketch.hashing import (
    BucketHash,
    ZeroOneHash,
    batched_cauchy_tables,
    derive_key,
    mix64,
)
from indisketch.sketches import repetition_seeds

from conftest import row_seed

U = np.uint64


class TestDeriveKey:
    def test_scalar(self):
        cases = [
            ((0,), 0),
            ((7, 1, 2), 10274041424000653043),
            ((-1, 5), 7958955049054603978),
            ((-(2**40), 3, 4), 11515194881029099627),
            ((2**63 + 5, 9), 15937073515996368525),
            ((2**64 - 1, 0), 16490336266968443936),
            ((11, U(2**64 - 1), U(3)), 14499576813202072044),
            ((U(2**63), 0x5A01), 1903083919149695542),
        ]
        for args, expected in cases:
            got = derive_key(*args)
            assert type(got) is np.uint64
            assert int(got) == expected, args

    def test_array(self):
        got = derive_key(np.arange(4, dtype=np.uint64), 0xCA)
        assert got.dtype == np.uint64
        assert got.tolist() == [
            16616562186316015768,
            13048158563546023526,
            1669485836469994413,
            12190486122897749068,
        ]
        pair = derive_key(np.array([1, 2**63], dtype=np.uint64), np.array([3, 4], dtype=np.uint64))
        assert pair.tolist() == [7958955049054603978, 1380322360509708497]
        signed = derive_key(np.array([-1, -2], dtype=np.int64), 3)
        assert signed.tolist() == [10905525725756348110, 10451216379200822465]

    def test_mixed(self):
        got = derive_key(5, np.arange(3, dtype=np.uint64), 7)
        assert got.tolist() == [11366068353801517725, 3116763096878992355, 9537508092927057482]
        got = derive_key(-3, 1, np.array([0, 2**64 - 1], dtype=np.uint64), U(9))
        assert got.tolist() == [14270441327545726710, 2343771774125348238]


def test_mix64():
    expected = [0, 6238072747940578789, 2720858781877447050, 13029008266876403067]
    for x, want in zip([0, 1, 2**63, 2**64 - 1], expected):
        assert type(mix64(x)) is np.uint64 and int(mix64(x)) == want
    assert int(mix64(U(12345))) == 17540659726606785873
    assert mix64(np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)).tolist() == expected


def test_field_hashes():
    cases = {
        101: ((1208354748, 1385211613, [1, 0, 0, 0, 0, 1, 0, 1]),
              (250577143, 1402562013, [2, 5, 4, 2, 5, 3, 1, 4])),
        -7: ((1496373613, 1851381686, [0, 1, 0, 0, 0, 1, 0, 0]),
             (289679871, 1485687204, [1, 2, 4, 5, 1, 2, 3, 4])),
        2**63 + 1: ((1990344849, 1800906498, [0, 0, 0, 0, 0, 0, 0, 1]),
                    (1614778586, 1183350412, [5, 2, 3, 5, 2, 4, 5, 2])),
    }
    for seed, (zo, bk) in cases.items():
        h = ZeroOneHash(seed=seed, n=8, q=0.3)
        assert (h.a, h.b, h.threshold, h.table().tolist()) == (*zo[:2], 644245098, zo[2])
        g = BucketHash(seed=seed, n=8, buckets=5)
        assert (g.a, g.b, g.table().tolist()) == bk


def test_cauchy_tables():
    # rows whose family-0 table is keyed by derive_key(11, 0x5A03), and whose
    # family-1 table, clamped at 2, by derive_key(-3, 0x5A03)
    plain = batched_cauchy_tables(np.array([row_seed(11, 0)], dtype=U), 1, 4, 2.0)
    clamped = batched_cauchy_tables(np.array([row_seed(-3, 1)], dtype=U), 2, 4, 2.0)
    assert plain[0, 0].tolist() == [
        7.712597077449276, -0.5132330670198094, 0.3304116789888587, 0.23497613879634208,
    ]
    assert clamped[0, 1].tolist() == [
        -0.31430820754514355, -0.09106805153680986, -0.12145283412565284, 1.5924525072648779,
    ]
    rows = repetition_seeds(2**63 + 17, 3)
    assert rows.tolist() == [12039605998723614757, 11478645463371952101, 4603749254032992051]
    assert repetition_seeds(-9, 2).tolist() == [16963583417891044740, 11586702598117284502]
    assert batched_cauchy_tables(rows, 2, 3, 1.5).tolist() == [
        [[-0.34594905525747477, -3.9291543853235162, 1.0471248751230688],
         [-1.5, 0.2779006500105304, -0.9723583349218154]],
        [[-1.444347391331357, 1.7841932413171053, 0.123216974278861],
         [0.46843290561039336, 1.455549988410169, 0.7415964404677969]],
        [[3.9183880669964415, -0.47469548902011055, 0.608320135242696],
         [0.17517016769134733, 1.5, -0.4822081277520606]],
    ]


def _halves(H, rounds, seed):
    """The halves (rounds, 2, n) of one tournament over the mask H, as
    ``_sides`` splits it, with an empty side all zeros."""
    tcfg = TournamentConfig.from_targets(0.1, 0.1, beta=1.0, rounds=rounds)
    _, _, rd, side, masks = _sides(H[None], np.array([seed], dtype=np.uint64), tcfg)
    halves = np.zeros((rounds, 2, len(H)), dtype=np.uint8)
    halves[rd, side] = masks
    return halves


def test_split_masks_of_one_tournament():
    H = np.array([1, 1, 0, 1, 1, 1, 0, 1], dtype=np.uint8)
    sides = _halves(H, 4, 2**64 - 5)
    got = [(r, m0.tolist(), m1.tolist()) for r, (m0, m1) in enumerate(sides)]
    assert got == [
        (0, [1, 1, 0, 0, 1, 1, 0, 0], [0, 0, 0, 1, 0, 0, 0, 1]),
        (1, [0, 1, 0, 0, 1, 0, 0, 1], [1, 0, 0, 1, 0, 1, 0, 0]),
        (2, [1, 0, 0, 0, 1, 1, 0, 0], [0, 1, 0, 1, 0, 0, 0, 1]),
        (3, [0, 1, 0, 1, 0, 1, 0, 1], [1, 0, 0, 0, 1, 0, 0, 0]),
    ]


def test_generate_synthetic_first_records():
    expected = {
        "mixture(0.5)": [(4, 6, 7), (3, 3, 3), (3, 3, 3), (1, 1, 1), (6, 6, 6), (4, 4, 4)],
        "independent": [(4, 6, 7), (6, 5, 5), (5, 3, 5), (4, 4, 3), (6, 2, 5), (5, 5, 5)],
        "diagonal": [(6, 6, 6), (3, 3, 3), (3, 3, 3), (1, 1, 1), (6, 6, 6), (4, 4, 4)],
    }
    for kind, recs in expected.items():
        got = list(generate_synthetic(kind, 3, 7, 6, seed=42))
        assert got == recs
        assert all(type(v) is int for t in got for v in t)


def test_registry_tables_of_a_k3_estimator():
    est = StreamDistanceEstimator(3, 3, 0.3, 0.1, seed=5)
    expected = {
        (2, 2): ("0ad9a307a7d893f62464cf9af54f783fa353326dd4185b26d1131d20e7d76e0e",
                 "49903e6be1f62442a85e6366336874ac9508e95b83c5eea03d4f4aedc3b33f2d"),
    }
    tables = {key: est.registry.tables(key) for key in est.registry.groups}
    got = {
        key: tuple(
            hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for a in (g["prefix"].astype(np.float64), tables[key])
        )
        for key, g in est.registry.groups.items()
    }
    assert got == expected
    shapes = {key: t.shape for key, t in tables.items()}
    assert shapes == {(2, 2): (145800, 1, 3)}
    diag = json.dumps(est.diagnostics(), sort_keys=True).encode()
    assert (
        hashlib.sha256(diag).hexdigest()
        == "19874eb96224442c1008f384383bf0a5046eb4f7f4e12a3a2a3d33cb26a8a7fb"
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _plan_tree(est):
    """The plan as nested lists: every phase, level, bucket and round in
    evaluation order, with each leaf as its bank handle [s, s', start, stop]
    and the coarse leaf of a side without a coarse bank as None, read from
    the depth arrays bottom-up. A leaf is its group's key, whose bank count
    the registry holds."""
    rounds, amp = est.configs[1].rounds, est.configs[3]

    def handles(key):
        banks, reps = len(est.registry.groups[key]["prefix"]), est.registry.reps[key]
        return [[*key, b * reps, (b + 1) * reps] for b in range(banks)]

    below = None
    for d in reversed(est.plan):
        tournaments = [[[None, None] for _ in range(rounds)] for _ in d.bucket]
        sharps = below if d.sharp is None else handles(d.sharp)
        banked = iter([] if d.coarse is None else handles(d.coarse))
        coarses = [next(banked) if m else None for m in (~d.single[d.side_t]).tolist()]
        sides = zip(d.side_t.tolist(), d.side_rd.tolist(), d.side_s.tolist())
        for (t, rd, side), coarse, sharp in zip(sides, coarses, sharps):
            tournaments[t][rd][side] = [coarse, sharp]
        covers = [[] for _ in d.level_run]
        buckets = zip(d.bucket_level.tolist(), d.bucket.tolist(), tournaments)
        for level, bucket, tournament in buckets:
            covers[level].append([bucket, tournament])
        runs = [[q, []] for q in d.q.tolist()]
        for run, j, cover in zip(d.level_run.tolist(), d.level_j.tolist(), covers):
            runs[run][1].append([j, cover])
        below = [runs[r : r + amp] for r in range(0, len(runs), amp)]
    return below[0]


@pytest.mark.parametrize(
    "k,n,seed,overrides,expected,shapes,plan",
    [
        (2, 8, 3, None, {
            (1, 1): ("e306ac49cff8030e6068dafafa76556053cc1b420c26f52d6c78db023fd7e9e1",
                     "9a4ae7d9dc80d6bee19128922d2d6d21575e5cdf0371f2ec90ffa48f482c41be"),
        }, {(1, 1): (14400, 1, 8)},
            "fe11d7484fa2f4c81922e5d7619a2f1f90c0d66e17b560e703766fbec632400a"),
        # three depths of one-value buckets: one sharp group
        (4, 2, 5, EstimatorOverrides(amplification=2, rounds=1), {
            (3, 3): ("3b2ce704fc0870171abf65e438ddce029792655f52be61957aad1f46d13e36bc",
                     "04002c603c30efad0f23636585443a328e2884a95749051e0daabc45115b1ee8"),
        }, {(3, 3): (12800, 1, 2)},
            "3edbf9a819a1ef7e6210884cc8420904f2a020979c35f3d9ec9b23d7089cced8"),
    ],
    ids=["k2-n8", "k4-n2-three-depths"],
)
def test_registry_and_plan_of_an_estimator(k, n, seed, overrides, expected, shapes, plan):
    """Every group's prefix masks and drawn Cauchy tables, the group order,
    and the plan tree with its leaves' handles in evaluation order."""
    est = StreamDistanceEstimator(k, n, 0.3, 0.1, seed=seed, overrides=overrides)
    tables = {key: est.registry.tables(key) for key in est.registry.groups}
    got = {
        key: (_sha(g["prefix"].astype(np.float64).tobytes()), _sha(tables[key].tobytes()))
        for key, g in est.registry.groups.items()
    }
    assert got == expected and list(got) == list(expected)
    assert {key: t.shape for key, t in tables.items()} == shapes
    assert _sha(json.dumps(_plan_tree(est)).encode()) == plan


class TestFormulaRounds:
    """The 91-round tournaments of the cover criterion (epsilon 0.1, delta 0.1)."""

    tcfg = TournamentConfig.from_targets(0.1, 0.1, beta=1.0)

    def test_split_masks(self):
        assert self.tcfg.rounds == 91
        H = np.ones(64, dtype=np.uint8)
        masks = _halves(H, 91, 12345)
        assert masks.shape == (91, 2, 64) and int(masks.sum()) == 5824
        assert _sha(masks.tobytes()) == (
            "2ad9ec580d08a73d351f290fdd1ec4e187ddfe0fb645b03d16a723719a4c5545"
        )

    def test_cover_algorithm(self):
        ccfg = CoverConfig.from_targets(0.3, 0.1, self.tcfg.alpha, rho=127)
        rnd = random.Random(9)
        got = []
        for s in range(4):
            v = np.ones(64)
            v[rnd.sample(range(64), 2)] = 130.0
            subs = vector_sub_oracles(v)
            out = cover_algorithm(np.ones(64, np.uint8), ccfg, self.tcfg, subs, seed=s)
            got.append(sorted(out.items()))
        assert [len(g) for g in got] == [64, 64, 64, 64]
        assert _sha(json.dumps(got).encode()) == (
            "e5360cd86fe725d39d65c26c6f66550ee01d56d1bd07c21fb1bef5b86cfc7c1b"
        )


class TestOracleRoute:
    """The tournament -> cover -> layer stack over exact sub-oracles, pinned
    exactly, so a moved bit in the stack shows even inside a contract band."""

    @pytest.mark.parametrize(
        "k,n,m,stream_seed,expected",
        [
            (2, 8, 300, 21, [79554.14623251483, 78716.21981920741, 78164.15773474034]),
            (3, 3, 120, 22, [1410465.5557743798, 1411710.2811097337, 1403731.0532348857]),
        ],
    )
    def test_dimension_reduce(self, k, n, m, stream_seed, expected):
        recs = list(generate_synthetic("mixture(0.5)", k, n, m, seed=stream_seed))
        M = dense_independence_tensor(build_frequency_table(TupleStream(k, n, recs)))
        subs = exact_sub_oracles(M, beta=1.0)
        assert [dimension_reduce(n, subs, 0.3, 0.1, seed=s) for s in (0, 1, 2)] == expected

    @pytest.mark.parametrize(
        "k,n,m,stream_seed,calls,expected",
        [
            (2, 8, 300, 21, 432,
             "23baac232c9ef56c3163407872e65eccb1912eb0fd2c3520bf03fedc5286d141"),
            (3, 3, 120, 22, 162,
             "3aeba956ae6fe05a18ea90d5ae1c8c5df799bf6002d488bb3bcd8d3de8afdcb4"),
        ],
        ids=["k2-n8", "k3-n3"],
    )
    def test_dimension_reduce_sub_oracle_calls(self, k, n, m, stream_seed, calls, expected):
        """Every side's approx_a and approx_b, in order: per row of the mask
        table, the a-row and then the b-row, each as the function, the mask's
        dtype and bytes, and the epsilon / delta arguments. These are the
        bytes the per-mask contract hashed, one call per row; a dimension
        reduce makes one approx_a and one approx_b call, over one table."""
        recs = list(generate_synthetic("mixture(0.5)", k, n, m, seed=stream_seed))
        M = dense_independence_tensor(build_frequency_table(TupleStream(k, n, recs)))
        exact = exact_sub_oracles(M, beta=1.0)
        log = []

        def recorded(name, fn):
            def call(masks, *args):
                log.append((name, masks.copy(), args))
                return fn(masks, *args)

            return call

        subs = SubAlgorithms(
            approx_a=recorded(b"a", exact.approx_a),
            approx_b=recorded(b"b", exact.approx_b),
            beta=1.0,
        )
        digest, rows = hashlib.sha256(), 0
        for s in (0, 1, 2):
            log.clear()
            dimension_reduce(n, subs, 0.3, 0.1, seed=s)
            (a, a_masks, a_args), (b, b_masks, b_args) = log  # one call each
            assert (a, b) == (b"a", b"b") and np.array_equal(a_masks, b_masks)
            for a_row, b_row in zip(a_masks, b_masks):
                for name, row, args in ((a, a_row, a_args), (b, b_row, b_args)):
                    digest.update(name + row.dtype.str.encode() + row.tobytes())
                    digest.update(np.array(args, dtype=np.float64).tobytes())
                    rows += 1
        assert (rows, digest.hexdigest()) == (calls, expected)

    def test_tensor_tournament(self):
        H = np.ones(32, dtype=np.uint8)
        v = np.ones(32)
        v[[4, 19]] = 90.0
        v[7] = 20.0
        cfg = TournamentConfig.from_targets(0.1, 0.1, beta=2.0)
        subs = vector_sub_oracles(v, beta=2.0)
        assert [tensor_tournament(H, cfg, subs, seed=s) for s in range(4)] == [0.0] * 4
        w = np.full(32, 0.5)
        w[4] = 100_000.0
        cfg = TournamentConfig.from_targets(0.1, 0.1, beta=2.0, rounds=4)
        subs = vector_sub_oracles(w, beta=2.0)
        got = [tensor_tournament(H, cfg, subs, seed=s) for s in range(4)]
        assert got == [100006.5, 100007.0, 100007.5, 100007.0]

    def test_cover_algorithm(self):
        v = np.ones(32)
        v[[4, 19]] = 90.0
        v[7] = 20.0
        tcfg = TournamentConfig.from_targets(0.1, 0.1, beta=1.0, rounds=6)
        ccfg = CoverConfig.from_targets(0.3, 0.1, tcfg.alpha, rho=17)
        subs = vector_sub_oracles(v, beta=1.0)
        got = [cover_algorithm(np.ones(32, np.uint8), ccfg, tcfg, subs, seed=s) for s in (3, 5, 6)]
        assert got == [
            {1: 1.0, 3: 1.0, 5: 1.0, 7: 1.0, 11: 1.0, 12: 1.0, 13: 90.0, 17: 90.0},
            {},
            {12: 1.0, 14: 90.0, 17: 90.0},
        ]

    def test_layered_l1_estimate(self):
        cfg = LayerConfig.from_targets(
            0.3, 256, 1e6, count_threshold=16, base_count=40, phase_steps=32
        )
        u = np.random.default_rng(5).uniform(1.0, 500.0, 256)

        def exact_cover(mask, _seed):
            return [float(x) for x, m in zip(u, mask) if m and x > 0]

        got = [layered_l1_estimate(256, cfg, exact_cover, seed=s) for s in range(3)]
        assert got == [73055.38892016336, 61721.20094457142, 66610.61335191128]
