"""Tournament, cover, layered estimator and the end-to-end pipeline."""

import hashlib
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from indisketch import (
    BudgetExceededError,
    ConfigurationError,
    CoverConfig,
    DenseTensor,
    EstimatorOverrides,
    LayerConfig,
    SketchBank,
    StreamDistanceEstimator,
    SubAlgorithmError,
    SubAlgorithms,
    TournamentConfig,
    TupleStream,
    build_frequency_table,
    cover_algorithm,
    dense_independence_tensor,
    dimension_reduce,
    exact_sub_oracles,
    generate_synthetic,
    independence_distance,
    l1_norm,
    layered_l1_estimate,
    prefix_zero,
    split_compare_ratio,
    suffix_sum,
    tensor_tournament,
)
from indisketch import estimator, hashing, sketches, stream as stream_mod
from indisketch.estimator import (
    _BankRegistry,
    _levels,
    _split_masks,
    _stack_configs,
    vector_sub_oracles,
)
from indisketch.hashing import ZeroOneHash


def diag_embed(v):
    """Matrix whose absolute-hyperplane vector is v (one entry per row)."""
    n = len(v)
    M = np.zeros((n, n), dtype=np.int64)
    M[np.arange(n), 0] = np.asarray(v, dtype=np.int64)
    return DenseTensor(M)


def ones_mask(n):
    return np.ones(n, dtype=np.uint8)


def sketch_norm(stream, epsilon, delta, seed, overrides=None):
    """One-pass estimate of the independence-tensor norm of ``stream``."""
    est = StreamDistanceEstimator(
        stream.k, stream.n, epsilon, delta, seed=seed, overrides=overrides
    )
    est.consume(stream)
    return est.tensor_norm_estimate()


class TestConfigs:
    def test_tournament_formulas(self):
        eps, delta = 0.1, 0.05
        cfg = TournamentConfig.from_targets(eps, delta, beta=2.0)
        assert cfg.detect_prob == pytest.approx(1 - math.sqrt(1 - eps / 2))
        root = (1 - eps) ** 0.25
        assert cfg.base_ratio == pytest.approx(1 + 2 * root / (1 - root))
        assert cfg.ratio_threshold == pytest.approx((1 + eps) * cfg.base_ratio)
        assert cfg.alpha == pytest.approx(eps / (64 * 4))
        assert cfg.subcall_delta == pytest.approx(
            cfg.detect_prob * eps / (4 * math.log(1 / delta))
        )
        assert cfg.rounds >= math.log(1 / delta) / cfg.detect_prob

    def test_cover_formulas(self):
        cfg = CoverConfig.from_targets(0.3, 0.1, alpha=0.01)
        assert cfg.significance == pytest.approx(0.3**2 * 0.1 / 3)
        assert cfg.rho == math.ceil(1 / (cfg.significance * 0.01))

    def test_layer_invariants(self):
        cfg = LayerConfig.from_targets(0.3, 64, value_bound=1e6)
        assert cfg.phase_ratio >= 0.3 / (2 * cfg.phase_steps)
        assert cfg.base_count == 10 * (cfg.levels + cfg.layers)
        assert cfg.count_threshold == math.ceil(16 / 0.3**3 * cfg.base_count)

    def test_override_profiles(self):
        desk = EstimatorOverrides()
        assert desk.amplification == 9 and desk.rounds == 3
        formula = EstimatorOverrides.formula_profile()
        assert formula.amplification is None and formula.rounds is None
        assert formula.beta is None and formula.cover_epsilon is None
        assert desk.replace(rounds=5).rounds == 5

    def test_malformed_record_names_index(self):
        est = StreamDistanceEstimator(2, 3, 0.3, 0.1, seed=0)
        est.update((1, 2))
        from indisketch import MalformedInputError

        with pytest.raises(MalformedInputError) as err:
            est.update((1, 9))
        assert "record 2" in str(err.value)

    def test_non_integral_records_rejected(self):
        from indisketch import MalformedInputError

        est = StreamDistanceEstimator(2, 3, 0.3, 0.1, seed=0)
        with pytest.raises(MalformedInputError) as err:
            est.consume([(1, 2), (1.9, 2.7)])
        assert "record 2: non-integer coordinate 1.9" in str(err.value)
        with pytest.raises(MalformedInputError) as err:
            est.consume([np.array([[1.0, 2.0], [3.0, 2.5]])])
        assert "non-integer coordinate 2.5" in str(err.value)
        # a record that is not a sequence at all, wherever records are read
        with pytest.raises(MalformedInputError, match="record 2: not a sequence of coordinates"):
            est.consume([(1, 2), 5])
        with pytest.raises(MalformedInputError, match="not a sequence of coordinates"):
            est.update(None)
        with pytest.raises(MalformedInputError, match="record 2: not a sequence of coordinates"):
            build_frequency_table(TupleStream(2, 3, [(1, 2), 5]))
        with pytest.raises(MalformedInputError, match="not a sequence of coordinates"):
            SketchBank(2, 3, 0, 0, [], repetitions=2, seed=0).update(5)

    def test_overrides_that_would_zero_the_estimate_rejected(self):
        with pytest.raises(ConfigurationError, match="rounds must be >= 1"):
            TournamentConfig.from_targets(0.1, 0.1, beta=1.0, rounds=0)
        subs = exact_sub_oracles(diag_embed([3, 1, 1, 1]), beta=1.0)
        for bad, message in [
            ({"rounds": 0}, "rounds must be >= 1"),
            ({"amplification": 0}, "amplification must be >= 1"),
            ({"amplification": -2}, "amplification must be >= 1"),
            ({"beta": 0.5}, "beta must be finite and >= 1"),
            ({"beta": math.nan}, "beta must be finite and >= 1"),
            ({"beta": math.inf}, "beta must be finite and >= 1"),
            ({"cover_epsilon": 0.0}, r"cover_epsilon must lie in \(0, 1\)"),
            ({"cover_epsilon": -1.0}, r"cover_epsilon must lie in \(0, 1\)"),
            ({"cover_epsilon": math.nan}, r"cover_epsilon must lie in \(0, 1\)"),
            ({"cover_epsilon": 2.0}, r"cover_epsilon must lie in \(0, 1\)"),
            ({"omega": 0.0}, "omega must be positive"),
            ({"omega": math.inf}, "omega must be finite"),
            ({"eps_reps": 2.5}, "non-integer eps_reps 2.5"),
            ({"amplification": 2.5}, "non-integer amplification 2.5"),
            ({"rounds": 1.5}, "non-integer rounds 1.5"),
            ({"rho": 3.5}, "non-integer rho 3.5"),
        ]:
            ov = EstimatorOverrides(**bad)
            with pytest.raises(ConfigurationError, match=message):
                StreamDistanceEstimator(2, 4, 0.3, 0.1, overrides=ov)
            with pytest.raises(ConfigurationError, match=message):
                dimension_reduce(4, subs, 0.3, 0.1, overrides=ov)
        for omega in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigurationError, match="omega must be positive"):
                StreamDistanceEstimator(2, 4, 0.3, 0.1, overrides=EstimatorOverrides(omega=omega))
        for beta in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="beta must be finite and >= 1"):
                TournamentConfig.from_targets(0.1, 0.1, beta=beta)
            with pytest.raises(ConfigurationError, match="beta must be finite and >= 1"):
                vector_sub_oracles([1.0], beta=beta)

    def test_delta_outside_unit_interval_rejected(self):
        # with a fixed amplification count no formula reads delta, so both
        # routes check it up front
        subs = exact_sub_oracles(diag_embed([3, 1, 1, 1]), beta=1.0)
        for delta in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigurationError, match=f"delta={delta} outside"):
                StreamDistanceEstimator(2, 4, 0.3, delta)
            with pytest.raises(ConfigurationError, match=f"delta={delta} outside"):
                dimension_reduce(4, subs, 0.3, delta)

    def test_layer_counts_checked(self):
        for bad, message in [
            ({"count_threshold": 2.5}, "non-integer count_threshold 2.5"),
            ({"count_threshold": 0}, "count_threshold must be >= 1"),
            ({"phase_steps": 2.5}, "non-integer phase_steps 2.5"),
            ({"phase_steps": 0}, "phase_steps must be >= 1"),
            ({"base_count": 2.5}, "non-integer base_count 2.5"),
            ({"base_count": 0}, "base_count must be >= 1"),
            ({"base_count": -5}, "base_count must be >= 1"),
            ({"value_bound": math.nan}, "value_bound=nan must be finite"),
            ({"value_bound": math.inf}, "value_bound=inf must be finite"),
            ({"n": math.nan}, "non-integer n nan"),
            ({"n": math.inf}, "non-integer n inf"),
            ({"n": 2.5}, "non-integer n 2.5"),
            ({"n": -3}, "n must be >= 1"),
        ]:
            with pytest.raises(ConfigurationError, match=message):
                LayerConfig.from_targets(**{"epsilon": 0.3, "n": 16, "value_bound": 1e3, **bad})
        for alpha in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigurationError, match="alpha must be positive"):
                CoverConfig.from_targets(0.3, 0.1, alpha)

    def test_layer_scale_override(self):
        full = LayerConfig.from_targets(0.3, 64, value_bound=1e6)
        small = LayerConfig.from_targets(0.3, 64, value_bound=1e6, scale_override=1e-4)
        assert small.count_threshold < full.count_threshold
        assert small.phase_steps < full.phase_steps
        assert small.phase_ratio >= 0.3 / (2 * small.phase_steps) - 1e-12


class TestSplitCompareRatio:
    def test_balanced_split(self):
        assert split_compare_ratio([1, 1, 1, 1], [1, 1, 0, 0]) == (2.0, 2.0)

    def test_singleton_mass(self):
        assert split_compare_ratio([10, 0, 0, 0], [1, 0, 0, 0]) == (10.0, 0.0)

    def test_ratio_bound_monte_carlo(self):
        # no 0.5-significant entry: lopsided splits are rare
        eps = 0.5
        root = (1 - eps) ** 0.25
        lam = 1 + 2 * root / (1 - root)
        v = np.ones(32)
        bad = 0
        trials = 2000
        for s in range(trials):
            z = ZeroOneHash(seed=s, n=32, q=0.5).table()
            x, y = split_compare_ratio(v, z)
            bad += (x >= lam * y) or (y >= lam * x)
        assert bad / trials <= math.sqrt(1 - eps) + 0.05


@pytest.mark.parametrize("entry", [-1.0, math.nan, math.inf])
def test_vector_entries_finite_and_nonnegative(entry):
    with pytest.raises(ConfigurationError, match="split comparison requires finite nonnegative"):
        split_compare_ratio([entry, 1, 1, 1], [1, 0, 1, 0])
    with pytest.raises(ConfigurationError, match="vector oracles require finite nonnegative"):
        vector_sub_oracles([entry, 1, 1, 1])


class TestTournament:
    def test_dominant_coordinate_detected(self):
        v = np.ones(16)
        v[3] = 10_000
        subs = exact_sub_oracles(diag_embed(v), beta=2.0)
        cfg = TournamentConfig.from_targets(0.1, 0.1, beta=2.0)
        hits = 0
        for s in range(100):
            U = tensor_tournament(ones_mask(16), cfg, subs, seed=s)
            hits += U > 0 and abs(U - 10_000) <= 0.3 * 10_000
        assert hits >= 95

    def test_empty_mask_gives_zero(self):
        subs = exact_sub_oracles(diag_embed([5, 5, 5, 5]), beta=2.0)
        cfg = TournamentConfig.from_targets(0.1, 0.1, beta=2.0)
        for s in range(20):
            assert tensor_tournament(np.zeros(4, dtype=np.uint8), cfg, subs, seed=s) == 0.0

    def test_one_value_masks_run_round_zero(self):
        """A one-value mask keeps round 0's side of its value, a mask of two
        or more values every round's nonempty sides, an empty mask none."""
        cfg = TournamentConfig.from_targets(0.1, 0.1, beta=1.0, rounds=3)
        H = (np.random.default_rng(3).random((40, 8)) < 0.4).astype(np.uint8)
        H[:8] = np.eye(8, dtype=np.uint8)
        H[8] = 0
        seeds = np.arange(40, dtype=np.uint64)
        single, t, rd, side, masks = estimator._sides(H, seeds, cfg)
        assert np.array_equal(single, H.sum(axis=1) == 1)
        halves = _split_masks(H[:, None], np.arange(3), seeds[:, None])
        assert np.array_equal(masks, halves[t, rd, side]) and masks.any(axis=1).all()
        sizes = H.sum(axis=1).tolist()
        assert sum(size > 1 for size in sizes) > 20
        for i, size in enumerate(sizes):
            mine = t == i
            if size == 0:
                assert not mine.any()
            elif size == 1:
                assert rd[mine].tolist() == [0] and np.array_equal(masks[mine][0], H[i])
            else:
                assert set(rd[mine].tolist()) == {0, 1, 2}
                assert mine.sum() == halves[i].any(axis=2).sum()

    @pytest.mark.parametrize("k,n", [(2, 8), (3, 4)])
    def test_desk_profile_buckets_run_one_round(self, k, n):
        """At the desk profile rho exceeds n, so every cover bucket holds one
        value: each tournament runs round 0 only, with one side, and the
        estimate is that of one configured round."""
        est = StreamDistanceEstimator(k, n, 0.3, 0.1, seed=1)
        for d in est.plan:
            assert not d.side_rd.any()
            assert np.array_equal(d.side_t, np.arange(len(d.bucket)))
        one = StreamDistanceEstimator(k, n, 0.3, 0.1, seed=1, overrides=EstimatorOverrides(rounds=1))
        recs = list(generate_synthetic("mixture(0.5)", k, n, 300, seed=2))
        est.consume(recs)
        one.consume(recs)
        assert est.tensor_norm_estimate() == one.tensor_norm_estimate()

    def test_uniform_vector_rejected(self):
        subs = exact_sub_oracles(diag_embed(np.ones(64, dtype=np.int64)), beta=2.0)
        cfg = TournamentConfig.from_targets(0.1, 0.1, beta=2.0)
        zeros = sum(
            tensor_tournament(ones_mask(64), cfg, subs, seed=s) == 0.0
            for s in range(100)
        )
        assert zeros >= 90


class TestCoarseBanks:
    """A coarse bank is registered only for the sides of tournaments over two
    or more values, the only sides whose coarse values a tournament reads."""

    @pytest.mark.parametrize("k,n,rows", [(2, 8, 14_400), (3, 4, 259_200), (4, 2, 1_166_400)])
    def test_desk_profile_registers_only_the_sharp_group(self, k, n, rows):
        """Every desk-profile bucket holds one value, so no side has a coarse
        bank. The sharp group keeps n counts per bank and no per-row array:
        at k = 3, n = 4, 1,296 banks of 200 rows hold 1,296 x 4 counts."""
        est = StreamDistanceEstimator(k, n, 0.3, 0.1, seed=1)
        assert list(est.registry.groups) == [(k - 1, k - 1)]
        assert all(d.coarse is None for d in est.plan)
        assert est.bank_rows() == rows
        g, banks = est.registry.groups[(k - 1, k - 1)], rows // est.overrides.eps_reps
        assert {name: a.shape for name, a in g.items()} == {
            "prefix": (banks, k - 1, n), "coeff": (banks,), "joint": (rows, 0), "margins": (k, n),
            "counts": (banks, n),
        }

    @pytest.mark.parametrize(
        "k,n,sides,digests,estimate",
        [
            (2, 8, [(45, 94)], [
                ("d8a67db097d04e2d60759431a8c3fd20f99e765d386caf5994c3ffa604d1d75e",
                 "cf19646643e1fead7c4c5a1a5d246dc744823610df44e2c1b3a34fbcbb124294"),
            ], 3441585.5462014894),
            (3, 4, [(6, 39), (461, 1649)], [
                ("c265c1ace2a46b03cdcdd359e2d5041dfad2f3494867b3884541ed8beb7da153",
                 "ca99aa9c0cd9b821256d8cabccaa46e3a767d83991297d0e356196f529ab0985"),
                ("930f02cb5877ec44adeca8cf5fb1d0086c39ad342290a6c0f467ddafa26fd37b",
                 "ee2d91b94a9d704cd5879b94f315d5ea3efb35b92439e4cb27a128cf4f741e94"),
            ], 7121891583.079324),
            # unlike the two above, its estimate moves when the coarse medians
            # are scattered to the wrong sides
            (2, 16, [(143, 208)], [
                ("e456264efdb25840bba6ec509d84536bab0c4dea04ea42ade9c471ff79ee1346",
                 "50c1348d752b40fcd19bd7610d00cefea736a7d42df359077be0b62623bec141"),
            ], 2320882.597501988),
        ],
        ids=["k2-n8", "k3-n4", "k2-n16"],
    )
    def test_mixed_buckets(self, k, n, sides, digests, estimate, monkeypatch):
        """With 16 buckets, one-value and multi-value tournaments mix. Each
        depth's coarse group holds 24 rows for each side of a multi-value
        tournament (``sides``: such sides, all sides). Its prefix masks and
        Cauchy tables, and the estimate, are pinned from the plan that gave
        every side a coarse bank, restricted to those sides. The tournaments
        read bank b's median at the b-th such side and NaN at the others."""
        ov = EstimatorOverrides(rho=16)
        est = StreamDistanceEstimator(k, n, 0.3, 0.1, seed=3, overrides=ov)
        assert len(est.plan) == len(sides) == len(digests)
        for depth, (d, (multi, total), pinned) in enumerate(zip(est.plan, sides, digests)):
            flagged = ~d.single[d.side_t]
            assert (int(flagged.sum()), len(flagged)) == (multi, total)
            g = est.registry.groups[(depth + 1, depth)]
            assert (len(g["prefix"]), len(g["joint"])) == (multi, 24 * multi)
            arrays = g["prefix"].astype(np.float64), est.registry.tables((depth + 1, depth))
            assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == pinned
        est.consume(generate_synthetic("mixture(0.5)", k, n, 2000, seed=1))
        read, tournaments = [], estimator._tournaments

        def reading(cfg, single, t, rd, side, coarse, sharp):
            read.append(coarse.copy())
            return tournaments(cfg, single, t, rd, side, coarse, sharp)

        monkeypatch.setattr(estimator, "_tournaments", reading)
        assert est.tensor_norm_estimate() == estimate
        medians = est.registry.medians()
        for depth, d in enumerate(est.plan):
            flagged, coarse = ~d.single[d.side_t], read[len(est.plan) - 1 - depth]
            assert np.isnan(coarse[~flagged]).all()
            assert np.array_equal(coarse[flagged], medians[(depth + 1, depth)])


class TestSubAlgorithmError:
    """A failing sub-oracle surfaces as SubAlgorithmError naming its round and side."""

    @staticmethod
    def subs_failing_at(coordinate):
        def approx(masks, *_):
            if masks[:, coordinate - 1].any():
                raise ValueError(f"oracle down at {coordinate}")
            return masks.sum(axis=1, dtype=np.float64)

        return SubAlgorithms(approx_a=approx, approx_b=approx, beta=1.0)

    def test_tournament(self):
        H, seed = ones_mask(8), 4
        m1 = _split_masks(H, 0, seed)[1]
        side = int(m1[2])  # the side of round 0 holding coordinate 3
        cfg = TournamentConfig.from_targets(0.1, 0.1, beta=1.0, rounds=3)
        with pytest.raises(SubAlgorithmError) as err:
            tensor_tournament(H, cfg, self.subs_failing_at(3), seed=seed)
        assert str(err.value) == f"round 0, side {side}: oracle down at 3"
        assert isinstance(err.value.__cause__, ValueError)

    def test_dimension_reduce(self):
        with pytest.raises(SubAlgorithmError, match=r"^round \d+, side [01]: oracle down at 3$"):
            dimension_reduce(8, self.subs_failing_at(3), 0.3, 0.1, seed=1)

    def test_non_finite_cover_output(self):
        def approx(masks, *_):
            return np.where(masks[:, 2] == 1, math.inf, masks.sum(axis=1, dtype=np.float64))

        subs = SubAlgorithms(approx_a=approx, approx_b=approx, beta=1.0)
        with pytest.raises(SubAlgorithmError, match="^cover output inf is not finite$"):
            dimension_reduce(8, subs, 0.3, 0.1, seed=1)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda masks: 1.0,  # would broadcast over the sides
            lambda masks: np.ones(1),
            lambda masks: np.ones(len(masks) + 1),
            lambda masks: np.ones((len(masks), 1)),
            lambda masks: np.ones(len(masks), dtype=np.int64),
            lambda masks: [1.0] * len(masks),
        ],
    )
    def test_values_must_be_one_float_per_mask(self, bad):
        good = vector_sub_oracles(np.ones(8))
        cfg = TournamentConfig.from_targets(0.1, 0.1, beta=1.0, rounds=3)
        for name, subs in [
            ("approx_a", SubAlgorithms(lambda m, *_: bad(m), good.approx_b, beta=1.0)),
            ("approx_b", SubAlgorithms(good.approx_a, lambda m, *_: bad(m), beta=1.0)),
        ]:
            message = rf"^{name} must return a float array of shape \(6,\)$"
            with pytest.raises(SubAlgorithmError, match=message):
                tensor_tournament(ones_mask(8), cfg, subs, seed=4)

    def test_a_table_failing_on_no_single_side(self):
        def approx(masks, *_):
            if len(masks) > 1:
                raise ValueError("one side at a time")
            return masks.sum(axis=1, dtype=np.float64)

        subs = SubAlgorithms(approx_a=approx, approx_b=approx, beta=1.0)
        cfg = TournamentConfig.from_targets(0.1, 0.1, beta=1.0, rounds=3)
        with pytest.raises(SubAlgorithmError, match="^a table of 6 sides: one side at a time$"):
            tensor_tournament(ones_mask(8), cfg, subs, seed=4)


class TestTableOracles:
    """The table oracles against their per-mask definitions, which stay here as the reference."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_oracles_match_the_per_mask_definition(self, k, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        A = rng.integers(-50, 51, size=(n,) * k)
        A[rng.integers(n)] = 0  # an all-zero hyperplane
        M = DenseTensor(A)
        masks = rng.integers(0, 2, size=(12, n)).astype(np.uint8)
        masks[0], masks[1] = 0, 1
        subs = exact_sub_oracles(M)
        a, b = subs.approx_a(masks, 0.1), subs.approx_b(masks, 0.3, 0.1)
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape == (12,)
        for i, mask in enumerate(masks):
            assert a[i] == float(l1_norm(prefix_zero(M, [mask])))
            assert b[i] == float(l1_norm(suffix_sum(prefix_zero(M, [mask]), 1)))

    def test_exact_oracles_exact_below_2_63(self):
        M = DenseTensor(np.array([[2**62, 0], [-(2**62) + 1, 0]]))
        masks = np.array([[1, 1], [1, 0], [0, 1]], dtype=np.uint8)
        subs = exact_sub_oracles(M)
        want = [float(l1_norm(prefix_zero(M, [m]))) for m in masks]
        assert subs.approx_a(masks, 0.1).tolist() == want == [float(2**63 - 1), 2.0**62, float(2**62 - 1)]
        assert subs.approx_b(masks, 0.3, 0.1).tolist() == [1.0, 2.0**62, float(2**62 - 1)]

    @pytest.mark.parametrize(
        "A", [[[2**62, 2**62], [0, 0]], [[-(2**63), 0], [0, 0]], [[2**62, 0], [0, -(2**62)]]]
    )
    def test_l1_norm_from_2_63_rejected(self, A):
        with pytest.raises(BudgetExceededError, match="2\\^63"):
            exact_sub_oracles(DenseTensor(np.array(A, dtype=np.int64)))

    @pytest.mark.parametrize("integral", [True, False])
    def test_vector_oracles_match_the_per_mask_sum(self, integral):
        rng = np.random.default_rng(5)
        v = rng.integers(0, 1000, 37).astype(np.float64) if integral else rng.uniform(0, 1e3, 37)
        masks = rng.integers(0, 2, size=(40, 37)).astype(np.uint8)
        subs = vector_sub_oracles(v)
        a, b = subs.approx_a(masks, 0.1), subs.approx_b(masks, 0.3, 0.1)
        want = np.array([float(v @ mask) for mask in masks])
        if integral:
            assert a.tolist() == b.tolist() == want.tolist()
        else:  # gemv and dot may add in different orders
            np.testing.assert_allclose(a, want, rtol=1e-15, atol=0)
            np.testing.assert_array_equal(a, b)


class TestCover:
    def test_zero_vector_empty_cover(self):
        subs = exact_sub_oracles(diag_embed(np.zeros(8, dtype=np.int64)), beta=1.0)
        tcfg = TournamentConfig.from_targets(0.1, 0.05, beta=1.0)
        ccfg = CoverConfig.from_targets(0.3, 0.1, tcfg.alpha, rho=17)
        assert cover_algorithm(ones_mask(8), ccfg, tcfg, subs, seed=1) == {}

    def test_two_significant_entries_covered(self):
        v = np.ones(64, dtype=np.int64)
        v[5] = 130
        v[40] = 130
        subs = vector_sub_oracles(v, beta=1.0)
        tcfg = TournamentConfig.from_targets(0.1, 0.01, beta=1.0)
        ccfg = CoverConfig.from_targets(0.3, 0.1, tcfg.alpha, rho=127)
        hits = 0
        for s in range(60):
            out = cover_algorithm(ones_mask(64), ccfg, tcfg, subs, seed=s)
            close = [u for u in out.values() if abs(u - 130) <= 0.3 * 130]
            hits += len(close) >= 2
        assert hits >= 0.9 * 60

    def test_single_bucket_degenerates_to_tournament(self):
        v = np.ones(16, dtype=np.int64)
        v[2] = 50_000
        subs = exact_sub_oracles(diag_embed(v), beta=1.0)
        tcfg = TournamentConfig.from_targets(0.1, 0.05, beta=1.0)
        ccfg = CoverConfig.from_targets(0.3, 0.1, tcfg.alpha, rho=1)
        out = cover_algorithm(ones_mask(16), ccfg, tcfg, subs, seed=4)
        assert set(out) <= {1}
        if out:
            assert abs(out[1] - 50_000) <= 0.3 * 50_000


@pytest.mark.parametrize("entry", [0.5, 1.7, 256.0, 2, -1, 256])
def test_mask_entries_are_zero_or_one(entry):
    """A mask is never truncated to uint8; bools read as 0 and 1."""
    subs = vector_sub_oracles([5, 1, 1, 1])
    tcfg = TournamentConfig.from_targets(0.1, 0.05, beta=1.0)
    ccfg = CoverConfig.from_targets(0.3, 0.1, tcfg.alpha, rho=5)
    with pytest.raises(ConfigurationError, match="mask entries must be 0 or 1"):
        tensor_tournament([1, 1, entry, 1], tcfg, subs, seed=1)
    with pytest.raises(ConfigurationError, match="mask entries must be 0 or 1"):
        cover_algorithm([1, 1, entry, 1], ccfg, tcfg, subs, seed=1)
    bools, ints = [True, False, True, True], [1, 0, 1, 1]
    assert tensor_tournament(bools, tcfg, subs, 1) == tensor_tournament(ints, tcfg, subs, 1)
    assert cover_algorithm(bools, ccfg, tcfg, subs, 1) == cover_algorithm(ints, ccfg, tcfg, subs, 1)


def exact_cover_oracle(v):
    """Cover oracle returning the exact positive masked entries."""

    def run(mask, _seed):
        return [float(x) for x, m in zip(v, mask) if m and x > 0]

    return run


class TestLayeredEstimate:
    def test_zero_vector(self):
        cfg = LayerConfig.from_targets(0.3, 16, 1e4)
        assert layered_l1_estimate(16, cfg, exact_cover_oracle(np.zeros(16)), seed=0) == 0.0

    @pytest.mark.parametrize("n", [2.5, 0, -3])
    def test_bad_n_rejected(self, n):
        cfg = LayerConfig.from_targets(0.3, 16, 1e4)
        with pytest.raises(ConfigurationError, match=r"^(non-integer n |n must be >= 1)"):
            layered_l1_estimate(n, cfg, exact_cover_oracle(np.ones(16)), seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cover_output(self, bad):
        cfg = LayerConfig.from_targets(0.3, 16, 1e4)
        with pytest.raises(SubAlgorithmError, match=f"^cover output {bad} is not finite$"):
            layered_l1_estimate(16, cfg, lambda _mask, _seed: [2.0, bad], seed=0)

    def test_value_above_the_largest_finite_power(self):
        # the edges stop at the largest finite power of 1 + epsilon, and a
        # value above it lies in that power's layer
        cfg = LayerConfig.from_targets(0.3, 16, 1e4)
        got = layered_l1_estimate(16, cfg, lambda _mask, _seed: [1.7e308], seed=0)
        assert got == 1.590801192396874e308

    def test_cover_may_return_a_generator(self):
        v = np.random.default_rng(4).uniform(0.0, 50.0, 64)
        cfg = LayerConfig.from_targets(0.3, 64, 1e6, count_threshold=8, phase_steps=16)
        listed = exact_cover_oracle(v)

        def generated(mask, seed):
            return (x for x in listed(mask, seed))

        for s in range(3):
            want = layered_l1_estimate(64, cfg, listed, seed=s)
            assert want > 0.0
            assert layered_l1_estimate(64, cfg, generated, seed=s) == want

    def test_single_entry(self):
        v = np.zeros(64)
        v[10] = 100.0
        cfg = LayerConfig.from_targets(0.3, 64, 1e6)
        ok = 0
        for s in range(120):
            est = layered_l1_estimate(64, cfg, exact_cover_oracle(v), seed=s)
            ok += 0.7 * 100 <= est <= 1.3 * 100
        assert ok >= 0.95 * 120

    def test_uniform_with_scale_override(self):
        v = np.ones(1024)
        cfg = LayerConfig.from_targets(
            0.3, 1024, 1e6, count_threshold=64, base_count=40, phase_steps=32
        )
        ok = 0
        for s in range(120):
            est = layered_l1_estimate(1024, cfg, exact_cover_oracle(v), seed=s)
            ok += 0.7 * 1024 <= est <= 1.3 * 1024
        assert ok >= (2 / 3 - 0.05) * 120

    @pytest.mark.parametrize("n", [8, 128, 1024, 16384])
    def test_desk_profile_keeps_only_level_zero(self, n):
        """At the desk profile the count threshold chi is 800,001 at n = 8
        and 971,852 at n = 16,384, and a level j >= 1 is kept only when its
        mask holds over chi / 1.69 values, more than n: each of the 9 runs
        keeps level 0 alone."""
        (lcfg, _tcfg, _ccfg, amp), _ = _stack_configs(n, 0.3, 0.1, 2.0, EstimatorOverrides())
        assert 800_001 <= lcfg.count_threshold <= 971_852 and lcfg.levels > 1
        _q, run, j, _masks, _seeds = _levels(n, lcfg, np.arange(1, amp + 1, dtype=np.uint64))
        assert run.tolist() == list(range(9)) and j.tolist() == [0] * 9


class TestLayerGrid:
    def test_boundary_sublayer_mass_is_rare(self):
        # elements within one phase step of a layer boundary carry little
        # mass for most phase choices
        cfg = LayerConfig.from_targets(
            0.3, 256, 1e6, count_threshold=64, base_count=40, phase_steps=32
        )
        q_steps = cfg.phase_steps
        zeta = cfg.phase_ratio
        rng = np.random.default_rng(12)
        v = rng.uniform(1.0, 5e4, size=256)
        l1 = v.sum()
        # y_i: phase position of v_i on the (1+zeta) grid
        y = (np.ceil(np.log(v) / np.log1p(zeta) - 1e-12).astype(int)) % q_steps
        bad = 0
        for q in range(q_steps):
            boundary = (y == q) | (y == (q - 1) % q_steps)
            bad += v[boundary].sum() >= 20.0 / q_steps * l1
        assert bad / q_steps <= 0.1 + 0.05

    def test_layered_sandwich_with_forced_events(self):
        # with exact covers and no sampled levels engaged, every run lands in
        # the deterministic sandwich around the true norm
        eps = 0.3
        cfg = LayerConfig.from_targets(eps, 64, 1e6)
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = np.zeros(64)
            idx = rng.choice(64, size=12, replace=False)
            v[idx] = rng.uniform(1.0, 1e4, size=12)
            l1 = v.sum()
            lo = (1 - eps) / (1 + eps) ** 2 * l1
            hi = (1 + eps) ** 7 * (1 + 20 * eps) * l1
            for s in range(40):
                est = layered_l1_estimate(64, cfg, exact_cover_oracle(v), seed=s)
                assert lo <= est <= hi

    def test_grid_has_no_top(self):
        # the value bound 2^48 only calibrates the counts: values above its
        # top layer are counted, so the estimate scales with the input
        v = np.array([3.0, 1.0, 1.0, 1.0])
        unit = dimension_reduce(4, vector_sub_oracles(v), 0.3, 0.1, seed=0)
        for c in (1e15, 1e16):
            est = dimension_reduce(4, vector_sub_oracles(c * v), 0.3, 0.1, seed=0)
            assert est / c == pytest.approx(unit, rel=0.1)
        # at k = 3 the sketch values grow like m^2 and pass the top layer
        # between these stream lengths
        lean = EstimatorOverrides(amplification=3, rounds=2, eps_reps=64, polylog_reps=12)
        short, long = (
            independence_distance(
                TupleStream(3, 2, list(generate_synthetic("mixture(0.5)", 3, 2, m, seed=1))),
                0.3, 0.1, seed=1, overrides=lean,
            ).distance_estimate
            for m in (20_000, 150_000)
        )
        assert long == pytest.approx(short, rel=0.1)


class TestDimensionReduce:
    def test_correlated_pair_tensor(self):
        table = build_frequency_table(TupleStream(2, 2, [(1, 1), (2, 2)]))
        M = dense_independence_tensor(table)
        assert l1_norm(M) == 4
        subs = exact_sub_oracles(M, beta=1.0)
        hits = 0
        for s in range(40):
            est = dimension_reduce(2, subs, 0.3, 0.1, seed=s)
            hits += 0.7 * 4 <= est <= 1.3 * 4
        assert hits >= 36

    def test_zero_tensor(self):
        M = DenseTensor(np.zeros((4, 4), dtype=np.int64))
        subs = exact_sub_oracles(M, beta=1.0)
        assert dimension_reduce(4, subs, 0.3, 0.1, seed=0) == 0.0

    def test_dominant_hyperplane(self):
        A = np.ones((8, 8), dtype=np.int64)
        A[2] = 900
        M = DenseTensor(A)
        subs = exact_sub_oracles(M, beta=1.0)
        total = l1_norm(M)
        hits = 0
        for s in range(40):
            est = dimension_reduce(8, subs, 0.3, 0.1, seed=s)
            hits += 0.7 * total <= est <= 1.3 * total
        assert hits >= 32

    @pytest.mark.parametrize("k,n,m", [(2, 8, 300), (2, 16, 2000), (3, 4, 500)])
    def test_median_over_seeds_is_unbiased(self, k, n, m):
        """Over exact sub-oracles only the layer edges move a reduction. Their
        average is divided out at every depth, so the median over 40 seeds
        lies within 2% of the norm; the edges alone read about 0.88 per depth."""
        recs = list(generate_synthetic("mixture(0.5)", k, n, m, seed=3))
        M = dense_independence_tensor(build_frequency_table(TupleStream(k, n, recs)))
        subs = exact_sub_oracles(M, beta=1.0)
        est = [dimension_reduce(n, subs, 0.3, 0.1, seed=s) for s in range(40)]
        assert 0.98 <= np.median(est) / l1_norm(M) <= 1.02


class TestPipeline:
    def test_correlated_pair_stream(self):
        stream = [(1, 1), (2, 2)] * 50
        table = build_frequency_table(TupleStream(2, 2, stream))
        truth = l1_norm(dense_independence_tensor(table))
        hits = 0
        for s in range(20):
            est = sketch_norm(TupleStream(2, 2, stream), 0.3, 0.1, seed=s)
            hits += 0.6 * truth <= est <= 1.4 * truth
        assert hits >= 15

    def test_single_tuple_stream(self):
        est = sketch_norm(TupleStream(2, 4, [(2, 3)]), 0.3, 0.1, seed=1)
        assert est == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.slow
    def test_three_way_correlated_stream(self):
        stream = [(i, i, i) for i in (1, 2, 3)] * 8
        table = build_frequency_table(TupleStream(3, 3, stream))
        truth = l1_norm(dense_independence_tensor(table))
        lean = EstimatorOverrides(
            amplification=3, rounds=2, eps_reps=64, polylog_reps=12
        )
        hits = 0
        for s in range(10):
            est = sketch_norm(
                TupleStream(3, 3, stream), 0.5, 0.2, seed=s, overrides=lean
            )
            hits += 0.5 * truth <= est <= 1.5 * truth
        assert hits >= 6

    def test_distance_correlated(self):
        stream = [(1, 1), (2, 2)] * 100
        rep = independence_distance(TupleStream(2, 2, stream), 0.3, 0.1, seed=3)
        assert abs(rep.distance_estimate - 0.5) <= 0.3 * 0.5

    def test_distance_constant_stream(self):
        rep = independence_distance(TupleStream(2, 4, [(2, 2)] * 60), 0.3, 0.1, seed=3)
        assert rep.distance_estimate == pytest.approx(0.0, abs=1e-6)

    def test_distance_uniform_independent(self):
        stream = [(a, b) for a in range(1, 5) for b in range(1, 5)] * 8
        rep = independence_distance(TupleStream(2, 4, stream), 0.3, 0.1, seed=3)
        assert rep.distance_estimate <= 0.3

    def test_integral_float_domain_gives_the_int_estimate(self):
        stream = [(1, 1), (2, 2), (1, 3), (4, 2)] * 15
        a = independence_distance(TupleStream(2, 4.0, stream), 0.3, 0.1, seed=4)
        b = independence_distance(TupleStream(2, 4, stream), 0.3, 0.1, seed=4)
        assert a.to_json() == b.to_json()

    def test_reports_are_deterministic(self):
        stream = [(1, 1), (2, 2), (1, 2)] * 20
        a = independence_distance(TupleStream(2, 2, stream), 0.3, 0.1, seed=9)
        b = independence_distance(TupleStream(2, 2, stream), 0.3, 0.1, seed=9)
        assert a.to_json() == b.to_json()

    def test_single_pass_consumption(self):
        consumed = []

        def gen():
            for i in range(40):
                rec = (i % 3 + 1, i % 2 + 1)
                consumed.append(rec)
                yield rec

        est = StreamDistanceEstimator(2, 3, 0.3, 0.1, seed=0)
        n = est.consume(gen())
        assert n == 40 and len(consumed) == 40
        assert est.m_seen == 40

    def test_diagnostics_carry_constants(self):
        rep = independence_distance(
            TupleStream(2, 4, [(1, 1), (2, 2)] * 30), 0.3, 0.1, seed=0
        )
        d = rep.diagnostics
        for key in (
            "rounds",
            "ratio_threshold",
            "alpha",
            "rho",
            "count_threshold",
            "phase_steps",
            "phase_ratio",
            "amplification",
            "bank_rows",
        ):
            assert key in d

    def test_every_override_lands_in_diagnostics(self):
        """Each field of EstimatorOverrides is a key of the run diagnostics,
        so a report can be audited against its effective configuration."""
        d = StreamDistanceEstimator(2, 4, 0.3, 0.1, seed=0).diagnostics()
        assert [name for name in EstimatorOverrides.__dataclass_fields__ if name not in d] == []


class TestFlushContraction:
    """Registry rows after several flushes of the sorted tally (a dense one
    is folded once) equal a fold of one record per flush; their margins are
    read as evaluation forms them."""

    @pytest.mark.parametrize("block", [sketches.FOLD_BLOCK, 7])
    @pytest.mark.parametrize("k,n", [(2, 4), (3, 3)])
    def test_rows_match_scalar_states(self, k, n, block, monkeypatch):
        banks, flushes = [], []
        add_bank, bulk_update = _BankRegistry.add_bank, _BankRegistry.bulk_update

        def recording_add(reg, prefix, s_prime, reps, seeds):
            key = add_bank(reg, prefix, s_prime, reps, seeds)
            handles = [(key, b * reps, (b + 1) * reps) for b in range(len(prefix))]
            banks.extend(zip(handles, prefix.copy(), np.asarray(seeds).tolist()))
            return key

        def counting_update(reg, tuples, counts):
            flushes.append(len(tuples))
            bulk_update(reg, tuples, counts)

        monkeypatch.setattr(_BankRegistry, "add_bank", recording_add)
        monkeypatch.setattr(_BankRegistry, "bulk_update", counting_update)
        monkeypatch.setattr(sketches, "FOLD_BLOCK", block)
        monkeypatch.setattr(stream_mod, "DENSE_CELLS", 0)
        monkeypatch.setattr(estimator, "_FOLD_TUPLES", 2)
        ov = EstimatorOverrides(amplification=1, rounds=1, eps_reps=3, polylog_reps=2)
        est = StreamDistanceEstimator(k, n, 0.3, 0.1, seed=1, overrides=ov)
        recs = list(generate_synthetic("mixture(0.5)", k, n, 40, seed=3))
        est.consume(recs)
        est.snapshot()  # flushes the last chunk and folds it
        reg = est.registry
        assert len(flushes) > 5 and reg.m_seen == len(recs)
        assert {h[0] for h, _, _ in banks} == set(reg.groups)
        monkeypatch.undo()  # the one-bank registries below fold at the default block
        counts = [np.bincount(np.array(recs)[:, j] - 1, minlength=n) for j in range(k)]
        for (key, start, stop), prefix, seed in banks:
            # row r of a bank does not depend on its repetition count
            s, s_prime = key
            g = reg.groups[key]
            assert g["margins"].tolist() == np.array(counts, dtype=float).tolist()
            joint, margins = (read(key, start // (stop - start)) for read in (reg.joint, reg.margins))
            bank = SketchBank(k, n, s, s_prime, prefix, min(2, stop - start), seed, reg.omega)
            for rec in recs:
                bank.update(rec)
            for r in range(bank.repetitions):
                assert joint[r] == pytest.approx(bank.joint[r], rel=1e-12)
                assert margins[r] == pytest.approx(bank.margins[r], rel=1e-12)

    def test_report_does_not_follow_the_fold_block(self, monkeypatch):
        """Fold blocks of 7 floats split every bank, repetition range and
        lead range, which only reorders sums: the report is byte-identical."""
        ov = EstimatorOverrides(amplification=1, rounds=2, eps_reps=5, polylog_reps=3)
        recs = list(generate_synthetic("mixture(0.5)", 3, 4, 300, seed=8))
        reports = []
        for block in (sketches.FOLD_BLOCK, 7):
            monkeypatch.setattr(sketches, "FOLD_BLOCK", block)
            stream = TupleStream(3, 4, recs)
            reports.append(independence_distance(stream, 0.3, 0.1, seed=4, overrides=ov).to_json())
        assert reports[0] == reports[1]
        assert '"distance_estimate"' in reports[0]


def _median(values) -> float:
    """``row_medians`` of one row."""
    return sketches.row_medians(np.asarray(values, dtype=np.float64).reshape(1, -1))[0]


MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 2.5]),
    st.floats(width=64),
)


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


HUGE = 1.7e308  # two of them sum past the float range


def _raising_medians(table):
    """``row_medians`` with overflow raised, so the sum of two huge middles
    must be quieted inside it. Only a row holding both infinities may add
    them (an invalid operation np.median warns on too)."""
    both = (np.isposinf(table).any(axis=1) & np.isneginf(table).any(axis=1)).any()
    with np.errstate(over="raise", invalid="ignore" if both else "raise"):
        return sketches.row_medians(table)


def _numpy_medians(table):
    with np.errstate(all="ignore"):  # np.median warns on the mean of two huge or infinite middles
        return np.array([np.median(row) for row in table])


@given(
    st.tuples(st.integers(1, 4), st.integers(1, 40)).flatmap(
        lambda shape: st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, math.inf, -math.inf, HUGE, -HUGE, 5e-324, 1.0]),
                st.floats(width=64, allow_nan=False),
            ),
            min_size=shape[0] * shape[1],
            max_size=shape[0] * shape[1],
        ).map(lambda v: np.array(v, dtype=np.float64).reshape(shape))
    )
)
@example(np.array([[-0.0], [0.0], [-0.0]]))
@example(np.array([[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, 1.0]]))
@example(np.array([[HUGE, 1.0, HUGE, HUGE], [-HUGE, -HUGE, 1.0, -HUGE], [HUGE, HUGE, 1.0, 0.0]]))
@example(np.array([[-math.inf, math.inf], [math.inf, math.inf], [-math.inf, 1.0]]))
@settings(max_examples=300, deadline=None)
def test_median_matches_numpy_to_the_bit(table):
    """Each row of a table against np.median, byte for byte: signed zeros,
    infinities, middle pairs whose sum overflows, odd and even widths. A
    NaN inserted at each position of the first row makes that row's median
    NaN, and only that row's."""
    got = _raising_medians(table)
    assert got.dtype == np.float64 and got.shape == table.shape[:1]
    assert got.tobytes() == _numpy_medians(table).tobytes()
    column = np.zeros(len(table))
    column[0] = np.nan
    for i in range(table.shape[1] + 1):
        with_nan = np.insert(table, i, column, axis=1)
        got = _raising_medians(with_nan)
        assert np.isnan(got[0])
        assert got.tobytes() == _numpy_medians(with_nan).tobytes()



def _scalar_round(u0, u1, ratio):
    """The round decision one round at a time: the reference of ``_decide_round``."""
    win1, win0 = u1 >= ratio * u0, u0 >= ratio * u1
    if win0 and win1:
        return 0.0
    return u1 if win1 else u0 if win0 else 0.0


_ONES = [1.0] * 14


@given(
    st.lists(MEDIAN_VALUES, min_size=14, max_size=14),
    st.sampled_from([1.0, 2.0, 3.5]),
    st.sampled_from([[0], [1], [0, 1]]),
    st.sampled_from([0, 1]),
)
@example(_ONES[:10] + [math.nan] + _ONES[11:], 1.0, [0], 0)  # tournament 3's coarse: unread
@example(_ONES[:4] + [math.nan] + _ONES[5:], 1.0, [0], 0)  # a NaN sharp under a finite coarse raises
@example(_ONES[:2] + [math.nan] + _ONES[3:], 1.0, [0], 0)  # tournament 0, round 1
@example(_ONES[:13] + [math.nan], 2.0, [1], 1)  # tournament 3's sharp
@settings(max_examples=300, deadline=None)
def test_tournament_arrays_match_the_scalar_rule(values, beta, one_round, single_side):
    """Tournament 0 runs two rounds with both sides present, tournament 1
    round 0 only with the sides ``one_round``, tournament 2 no round, and
    tournament 3, over a one-value mask, round 0 only with the side
    ``single_side``. A side reads Python's max(coarse / beta, sharp, 0),
    tournament 3's side max(sharp, 0), an absent side 0. The outputs are
    Python's min over tournament 0's round decisions, tournament 1's
    round 0 decision, 0.0 and tournament 3's round 0 decision, to the bit,
    with signed zeros and infinities. A NaN that a side reads (either value
    of a multi-value side, tournament 3's sharp value) raises
    ``SubAlgorithmError`` naming the first such side's tournament and round;
    tournament 3's coarse value is not read, so a NaN there does not."""
    coarse, sharp = values[:4] + values[8:11], values[4:8] + values[11:]
    cfg = TournamentConfig.from_targets(0.1, 0.1, beta=beta, rounds=2)
    ratio = cfg.ratio_threshold * beta**2
    t = [0, 0, 0, 0] + [1] * len(one_round) + [3]
    rd = [0, 0, 1, 1] + [0] * len(one_round) + [0]
    side = [0, 1, 0, 1] + one_round + [single_side]
    pick = list(range(4)) + [4 + s for s in one_round] + [6]
    with np.errstate(all="ignore"):
        u = [max(c / beta, s, 0.0) for c, s in zip(coarse, sharp)]
        u1 = [u[4 + s] if s in one_round else 0.0 for s in (0, 1)]
        u3 = [max(sharp[6], 0.0) if s == single_side else 0.0 for s in (0, 1)]
        # the sides, in order, that read a NaN: Python's max would drop a NaN sharp value
        nan = [i for i, p in enumerate(pick) if math.isnan(sharp[p]) or p < 6 and math.isnan(coarse[p])]

        def tournaments():
            return estimator._tournaments(
                cfg, np.array([False, False, False, True]), np.array(t), np.array(rd),
                np.array(side), np.array(coarse)[pick], np.array(sharp)[pick],
            )

        if nan:
            with pytest.raises(SubAlgorithmError) as err:
                tournaments()
            assert str(err.value) == f"tournament {t[nan[0]]}, round {rd[nan[0]]}: a side reads nan"
            return
        want = [
            min(_scalar_round(u[2 * r], u[2 * r + 1], ratio) for r in range(2)),
            _scalar_round(*u1, ratio),
            0.0,
            _scalar_round(*u3, ratio),
        ]
        got = tournaments()
    assert got.shape == (4,) and all(_same_float(float(g), w) for g, w in zip(got, want))


def _scalar_layer(value, shift, growth):
    """The layer of one positive value, by a log guess corrected against
    Python's pow: the reference of ``_layered_sums``' edges. None below
    layer -1."""
    x = value / shift
    l = math.floor(math.log(x) / math.log(growth) + 1e-12)
    while growth ** (l + 1) <= x:
        l += 1
    while growth**l > x:
        l -= 1
    return l if l >= -1 else None


def _scalar_layered_sums(cfg, q, outputs):
    """The layered sums one output at a time, with a dict of layers per run
    in first-seen order: the reference of ``_layered_sums``."""
    growth = 1.0 + cfg.epsilon
    lo, hi = cfg.count_threshold / growth**2, (1.0 + 3.0 * cfg.epsilon) * cfg.count_threshold
    shifts = [(1.0 + cfg.phase_ratio) ** x for x in q]
    layers = [{} for _ in shifts]  # per run: layer -> level -> count
    for run, j, value in outputs:
        l = _scalar_layer(value, shifts[run], growth) if value > 0.0 else None
        if l is not None:
            per_level = layers[run].setdefault(l, {})
            per_level[j] = per_level.get(j, 0) + 1
    sums = []
    for shift, by_layer in zip(shifts, layers):
        total = 0.0
        for l, per_level in by_layer.items():
            z = max([j for j, c in per_level.items() if j > 0 and lo < c <= hi], default=0)
            total += growth ** (z + l) * per_level.get(z, 0)
        sums.append(shift * total)
    return sums


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_layered_sums_match_the_scalar_rule(data):
    """Interleaved runs of several phases, with outputs on the layer edges
    and one ulp either side, below the grid, zero, negative and above 2**48,
    repeated so that counts land on both edges of a small window (exactly on
    them at epsilon 0.5: count threshold 2 puts the top at 5.0, 9 the bottom
    at 4.0): the array stage gives the scalar rule's sums to the bit."""
    epsilon, chi = data.draw(st.sampled_from([(0.1, 1), (0.3, 3), (0.6, 4), (0.5, 2), (0.5, 9)]))
    cfg = LayerConfig.from_targets(
        epsilon, 64, 1e6, count_threshold=chi, phase_steps=data.draw(st.integers(2, 9))
    )
    q = data.draw(st.lists(st.integers(0, cfg.phase_steps - 1), min_size=1, max_size=3), "q")
    growth, runs, levels = 1.0 + epsilon, st.integers(0, len(q) - 1), st.integers(0, 3)

    def on_edge(run, l, toward):
        edge = (1.0 + cfg.phase_ratio) ** q[run] * growth**l
        return float(np.nextafter(edge, {-1: -math.inf, 0: edge, 1: math.inf}[toward]))

    edge = st.builds(on_edge, runs, st.integers(-3, 120), st.sampled_from([-1, 0, 1]))
    off_grid = st.one_of(
        st.floats(0.0, 1.0 / growth),  # below the bottom edge of every phase
        st.floats(max_value=0.0, allow_infinity=False),
        st.floats(2.0**48, 1e300),
    )
    lo, hi = chi / growth**2, (1.0 + 3.0 * epsilon) * chi
    repeats = st.sampled_from(sorted({1, int(lo), int(lo) + 1, int(hi), int(hi) + 1} - {0}))

    def cells(value, most):
        return data.draw(st.lists(st.tuples(runs, levels, value, repeats), max_size=most))

    drawn = cells(edge, 12) + cells(off_grid, 4)
    outputs = data.draw(st.permutations([c[:3] for c in drawn for _ in range(c[3])]), "outputs")
    run = np.array([o[0] for o in outputs], dtype=np.int64)
    j = np.array([o[1] for o in outputs], dtype=np.int64)
    v = np.array([o[2] for o in outputs], dtype=np.float64)
    got = estimator._layered_sums(cfg, np.array(q), run, j, v)
    want = np.array(_scalar_layered_sums(cfg, q, outputs), dtype=np.float64)
    assert got.tobytes() == want.tobytes()


class TestMedianTable:
    """The registry's median table holds each bank's ``_median(|values|)``, to the bit."""

    @given(
        st.lists(
            st.tuples(st.integers(1, 250), st.integers(1, 3)).flatmap(
                lambda rb: st.lists(MEDIAN_VALUES, min_size=rb[0] * rb[1], max_size=rb[0] * rb[1]).map(
                    lambda v: (rb[0], v)
                )
            ),
            min_size=1,
            max_size=2,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_table_is_median_of_each_bank(self, groups):
        reg = _BankRegistry(3, 2, omega=100.0)
        banks = []
        for s_prime, (reps, values) in enumerate(groups):  # coarse groups (1, 0) and (1, 1)
            count = len(values) // reps
            prefix = np.tile(np.array([[[1, 0]]], np.uint8), (count, 1, 1))
            key = reg.add_bank(prefix, s_prime, reps, np.arange(count))
            banks += [(key, i, reps) for i in range(count)]
        for s_prime, (_reps, values) in enumerate(groups):
            reg.groups[(1, s_prime)]["joint"][:] = values  # margins stay 0, so values are exact
        reg.m_seen = 1
        for block in (sketches.FOLD_BLOCK, 7, 1):
            with pytest.MonkeyPatch.context() as mp, np.errstate(over="raise"):
                mp.setattr(estimator, "FOLD_BLOCK", block)
                table = reg.medians()
                for key, i, reps in banks:
                    bank = np.abs(groups[key[1]][1][i * reps : (i + 1) * reps])
                    got = table[key][i]
                    assert np.float64(got).tobytes() == np.float64(_median(bank)).tobytes()
                    # np.median keeps a NaN's payload, row_medians gives np.nan
                    assert _same_float(got, _numpy_medians(bank[None])[0])
        assert all(m.dtype == np.float64 for m in table.values())
        assert [len(m) for m in table.values()] == [len(v) // r for r, v in groups]

    def test_a_group_is_registered_once(self):
        reg = _BankRegistry(2, 2, omega=100.0)
        mask = np.array([[[1, 1]], [[1, 0]]], np.uint8)
        added = [reg.add_bank(mask, 0, 3, [1, 2]), reg.add_bank(mask[:1], 1, 4, [3])]
        got = [(key, len(reg.groups[key]["prefix"])) for key in added]
        assert got == [((1, 0), 2), ((1, 1), 1)]
        # (1, 1) is k = 2's sharp group: (banks, n) counts, no joint per row
        assert reg.reps == {(1, 0): 3, (1, 1): 4} and reg.rows() == 10
        assert [g["joint"].shape for g in reg.groups.values()] == [(6,), (4, 0)]
        assert "counts" not in reg.groups[(1, 0)] and reg.groups[(1, 1)]["counts"].shape == (1, 2)
        with pytest.raises(ConfigurationError, match=r"group \(1, 0\) must be registered once"):
            reg.add_bank(mask, 0, 3, [4, 5])
        with pytest.raises(ConfigurationError, match="repetitions must be >= 1"):
            reg.add_bank(mask[:, :0], 0, 0, [6, 7])
        reg.bulk_update(np.array([[1, 2]]), np.array([1]))
        with pytest.raises(ConfigurationError, match="before the pass"):
            reg.add_bank(mask[:, :0], 0, 3, [6, 7])
        assert list(reg.groups) == [(1, 0), (1, 1)]


def test_build_derives_per_depth_not_per_bank(monkeypatch):
    """A k = 3, n = 4 construction (1,296 banks, all sharp: every bucket
    holds one value) derives its seeds and masks with a fixed number of
    array calls per depth and registers each group's banks in one call;
    built one tournament side at a time, the same plan with every round of
    its one-value buckets and a coarse bank per side (23,436 banks) made
    60,029 derive_key, 3,924 zero_one_tables and 23,436 add_bank calls.
    No Cauchy table is drawn: a pass draws them."""
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for mod in (estimator, hashing, sketches):
        monkeypatch.setattr(mod, "derive_key", counting("derive_key", mod.derive_key))
    for mod in (estimator, hashing):
        tables = counting("zero_one_tables", mod.zero_one_tables)
        monkeypatch.setattr(mod, "zero_one_tables", tables)
    monkeypatch.setattr(_BankRegistry, "add_bank", counting("add_bank", _BankRegistry.add_bank))
    est = StreamDistanceEstimator(3, 4, 0.3, 0.1, seed=1)
    groups = est.registry.groups.values()
    assert sum(len(g["prefix"]) for g in groups) == 1_296
    depths = 2
    assert calls["derive_key"] <= 16 * depths
    assert calls["zero_one_tables"] <= 2 * depths
    assert calls["add_bank"] == len(groups) == 1


def test_bucket_masks_are_the_largest_array_of_a_cover(monkeypatch):
    """At k = 2, n = 1024 the 9 covers of the one depth occupy 9,216
    buckets, whose uint8 masks (9 MiB) bound what ``_buckets`` holds: each
    mask is scattered from its cover's nonzero cells. Comparing a (buckets,
    n) int64 copy of the bucket tables against each bucket held about 10
    times the masks."""
    buckets, peaks = estimator._buckets, []

    def traced(H, seeds, cfg):
        tracemalloc.start()
        out = buckets(H, seeds, cfg)
        peaks.append((tracemalloc.get_traced_memory()[1], out[2].nbytes))
        tracemalloc.stop()
        return out

    monkeypatch.setattr(estimator, "_buckets", traced)
    StreamDistanceEstimator(2, 1024, 0.3, 0.1, seed=1)
    [(peak, masks)] = peaks
    assert masks == 9216 * 1024 and peak < 2 * masks


def test_evaluation_memory_stays_per_block():
    # default profile: 1.16M rows, 1.04M of them in group (2, 2)
    est = StreamDistanceEstimator(3, 8, 0.3, 0.1, seed=7)
    banks = len(est.registry.groups[(2, 2)]["prefix"])
    assert banks * est.registry.reps[(2, 2)] == 1_036_800
    est.consume(generate_synthetic("mixture(0.5)", 3, 8, 100, seed=1))
    tracemalloc.start()
    try:
        est.tensor_norm_estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    med = est.registry.medians()
    table = sys.getsizeof(med) + sum(sys.getsizeof(m) for m in med.values())
    work = est.registry._work.nbytes  # reserved by the first draw, held for later ones
    # beyond the table and the draw workspace: two block-sized float
    # temporaries at a time (the flush's masked counts of a block of banks,
    # or a block's values and their partition)
    assert peak - table - work <= 2 * 8 * sketches.FOLD_BLOCK + (64 << 10)


def test_construction_stores_no_cauchy_table():
    """A k = 4, n = 4 construction (9.3M rows; their Cauchy tables would take
    285 MiB) holds no array that scales with rows: its one group, the sharp
    one, keeps n counts per bank and a joint of no float per row, uint8
    prefix masks, one seed per bank and (k, n) value counts. The draw
    workspace is reserved by the first draw, not at construction.
    Beyond them the plan's index arrays (2.2 MiB) and construction
    temporaries stay under 8 MiB."""
    tracemalloc.start()
    try:
        est = StreamDistanceEstimator(4, 4, 0.3, 0.1, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reg = est.registry
    assert est.bank_rows() == 9_331_200
    held = 0
    for (s, s_prime), g in reg.groups.items():
        banks = len(g["prefix"])
        assert set(g) == {"prefix", "coeff", "joint", "margins", "counts"}
        assert (g["coeff"].dtype, g["coeff"].shape) == (np.uint64, (banks,))
        assert g["margins"].shape == (4, 4)
        assert (g["prefix"].dtype, g["prefix"].shape) == (np.uint8, (banks, s, 4))
        rows = banks * reg.reps[(s, s_prime)]
        assert (s, s_prime, g["joint"].shape, g["counts"].shape) == (3, 3, (rows, 0), (banks, 4))
        held += sum(a.nbytes for a in g.values())
    assert reg._work.nbytes == 0
    assert peak <= held + (8 << 20)


def _table_values(reg, keys) -> int:
    """The Cauchy values of one draw of the tables of groups ``keys``."""
    return sum(len(reg.groups[key]["prefix"]) * reg.reps[key] * (reg.k - key[1]) * reg.n for key in keys)


def _counting_draws(monkeypatch) -> list:
    """Record the size of every Cauchy table draw of the estimator module."""
    drawn = []
    fill = estimator.batched_cauchy_tables

    def counting(*args, **kwargs):
        out = fill(*args, **kwargs)
        drawn.append(out.size)
        return out

    monkeypatch.setattr(estimator, "batched_cauchy_tables", counting)
    return drawn


def test_a_one_flush_run_draws_each_table_once(monkeypatch):
    """Construction draws no Cauchy value; a run whose tally is folded once
    draws each row's k - s' tables once, in the pass that folds and
    evaluates them. Three groups: a coarse group at each of two depths and
    the sharp group."""
    drawn = _counting_draws(monkeypatch)
    k, n = 3, 4
    est = StreamDistanceEstimator(k, n, 0.3, 0.1, seed=3, overrides=EstimatorOverrides(rho=16))
    assert not drawn and list(est.registry.groups) == [(1, 0), (2, 1), (2, 2)]
    est.consume(generate_synthetic("mixture(0.5)", k, n, 2000, seed=1))
    assert not drawn
    est.tensor_norm_estimate()
    assert sum(drawn) == _table_values(est.registry, est.registry.groups)


def test_split_banks_draw_and_evaluate_as_whole_banks(monkeypatch):
    """A bank whose tables outgrow a block is drawn in blocks of its
    repetitions: its tables are those of whole-bank blocks, bit for bit,
    and so, up to summation order, are its folds and medians."""
    k, n = 2, 8
    recs = list(generate_synthetic("mixture(0.5)", k, n, 500, seed=4))
    runs = []
    for block in (estimator.FOLD_BLOCK, 400):
        monkeypatch.setattr(estimator, "FOLD_BLOCK", block)
        est = StreamDistanceEstimator(k, n, 0.3, 0.1, seed=2)
        reg = est.registry
        ((key, reps),) = reg.reps.items()
        split = [q1 - q0 < reps for _b0, _b1, q0, q1 in reg._blocks(key)]
        assert any(split) == (block == 400)
        est.consume(recs)
        runs.append((reg.tables(key), est.tensor_norm_estimate(), reg.medians()[key]))
    (tables, estimate, medians), (split_tables, split_estimate, split_medians) = runs
    assert split_tables.tobytes() == tables.tobytes()
    assert split_estimate == pytest.approx(estimate, rel=1e-12)
    np.testing.assert_allclose(split_medians, medians, rtol=1e-12)


def test_a_sharp_only_sorted_run_draws_once(monkeypatch):
    """A sorted tally is folded whenever it reaches the fold bound, but a
    sharp group only adds each chunk to its masked counts: a desk-profile
    run (the sharp group alone) draws every table once, at evaluation,
    however many times it folds."""
    drawn = _counting_draws(monkeypatch)
    monkeypatch.setattr(stream_mod, "DENSE_CELLS", 0)
    k, n = 2, 16
    recs = np.array(list(generate_synthetic("mixture(0.5)", k, n, 400, seed=2)))
    distinct = len(np.unique(recs, axis=0))
    for bound in (7, distinct - 1, distinct + 1):
        monkeypatch.setattr(estimator, "_FOLD_TUPLES", bound)
        est = StreamDistanceEstimator(k, n, 0.3, 0.1, seed=1)
        assert list(est.registry.groups) == [(k - 1, k - 1)]
        est.consume(recs)
        assert not drawn  # a flush only counts
        est.tensor_norm_estimate()
        assert sum(drawn) == _table_values(est.registry, est.registry.groups)
        drawn.clear()


def test_a_sorted_run_draws_once_per_fold(monkeypatch):
    """A coarse group folds each chunk in the pass the next chunk opens: a
    run that crosses the fold bound once draws its coarse tables twice
    (the fold at the next chunk, then evaluation, which folds the last
    chunk), and a run that stays under it once; the sharp tables are drawn
    once either way."""
    drawn = _counting_draws(monkeypatch)
    monkeypatch.setattr(stream_mod, "DENSE_CELLS", 0)
    k, n = 2, 16
    recs = np.array(list(generate_synthetic("mixture(0.5)", k, n, 400, seed=2)))
    distinct = len(np.unique(recs, axis=0))
    for bound, draws in ((distinct - 1, 2), (distinct + 1, 1)):
        monkeypatch.setattr(estimator, "_FOLD_TUPLES", bound)
        est = StreamDistanceEstimator(k, n, 0.3, 0.1, seed=1, overrides=EstimatorOverrides(rho=16))
        reg = est.registry
        assert list(reg.groups) == [(1, 0), (1, 1)]
        est.consume(recs)
        assert not drawn
        est.tensor_norm_estimate()
        assert sum(drawn) == draws * _table_values(reg, [(1, 0)]) + _table_values(reg, [(1, 1)])
        drawn.clear()


def test_a_dense_tally_is_folded_once(monkeypatch):
    """A dense tally is never cut at the fold bound: a stream of more
    distinct tuples than the bound makes one bulk_update, at evaluation,
    and its estimate is that of the same stream folded in chunks of that
    many distinct tuples on the sorted tally, up to summation order."""
    flushes = []
    bulk_update = _BankRegistry.bulk_update

    def counting_update(reg, tuples, counts):
        flushes.append(len(tuples))
        bulk_update(reg, tuples, counts)

    monkeypatch.setattr(_BankRegistry, "bulk_update", counting_update)
    bound = 7
    monkeypatch.setattr(estimator, "_FOLD_TUPLES", bound)
    recs = np.array(list(generate_synthetic("independent", 2, 16, 3000, seed=5)))
    distinct = len(np.unique(recs, axis=0))
    estimates = []
    for cells in (stream_mod.DENSE_CELLS, 0):
        monkeypatch.setattr(stream_mod, "DENSE_CELLS", cells)
        flushes.clear()
        est = StreamDistanceEstimator(2, 16, 0.3, 0.1, seed=1)
        est.consume(recs)
        during = len(flushes)
        estimates.append(est.tensor_norm_estimate())
        if cells:  # dense: no flush during the pass, one at evaluation
            assert (during, flushes) == (0, [distinct]) and distinct > bound
        else:
            assert len(flushes) > distinct // bound and sum(flushes) >= distinct
    assert estimates[0] == pytest.approx(estimates[1], rel=1e-12)


class TestBlockTally:
    """Flush boundaries of the sorted tally follow the record-at-a-time rule
    however records are blocked (a dense tally is flushed once)."""

    @pytest.mark.parametrize("bound", [1, 2, 3, 7, estimator._FOLD_TUPLES])
    def test_blocking_does_not_move_flushes(self, bound, monkeypatch):
        k, n = 3, 3
        recs = np.array(list(generate_synthetic("mixture(0.5)", k, n, 60, seed=4)))
        cuts = np.sort(np.random.default_rng(bound).choice(np.arange(1, 60), 8, replace=False))
        ways = {
            "one block": [recs],
            "one-record blocks": [r[None] for r in recs],
            "random splits": np.split(recs, cuts),
            "tuples": list(map(tuple, recs.tolist())),
        }
        # the chunk closes at the record that brings it to the bound's distinct tuples
        expected, seen = [], set()
        for r in map(tuple, recs.tolist()):
            seen.add(r)
            if len(seen) >= bound:
                expected.append(len(seen))
                seen = set()
        expected += [len(seen)] if seen else []

        flushes = []
        bulk_update = _BankRegistry.bulk_update

        def counting_update(reg, tuples, counts):
            flushes[-1].append(len(tuples))
            bulk_update(reg, tuples, counts)

        monkeypatch.setattr(_BankRegistry, "bulk_update", counting_update)
        monkeypatch.setattr(stream_mod, "DENSE_CELLS", 0)
        monkeypatch.setattr(estimator, "_FOLD_TUPLES", bound)
        ov = EstimatorOverrides(amplification=1, rounds=1, eps_reps=3, polylog_reps=2)
        states = []
        for source in ways.values():
            flushes.append([])
            est = StreamDistanceEstimator(k, n, 0.3, 0.1, seed=1, overrides=ov)
            assert est.consume(source) == len(recs) == est.m_seen
            est.snapshot()  # flushes the last chunk and folds it
            states.append(est.registry.groups)
        assert all(f == expected for f in flushes)
        for groups in states[1:]:
            for key, g in states[0].items():
                assert groups[key].keys() == g.keys()
                for f in ("joint", "counts", "margins"):
                    assert f not in g or np.array_equal(groups[key][f], g[f])


class TestGoldenEstimates:
    """Estimates pinned from the per-tuple flush rule; flush boundaries
    must not move them. They are checked on the sorted tally, whose fold
    bound sets the flush boundaries (a dense tally is folded once)."""

    LEAN = EstimatorOverrides(amplification=3, rounds=2, eps_reps=64, polylog_reps=12)

    @pytest.mark.parametrize(
        "k,n,m,stream_seed,seed,lean,expected",
        [
            (2, 8, 400, 11, 5, False, 0.4291583114642674),
            (2, 8, 400, 12, 6, False, 0.38283842731017836),
            (3, 3, 150, 13, 7, True, 0.50338961017692),
            (3, 3, 150, 14, 8, True, 0.47521187341253684),
        ],
        ids=["k2-n8-seed5", "k2-n8-seed6", "k3-n3-seed7-lean", "k3-n3-seed8-lean"],
    )
    def test_mixture_estimates(self, k, n, m, stream_seed, seed, lean, expected, monkeypatch):
        recs = list(generate_synthetic("mixture(0.5)", k, n, m, seed=stream_seed))
        ov = self.LEAN if lean else EstimatorOverrides()
        monkeypatch.setattr(stream_mod, "DENSE_CELLS", 0)
        for bound in (7, estimator._FOLD_TUPLES):
            monkeypatch.setattr(estimator, "_FOLD_TUPLES", bound)
            rep = independence_distance(TupleStream(k, n, recs), 0.3, 0.1, seed=seed, overrides=ov)
            assert rep.distance_estimate == pytest.approx(expected, rel=1e-9)
