"""Tournament, cover, layered estimator and the end-to-end pipeline."""

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
    ProductSketchState,
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
from indisketch import estimator, hashing, sketches
from indisketch.estimator import (
    _BankRegistry,
    _split_masks,
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
            ({"max_chunk": 0}, "max_chunk must be >= 1"),
            ({"eps_reps": 2.5}, "non-integer eps_reps 2.5"),
            ({"amplification": 2.5}, "non-integer amplification 2.5"),
            ({"max_chunk": 2.5}, "non-integer max_chunk 2.5"),
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

    def test_uniform_vector_rejected(self):
        subs = exact_sub_oracles(diag_embed(np.ones(64, dtype=np.int64)), beta=2.0)
        cfg = TournamentConfig.from_targets(0.1, 0.1, beta=2.0)
        zeros = sum(
            tensor_tournament(ones_mask(64), cfg, subs, seed=s) == 0.0
            for s in range(100)
        )
        assert zeros >= 90


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
        m1 = _split_masks(H[None], 1, np.array([seed], dtype=np.uint64))[0, 0, 1]
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


class TestFlushContraction:
    """Registry rows after several flushes equal the scalar update rule."""

    @pytest.mark.parametrize("block", [sketches.FOLD_BLOCK, 7])
    @pytest.mark.parametrize("k,n", [(2, 4), (3, 3)])
    def test_rows_match_scalar_states(self, k, n, block, monkeypatch):
        banks, flushes = [], []
        add_bank, bulk_update = _BankRegistry.add_bank, _BankRegistry.bulk_update

        def recording_add(reg, prefix, s_prime, reps, seeds):
            key, ids = add_bank(reg, prefix, s_prime, reps, seeds)
            handles = [(key, b * reps, (b + 1) * reps) for b in ids.tolist()]
            banks.extend(zip(handles, prefix.copy(), np.asarray(seeds).tolist()))
            return key, ids

        def counting_update(reg, tuples, counts):
            flushes.append(len(tuples))
            bulk_update(reg, tuples, counts)

        monkeypatch.setattr(_BankRegistry, "add_bank", recording_add)
        monkeypatch.setattr(_BankRegistry, "bulk_update", counting_update)
        monkeypatch.setattr(sketches, "FOLD_BLOCK", block)
        ov = EstimatorOverrides(
            amplification=1, rounds=1, eps_reps=3, polylog_reps=2, max_chunk=2
        )
        est = StreamDistanceEstimator(k, n, 0.3, 0.1, seed=1, overrides=ov)
        recs = list(generate_synthetic("mixture(0.5)", k, n, 40, seed=3))
        est.consume(recs)
        reg = est.registry
        assert len(flushes) > 5 and reg.m_seen == len(recs)
        assert {h[0] for h, _, _ in banks} == set(reg.groups)
        for (key, start, stop), prefix, seed in banks:
            s, s_prime = key
            g = reg.groups[key]
            for r in range(stop - start):
                st_ = ProductSketchState.from_seeds(
                    k, n, s, s_prime, prefix, seed=seed, omega=reg.omega, rep=r
                )
                for rec in recs:
                    st_.update(rec)
                assert g["joint"][start + r] == pytest.approx(st_.joint, rel=1e-12)
                assert g["margins"][start + r] == pytest.approx(st_.margins, rel=1e-12)

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


@given(st.lists(MEDIAN_VALUES, min_size=8, max_size=8), st.sampled_from([1.0, 2.0, 3.5]))
@settings(max_examples=300, deadline=None)
def test_tournament_arrays_match_the_scalar_rule(values, beta):
    """Two rounds with both sides present: a side reads Python's
    max(coarse / beta, sharp, 0), and the output is Python's min over the
    rounds' decisions, to the bit, with signed zeros, infinities and NaNs."""
    coarse, sharp = np.array(values[:4]), np.array(values[4:])
    cfg = TournamentConfig.from_targets(0.1, 0.1, beta=beta, rounds=2)
    ratio = cfg.ratio_threshold * beta**2
    with np.errstate(all="ignore"):
        u = [max(c / beta, s, 0.0) for c, s in zip(values[:4], values[4:])]
        want = min(_scalar_round(u[2 * r], u[2 * r + 1], ratio) for r in range(2))
        rd, side = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        (got,) = estimator._tournaments(cfg, 1, np.zeros(4, int), rd, side, coarse, sharp)
    assert _same_float(float(got), want)


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
        reg = _BankRegistry(2, 2, omega=100.0)
        banks = []
        for s_prime, (reps, values) in enumerate(groups):  # groups (1, 0) and (1, 1)
            count = len(values) // reps
            prefix = np.tile(np.array([[[1, 0]]], np.uint8), (count, 1, 1))
            key, ids = reg.add_bank(prefix, s_prime, reps, np.arange(count))
            banks += [(key, i, reps) for i in ids.tolist()]
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
        got = [(key, banks.tolist()) for key, banks in added]
        assert got == [((1, 0), [0, 1]), ((1, 1), [0])]
        assert [len(g["joint"]) for g in reg.groups.values()] == [6, 4]
        with pytest.raises(ConfigurationError, match=r"group \(1, 0\) must be registered once"):
            reg.add_bank(mask, 0, 3, [4, 5])
        with pytest.raises(ConfigurationError, match="repetitions must be >= 1"):
            reg.add_bank(mask[:, :0], 0, 0, [6, 7])
        reg.bulk_update(np.array([[1, 2]]), np.array([1]))
        with pytest.raises(ConfigurationError, match="before the pass"):
            reg.add_bank(mask[:, :0], 0, 3, [6, 7])
        assert list(reg.groups) == [(1, 0), (1, 1)]


def test_build_derives_per_depth_not_per_bank(monkeypatch):
    """A k = 3, n = 4 construction (23,436 banks) derives its seeds and
    masks with a fixed number of array calls per depth and registers each
    group's banks in one call; built one tournament side at a time, it made
    60,029 derive_key, 3,924 zero_one_tables and 23,436 add_bank calls. The
    Cauchy fill adds one derive_key per row block and family, and
    repetition_seeds two per group."""
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
    assert sum(len(g["prefix"]) for g in groups) == 23_436
    step = hashing.FOLD_BLOCK // 4
    fill = sum(-(-len(g["joint"]) // step) * g["coeff"].shape[1] + 2 for g in groups)
    depths = 2
    assert calls["derive_key"] - fill <= 16 * depths
    assert calls["zero_one_tables"] <= 2 * depths
    assert calls["add_bank"] == len(groups) == 3


def test_evaluation_memory_stays_per_block():
    # default profile: 1.47M rows, 1.31M of them in group (2, 2)
    est = StreamDistanceEstimator(3, 3, 0.3, 0.1, seed=7)
    assert len(est.registry.groups[(2, 2)]["joint"]) == 1_312_200
    est.consume(generate_synthetic("mixture(0.5)", 3, 3, 100, seed=1))
    tracemalloc.start()
    try:
        est.tensor_norm_estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    med = est.registry.medians()
    table = sys.getsizeof(med) + sum(sys.getsizeof(m) for m in med.values())
    # beyond the table: two block-sized float temporaries at a time (the
    # scaled joint and the margin products, or a block and its partition)
    assert peak - table <= 2 * 8 * sketches.FOLD_BLOCK + (64 << 10)


class TestBlockTally:
    """Flush boundaries follow the record-at-a-time rule however records are blocked."""

    @pytest.mark.parametrize("max_chunk", [1, 2, 3, 7, EstimatorOverrides().max_chunk])
    def test_blocking_does_not_move_flushes(self, max_chunk, monkeypatch):
        k, n = 3, 3
        recs = np.array(list(generate_synthetic("mixture(0.5)", k, n, 60, seed=4)))
        cuts = np.sort(np.random.default_rng(max_chunk).choice(np.arange(1, 60), 8, replace=False))
        ways = {
            "one block": [recs],
            "one-record blocks": [r[None] for r in recs],
            "random splits": np.split(recs, cuts),
            "tuples": list(map(tuple, recs.tolist())),
        }
        # the chunk closes at the record that brings it to max_chunk distinct tuples
        expected, seen = [], set()
        for r in map(tuple, recs.tolist()):
            seen.add(r)
            if len(seen) >= max_chunk:
                expected.append(len(seen))
                seen = set()
        expected += [len(seen)] if seen else []

        flushes = []
        bulk_update = _BankRegistry.bulk_update

        def counting_update(reg, tuples, counts):
            flushes[-1].append(len(tuples))
            bulk_update(reg, tuples, counts)

        monkeypatch.setattr(_BankRegistry, "bulk_update", counting_update)
        ov = EstimatorOverrides(
            amplification=1, rounds=1, eps_reps=3, polylog_reps=2, max_chunk=max_chunk
        )
        states = []
        for source in ways.values():
            flushes.append([])
            est = StreamDistanceEstimator(k, n, 0.3, 0.1, seed=1, overrides=ov)
            assert est.consume(source) == len(recs) == est.m_seen
            states.append(est.registry.groups)
        assert all(f == expected for f in flushes)
        for groups in states[1:]:
            for key, g in states[0].items():
                assert np.array_equal(groups[key]["joint"], g["joint"])
                assert np.array_equal(groups[key]["margins"], g["margins"])


class TestGoldenEstimates:
    """Estimates pinned from the per-tuple flush rule; flush boundaries
    must not move them."""

    LEAN = EstimatorOverrides(amplification=3, rounds=2, eps_reps=64, polylog_reps=12)

    @pytest.mark.parametrize(
        "k,n,m,stream_seed,seed,lean,expected",
        [
            (2, 8, 400, 11, 5, False, 0.3608696225933265),
            (2, 8, 400, 12, 6, False, 0.3155551203795471),
            (3, 3, 150, 13, 7, True, 0.314966838847844),
            (3, 3, 150, 14, 8, True, 0.3505178336580359),
        ],
    )
    def test_mixture_estimates(self, k, n, m, stream_seed, seed, lean, expected):
        recs = list(generate_synthetic("mixture(0.5)", k, n, m, seed=stream_seed))
        base = self.LEAN if lean else EstimatorOverrides()
        for chunk in (1, base.max_chunk):
            rep = independence_distance(
                TupleStream(k, n, recs),
                0.3,
                0.1,
                seed=seed,
                overrides=base.replace(max_chunk=chunk),
            )
            assert rep.distance_estimate == pytest.approx(expected, rel=1e-9)
