"""Tournament, cover, layered estimator and the end-to-end pipeline."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indisketch import (
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
    sampling_level,
    split_compare_ratio,
    tensor_tournament,
)
from indisketch import estimator, sketches
from indisketch.estimator import (
    _BankRegistry,
    _LeafRef,
    _median,
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
        ]:
            ov = EstimatorOverrides(**bad)
            with pytest.raises(ConfigurationError, match=message):
                StreamDistanceEstimator(2, 4, 0.3, 0.1, overrides=ov)
            with pytest.raises(ConfigurationError, match=message):
                dimension_reduce(4, subs, 0.3, 0.1, overrides=ov)
        for omega in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigurationError, match="omega must be positive"):
                StreamDistanceEstimator(2, 4, 0.3, 0.1, overrides=EstimatorOverrides(omega=omega))

    def test_delta_outside_unit_interval_rejected(self):
        # with a fixed amplification count no formula reads delta, so both
        # routes check it up front
        subs = exact_sub_oracles(diag_embed([3, 1, 1, 1]), beta=1.0)
        for delta in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigurationError, match=f"delta={delta} outside"):
                StreamDistanceEstimator(2, 4, 0.3, delta)
            with pytest.raises(ConfigurationError, match=f"delta={delta} outside"):
                dimension_reduce(4, subs, 0.3, delta)

    def test_layer_scale_override(self):
        full = LayerConfig.from_targets(0.3, 64, value_bound=1e6)
        small = LayerConfig.from_targets(0.3, 64, value_bound=1e6, scale_override=1e-4)
        assert small.count_threshold < full.count_threshold
        assert small.phase_steps < full.phase_steps
        assert small.phase_ratio >= 0.3 / (2 * small.phase_steps) - 1e-12


class TestSamplingLevel:
    def test_first_bracket_boundary(self):
        cfg = LayerConfig.from_targets(0.3, 16, 1e3, count_threshold=100)
        assert sampling_level(100 * 1.3, cfg) == 1

    def test_doubling(self):
        cfg = LayerConfig.from_targets(0.1, 16, 1e3, count_threshold=100)
        assert sampling_level(200.0, cfg) == math.ceil(math.log(2) / math.log(1.1))

    def test_exact_bracket_endpoint(self):
        cfg = LayerConfig.from_targets(0.3, 16, 1e3, count_threshold=100)
        assert sampling_level(100 * 1.3**5, cfg) == 5

    def test_domain(self):
        cfg = LayerConfig.from_targets(0.3, 16, 1e3, count_threshold=100)
        with pytest.raises(ConfigurationError):
            sampling_level(99.0, cfg)


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
        def approx(mask, *_):
            if mask[coordinate - 1]:
                raise ValueError(f"oracle down at {coordinate}")
            return float(mask.sum())

        return SubAlgorithms(approx_a=approx, approx_b=approx, beta=1.0)

    def test_tournament(self):
        H, seed = ones_mask(8), 4
        _, _, m1 = next(_split_masks(H, 1, seed))
        side = int(m1[2])  # the side of round 0 holding coordinate 3
        cfg = TournamentConfig.from_targets(0.1, 0.1, beta=1.0, rounds=3)
        with pytest.raises(SubAlgorithmError) as err:
            tensor_tournament(H, cfg, self.subs_failing_at(3), seed=seed)
        assert str(err.value) == f"round 0, side {side}: oracle down at 3"
        assert isinstance(err.value.__cause__, ValueError)

    def test_dimension_reduce(self):
        with pytest.raises(SubAlgorithmError, match=r"^round \d+, side [01]: oracle down at 3$"):
            dimension_reduce(8, self.subs_failing_at(3), 0.3, 0.1, seed=1)


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


def exact_cover_oracle(v):
    """Cover oracle returning the exact positive masked entries."""

    def run(mask, _seed):
        return [float(x) for x, m in zip(v, mask) if m and x > 0]

    return run


class TestLayeredEstimate:
    def test_zero_vector(self):
        cfg = LayerConfig.from_targets(0.3, 16, 1e4)
        assert layered_l1_estimate(16, cfg, exact_cover_oracle(np.zeros(16)), seed=0) == 0.0

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

        def recording_add(reg, prefix, s_prime, reps, seed):
            handle = add_bank(reg, prefix, s_prime, reps, seed)
            banks.append((handle, [np.array(h) for h in prefix], seed))
            return handle

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


@given(st.lists(st.floats(width=64, allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_median_matches_numpy_to_the_bit(values):
    with np.errstate(all="ignore"):  # the mean of two huge or infinite middles
        want, got = np.float64(np.median(np.array(values))), np.float64(_median(values))
    assert got.tobytes() == want.tobytes()
    assert np.isnan(_median(values + [float("nan")]))


MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 2.5]),
    st.floats(width=64),
)


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


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
        handles = []
        for s_prime, (reps, values) in enumerate(groups):  # groups (1, 0) and (1, 1)
            for b in range(len(values) // reps):
                handles.append(reg.add_bank([np.array([1, 0], np.uint8)], s_prime, reps, b))
        reg.freeze()
        for s_prime, (_reps, values) in enumerate(groups):
            reg.groups[(1, s_prime)]["joint"][:] = values  # margins stay 0, so values are exact
        reg.m_seen = 1
        for block in (sketches.FOLD_BLOCK, 7, 1):
            with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
                mp.setattr(estimator, "FOLD_BLOCK", block)
                table = reg.medians()
                for key, start, stop in handles:
                    bank = np.abs(groups[key[1]][1][start:stop])
                    got = _LeafRef((key, start, stop)).evaluate(table)
                    assert np.float64(got).tobytes() == np.float64(_median(bank)).tobytes()
                    assert _same_float(got, np.median(bank))
        assert [len(m) for m in table.values()] == [len(v) // r for r, v in groups]

    def test_one_repetition_count_per_group(self):
        reg = _BankRegistry(2, 2, omega=100.0)
        mask = np.array([1, 1], np.uint8)
        assert reg.add_bank([mask], 0, 3, seed=1) == ((1, 0), 0, 3)
        assert reg.add_bank([mask], 1, 4, seed=2) == ((1, 1), 0, 4)
        assert reg.add_bank([mask], 0, 3, seed=3) == ((1, 0), 3, 6)
        with pytest.raises(ConfigurationError, match="3 repetitions per bank, not 4"):
            reg.add_bank([mask], 0, 4, seed=4)
        with pytest.raises(ConfigurationError):
            reg.add_bank([mask], 1, 0, seed=5)


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
    table = sys.getsizeof(med) + sum(
        sys.getsizeof(m) + sys.getsizeof(0.0) * len(m) for m in med.values()
    )
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
