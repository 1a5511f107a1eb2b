"""Statistical checks of the replayable hash families and Cauchy tables."""

import math
import tracemalloc

import numpy as np
import pytest

from indisketch import (
    BucketHash,
    ConfigurationError,
    DenseTensor,
    EstimatorOverrides,
    MalformedInputError,
    SketchBank,
    StreamDistanceEstimator,
    ZeroOneHash,
    prefix_zero,
    split_compare_ratio,
)
from indisketch.cli import generate_synthetic
from indisketch.hashing import (
    FOLD_BLOCK,
    batched_cauchy_tables,
    counter_uniform,
    derive_key,
    hash_table,
    mix64,
    zero_one_tables,
)
from indisketch.sketches import repetition_seeds

from conftest import GOLDEN, row_seed, unmix64


def row_seed_with_counter(z: int, family: int, index: int) -> int:
    """A row seed whose family-``family`` Cauchy table mixes the counter of
    ``index`` to ``z``: derive_key(seed, family, 0x5A03) + (index + 1) * golden
    is the word that splitmix64 maps to z."""
    key = unmix64(z) - (index + 1) * GOLDEN
    return row_seed(unmix64(key % 2**64) - 0x5A03 - GOLDEN, family)


# chi-square 0.999 quantiles, frozen from scipy.stats.chi2.ppf(0.999, df)
CHI2_999_DF1 = 10.828
CHI2_999_DF15 = 37.697


class TestZeroOneHash:
    def test_deterministic(self):
        h = ZeroOneHash(seed=101, n=100, q=0.5)
        assert h(5) == h(5) == ZeroOneHash(seed=101, n=100, q=0.5)(5)

    def test_table_matches_scalar(self):
        h = ZeroOneHash(seed=3, n=64, q=0.3)
        assert [h(i) for i in range(1, 65)] == h.table().tolist()

    def test_degenerate_probability(self):
        h = ZeroOneHash(seed=9, n=50, q=1.0)
        assert all(h(i) == 1 for i in range(1, 51))

    def test_marginal_probability(self):
        # binomial 3-sigma band around q over 10^4 indices
        n, q = 10_000, 0.5
        h = ZeroOneHash(seed=77, n=n, q=q)
        frac = h.table().mean()
        sigma = math.sqrt(q * (1 - q) / n)
        assert abs(frac - q) <= 3 * sigma

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            ZeroOneHash(seed=1, n=4, q=0.5)(5)

    def test_pairwise_independence_chi_square(self):
        # joint distribution of (h(i), h(j)) over many seeds vs product
        i, j = 13, 57
        n_seeds = 10_000
        counts = np.zeros((2, 2))
        for seed in range(n_seeds):
            h = ZeroOneHash(seed=seed, n=64, q=0.5)
            counts[h(i), h(j)] += 1
        marg_i = counts.sum(axis=1) / n_seeds
        marg_j = counts.sum(axis=0) / n_seeds
        expected = np.outer(marg_i, marg_j) * n_seeds
        stat = ((counts - expected) ** 2 / np.maximum(expected, 1e-9)).sum()
        assert stat <= CHI2_999_DF1


class TestBucketHash:
    def test_single_bucket(self):
        h = BucketHash(seed=5, n=10, buckets=1)
        assert all(h(i) == 1 for i in range(1, 11))

    def test_deterministic(self):
        h = BucketHash(seed=5, n=10, buckets=7)
        assert BucketHash(seed=5, n=10, buckets=7)(3) == h(3)
        assert h.table().tolist() == [h(i) for i in range(1, 11)]

    def test_uniformity_chi_square(self):
        rho, n = 16, 10_000
        h = BucketHash(seed=2024, n=n, buckets=rho)
        counts = np.bincount(h.table() - 1, minlength=rho)
        expected = n / rho
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat <= CHI2_999_DF15


@pytest.mark.parametrize(
    "h", [ZeroOneHash(seed=1, n=8, q=0.5), BucketHash(seed=1, n=8, buckets=4)], ids=repr
)
def test_non_integral_index_rejected(h):
    assert h(2.0) == h(2) and h(np.int64(8)) == h(8)
    for i in (1.5, 2.7, float("nan"), float("inf"), "2", None):
        with pytest.raises(MalformedInputError, match="non-integer index"):
            h(i)
    with pytest.raises(IndexError):
        h(9)


def test_non_integral_cauchy_index_rejected():
    """counter_uniform, which the Cauchy tables map, takes an index (and a
    key) as derive_key takes a part: an integer, wrapping mod 2^64, or an error."""
    for i in (1.5, 2.7, float("nan"), float("inf"), "2", None):
        with pytest.raises(ConfigurationError, match="non-integer index"):
            counter_uniform(1, i)
    assert counter_uniform(-1, 2) == counter_uniform(2**64 - 1, 2)
    assert counter_uniform(1, -1) == counter_uniform(1, 2**64 - 1)
    assert counter_uniform(1, np.array([2.0, -1])).tolist() == [
        counter_uniform(1, 2), counter_uniform(1, 2**64 - 1)
    ]
    with pytest.raises(ConfigurationError, match="non-integer index 2.5"):
        counter_uniform(1, 2.5)
    with pytest.raises(ConfigurationError, match="non-integer key 1.5"):
        counter_uniform(1.5, 2)


SEEDED = {
    "derive_key": lambda seed: derive_key(seed, 1),
    "ZeroOneHash": lambda seed: ZeroOneHash(seed=seed, n=8, q=0.5).table().tolist(),
    "generate_synthetic": lambda seed: list(generate_synthetic("diagonal", 2, 4, 3, seed=seed)),
    "derive_key of an array": lambda seed: derive_key(np.array([seed, 5]), 1).tolist(),
    "SketchBank": lambda seed: SketchBank(2, 4, 1, 0, [[1, 0, 1, 1]], 3, seed=seed)
    .registry.tables((1, 0))
    .tolist(),
}


@pytest.mark.parametrize("entry", SEEDED.values(), ids=SEEDED.keys())
def test_non_integral_seed_rejected(entry):
    """A seed is taken as an integer or not at all: 2.0 is 2, 2.7 an error."""
    assert entry(2.0) == entry(2) == entry(np.int64(2))
    for seed in (1.5, 2.7, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="non-integer seed"):
            entry(seed)


def test_array_seeds_and_parts_follow_the_scalar_rule():
    """An array seed or part is taken value by value as a scalar one is:
    integer arrays (negative values wrap mod 2^64) and integral floats keep
    their keys, and a non-integral value is an error, not a truncation."""
    want = [derive_key(x, 7, 9) for x in (-1, 3, 2**63 + 5)]
    assert derive_key(np.array([-1, 3]), 7, 9).tolist() == want[:2]
    assert derive_key(np.array([2**63 + 5], dtype=np.uint64), 7, 9).tolist() == want[2:]
    assert derive_key(np.array([-1.0, 3.0]), 7, 9).tolist() == want[:2]
    assert derive_key(np.array([2**63 + 5, -1], dtype=object), 7, 9).tolist() == [want[2], want[0]]
    assert derive_key(3, np.array([7.0]), 9).tolist() == want[1:2]
    for bad in (np.array([2.7]), np.array([[-1.5, 2.0]]), np.array([np.nan])):
        with pytest.raises(ConfigurationError, match="non-integer seed"):
            derive_key(bad, 1)
        with pytest.raises(ConfigurationError, match="non-integer key part"):
            derive_key(1, bad)
    seeds = np.arange(3, dtype=np.uint64)
    assert derive_key(seeds) is not seeds and derive_key(seeds).tolist() == [0, 1, 2]


def test_hash_settings_are_configuration_errors():
    for buckets in (0, -3, 2.5, float("nan")):
        with pytest.raises(ConfigurationError, match="buckets"):
            BucketHash(seed=1, n=8, buckets=buckets)
    for q in (-0.1, 1.5, float("nan")):
        with pytest.raises(ConfigurationError, match=r"outside \[0, 1\]"):
            ZeroOneHash(seed=1, n=8, q=q)
        with pytest.raises(ConfigurationError):
            zero_one_tables(np.arange(2, dtype=np.uint64), 8, [0.5, q])
    assert ZeroOneHash(seed=1, n=8, q=0.0).table().tolist() == [0] * 8
    assert BucketHash(seed=1, n=8, buckets=4.0).buckets == 4


def bank_masks(h):
    return SketchBank(2, 3, 1, 0, [h], 2, seed=1).registry.groups[(1, 0)]["prefix"].tolist()


TABLE_TAKERS = {
    "hash_table": lambda h: hash_table(h, 3).tolist(),
    "split_compare_ratio": lambda h: split_compare_ratio([1.0, 2.0, 4.0], h),
    "prefix_zero": lambda h: prefix_zero(DenseTensor(np.eye(3) + 1), [h]).array.tolist(),
    "SketchBank": bank_masks,
}


@pytest.mark.parametrize("take", TABLE_TAKERS.values(), ids=TABLE_TAKERS.keys())
def test_every_hash_form_is_one_table(take):
    """A sequence, an array, a plain callable and a hash with .table(n) are
    the same input; a table of any other length is a configuration error."""
    want = take([1, 0, 1])
    assert take(np.array([1, 0, 1], dtype=np.uint8)) == want
    assert take(lambda i: i % 2) == want
    h = ZeroOneHash(seed=5, n=3, q=0.5)
    assert take(h) == take(h.table().tolist())
    for bad in ([1, 0], [1, 0, 1, 1], np.ones((3, 1)), lambda i: [i, i]):
        with pytest.raises(ConfigurationError, match="hash table must have length 3"):
            take(bad)


OMEGA_TAKERS = {
    "SketchBank": lambda omega: SketchBank(2, 4, 0, 0, [], 3, seed=1, omega=omega),
    "StreamDistanceEstimator": lambda omega: StreamDistanceEstimator(
        2, 4, 0.3, 0.1, overrides=EstimatorOverrides(omega=omega)
    ),
}


@pytest.mark.parametrize("take", OMEGA_TAKERS.values(), ids=OMEGA_TAKERS.keys())
@pytest.mark.parametrize(
    "omega,message",
    [(0.0, "positive"), (-0.0, "positive"), (-1.0, "positive"), (math.nan, "positive"),
     (math.inf, "finite")],
)
def test_truncation_must_be_positive_and_finite(take, omega, message):
    with pytest.raises(ConfigurationError, match=f"omega must be {message}"):
        take(omega)


def cauchy_rows(keys, n, omega=None):
    """A (len(keys), n) array of registry tables, one per key: the family-0
    table (untruncated) of a row of batched_cauchy_tables, or with ``omega``
    set its family-1 table (clamped at omega), whose row seed is chosen so
    that the table is keyed by derive_key(key, 0x5A03)."""
    family = 0 if omega is None else 1
    seeds = np.array([row_seed(key, family) for key in keys], dtype=np.uint64)
    return batched_cauchy_tables(seeds, family + 1, n, omega)[:, family]


class TestCauchyRows:
    """The Cauchy tables as a registry draws them, read from rows of
    batched_cauchy_tables."""

    def test_deterministic(self):
        rows = repetition_seeds(11, 3)
        first, again = (batched_cauchy_tables(rows, 2, 5, 10.0) for _ in range(2))
        assert first.tobytes() == again.tobytes()
        assert cauchy_rows([11], 5).tobytes() == cauchy_rows([11, 12], 5)[:1].tobytes()

    def test_truncation_clamps(self):
        vals = cauchy_rows([303], 5000)[0]
        cvals = cauchy_rows([303], 5000, omega=100.0)[0]
        assert np.abs(cvals).max() <= 100.0
        big = np.abs(vals) > 100.0
        assert big.any()
        assert np.allclose(cvals[big], np.sign(vals[big]) * 100.0)
        assert np.allclose(cvals[~big], vals[~big])

    def test_median_of_absolute_values(self):
        vals = cauchy_rows([4], 20_000)[0]
        assert abs(np.median(np.abs(vals)) - 1.0) < 0.05

    def test_truncation_mass(self):
        # clamp fraction per draw is about 2/(pi*omega)
        k, n = 2, 50
        omega = 100.0 * k * n
        vals = cauchy_rows([8], 200_000, omega)[0]
        frac = float((np.abs(vals) >= omega).mean())
        assert frac <= 2.0 / (math.pi * omega) + 3e-4

    def test_stability_tail_bound(self):
        # P(|sum C_i a_i| <= |a|/t) <= 1/t, plus statistical slack
        rng = np.random.default_rng(0)
        alpha = rng.uniform(0.1, 2.0, size=32)
        l1 = float(np.abs(alpha).sum())
        sums = cauchy_rows(range(2000), 32) @ alpha
        for t in (2, 5, 10):
            frac = float((np.abs(sums) <= l1 / t).mean())
            assert frac <= 1.0 / t + 0.04

    def test_median_estimates_l1(self):
        rng = np.random.default_rng(1)
        alpha = rng.uniform(0.1, 2.0, size=16)
        l1 = float(np.abs(alpha).sum())
        sums = np.abs(cauchy_rows(range(1000, 1500), 16) @ alpha)
        assert abs(np.median(sums) - l1) <= 0.15 * l1


class TestDerivation:
    def test_chaining(self):
        assert derive_key(7, 1, 2) == derive_key(derive_key(7, 1), 2)

    def test_array_parts(self):
        parts = np.arange(5, dtype=np.uint64)
        batched = derive_key(9, parts)
        assert batched.tolist() == [int(derive_key(9, int(p))) for p in parts]

    def test_uniform_guard(self):
        u = counter_uniform(derive_key(1, 2), np.arange(1, 10_001))
        assert (u >= 2.0**-53).all() and (u < 1.0).all()

    def test_batched_zero_one_tables(self):
        seeds = [derive_key(4, r) for r in range(5)] + [-3, 2**64 - 1]
        tables = zero_one_tables(seeds, 40, 0.5)
        assert tables.dtype == np.uint8 and tables.shape == (7, 40)
        for seed, row in zip(seeds, tables):
            assert row.tolist() == ZeroOneHash(seed=int(seed), n=40, q=0.5).table().tolist()
        assert zero_one_tables([], 40, 0.5).shape == (0, 40)  # a tournament of zero rounds

    def test_repetition_seeds_of_many_banks(self):
        seeds = np.array([3, 2**63 + 9, 0, 77], dtype=np.uint64)
        reps = [2, 5, 1, 3]
        batched = repetition_seeds(seeds, reps)
        per_bank = [repetition_seeds(int(s), r) for s, r in zip(seeds, reps)]
        assert batched.tolist() == np.concatenate(per_bank).tolist()
        assert repetition_seeds(seeds, 2).tolist() == np.concatenate(
            [repetition_seeds(int(s), 2) for s in seeds]
        ).tolist()
        # repetitions 2..4 of each bank, as a block of split banks draws them
        assert repetition_seeds(seeds, 3, first=2).tolist() == np.concatenate(
            [repetition_seeds(int(s), 5)[2:] for s in seeds]
        ).tolist()


class TestBatchedCauchyTables:
    def test_rows_replay_sources_across_blocks(self):
        n, omega = 8, 50.0
        rows = repetition_seeds(12, FOLD_BLOCK // n + 3)
        tables = batched_cauchy_tables(rows, 2, n, omega)
        for r in (0, FOLD_BLOCK // n - 1, FOLD_BLOCK // n, len(rows) - 1):
            alone = batched_cauchy_tables(rows[r : r + 1], 2, n, omega)
            assert tables[r].tobytes() == alone[0].tobytes()

    @pytest.mark.parametrize("n", [1, 4, 7, 32, FOLD_BLOCK + 1])
    @pytest.mark.parametrize("families", [1, 2, 3, 4])
    def test_tables_equal_sources_bit_for_bit(self, families, n):
        """Every value equals the old per-family map tan(pi*(u - 1/2)) of the
        counter uniforms, clipped for the truncated families, and sampled rows
        equal the same rows drawn alone, for no rows, one block of rows (or
        one row, when a row takes more than a block) and one row more."""
        omega = 3.0
        block = max(1, FOLD_BLOCK // (families * n))
        seeds = repetition_seeds(5, block + 1)
        for count in (0, block, block + 1):
            rows = seeds[:count]
            tables = batched_cauchy_tables(rows, families, n, omega)
            assert tables.shape == (count, families, n)
            keys = derive_key(rows[:, None], np.arange(families), 0x5A03)
            want = np.tan(np.pi * (counter_uniform(keys[..., None], np.arange(1, n + 1)) - 0.5))
            want[:, 1:] = np.clip(want[:, 1:], -omega, omega)
            assert tables.tobytes() == want.tobytes()
            for r in sorted({0, block - 1, count - 1} & set(range(count))):
                alone = batched_cauchy_tables(rows[r : r + 1], families, n, omega)
                assert tables[r].tobytes() == alone[0].tobytes()

    def test_guard_floor_and_exact_clamp(self):
        """A counter that mixes to 0 or to 2^11 has z >> 11 == 0 or 1, so u
        floors to 2^-53 and both give the same large, finite value; the
        truncated family clamps to exactly -omega and omega."""
        n, omega, index = 4, 1.5, 3
        cases = [(z, j) for z in (0, 2**11) for j in (0, 1)]
        rows = np.array(
            [row_seed_with_counter(z, j, index) for z, j in cases] + repetition_seeds(9, 50).tolist(),
            dtype=np.uint64,
        )
        tables = batched_cauchy_tables(rows, 2, n, omega)
        for r, (z, j) in enumerate(cases):
            key = derive_key(rows[r], j, 0x5A03)
            assert int(mix64((int(key) + (index + 1) * GOLDEN) % 2**64)) == z
            assert counter_uniform(key, index) == 2.0**-53
            alone = batched_cauchy_tables(rows[r : r + 1], 2, n, omega)
            assert tables[r].tobytes() == alone[0].tobytes()
        assert tables[0, 0, index - 1] == tables[2, 0, index - 1] < -(2.0**50)
        assert tables[1, 1, index - 1] == tables[3, 1, index - 1] == -omega
        assert np.isfinite(tables).all()
        truncated = tables[:, 1]
        assert (truncated == omega).any() and (truncated == -omega).any()
        assert np.abs(truncated).max() == omega < np.abs(tables[:, 0]).max()

    def test_temporaries_are_row_blocks(self):
        # 200k rows of n = 8: one full-size temporary alone would take 12.8 MB;
        # at n = 100,000 a row of 3 families takes 4.6 blocks, so a block is one table
        for count, families, n in ((200_000, 2, 8), (200_000, 1, 8), (100_000, 3, 8), (4, 3, 100_000)):
            rows = repetition_seeds(np.arange(count // 4, dtype=np.uint64), 4)
            tracemalloc.start()
            tables = batched_cauchy_tables(rows, families, n, 100.0)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert tables.shape == (count, families, n)
            assert peak <= tables.nbytes + 8 * FOLD_BLOCK * 8
