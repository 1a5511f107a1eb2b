"""Dense tensor operators and their exact composition identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indisketch import (
    BudgetExceededError,
    DenseTensor,
    TupleStream,
    absolute_vector,
    build_frequency_table,
    dense_independence_tensor,
    exact_statistical_distance,
    hyperplane,
    is_significant,
    l1_norm,
    prefix_zero,
    suffix_sum,
)


def T(entries):
    return DenseTensor(np.asarray(entries, dtype=np.int64))


class TestL1Norm:
    def test_matrix(self):
        assert l1_norm(T([[1, 2], [3, 4]])) == 10

    def test_zero(self):
        assert l1_norm(T(np.zeros((3, 3)))) == 0

    def test_signs(self):
        assert l1_norm(T([-3, 3])) == 6


class TestHyperplane:
    def test_rows(self):
        M = T([[1, 2], [3, 4]])
        assert hyperplane(M, 1).array.tolist() == [1, 2]
        assert hyperplane(M, 2).array.tolist() == [3, 4]

    def test_vector_base_case(self):
        assert int(hyperplane(T([7, 9]), 2).array) == 9

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            hyperplane(T([[1, 2], [3, 4]]), 3)


class TestAbsoluteVector:
    def test_row_norms(self):
        assert absolute_vector(T([[1, 2], [3, 4]])).array.tolist() == [3, 7]

    def test_signs_inside_rows(self):
        assert absolute_vector(T([[1, -2], [-3, 4]])).array.tolist() == [3, 7]

    def test_zero(self):
        assert absolute_vector(T(np.zeros((4, 4)))).array.tolist() == [0] * 4

    def test_preserves_l1(self):
        M = T([[5, -1], [2, 0]])
        assert l1_norm(absolute_vector(M)) == l1_norm(M)

    def test_int64_edge(self):
        # each hyperplane norm is exact up to 2^63 - 1 and raises past it, never wraps
        assert absolute_vector(T([[2**62, 0], [2**62, 0]])).array.tolist() == [2**62] * 2
        for entries in ([[2**62, 2**62], [1, 0]], [[-(2**63), 0], [1, 0]]):
            with pytest.raises(BudgetExceededError):
                absolute_vector(T(entries))


class TestSuffixSum:
    def test_first_coordinate_collapse(self):
        assert suffix_sum(T([[1, 2], [3, 4]]), 1).array.tolist() == [4, 6]

    def test_identity(self):
        M = T([[1, 2], [3, 4]])
        assert suffix_sum(M, 0) == M

    def test_total(self):
        assert int(suffix_sum(T([[1, 2], [3, 4]]), 2).array) == 10

    def test_depth_out_of_range(self):
        with pytest.raises(ValueError):
            suffix_sum(T([[1, 2], [3, 4]]), 3)


class TestPrefixZero:
    def test_row_mask(self):
        out = prefix_zero(T([[1, 2], [3, 4]]), [[0, 1]])
        assert out.array.tolist() == [[0, 0], [3, 4]]

    def test_identity_mask(self):
        M = T([[1, 2], [3, 4]])
        assert prefix_zero(M, [[1, 1], [1, 1]]) == M

    def test_annihilating_mask(self):
        out = prefix_zero(T([[1, 2], [3, 4]]), [[0, 0]])
        assert l1_norm(out) == 0

    def test_too_many_hashes(self):
        with pytest.raises(ValueError):
            prefix_zero(T([1, 2]), [[1, 1], [1, 1]])


class TestIsSignificant:
    def test_dominant_row(self):
        assert is_significant(T([[10, 0], [0, 1]]), 1, 0.9)

    def test_balanced_row(self):
        assert not is_significant(T([[1, 0], [0, 1]]), 1, 0.6)

    def test_zero_tensor(self):
        assert is_significant(T(np.zeros((2, 2))), 1, 0.0)


class TestDenseIndependenceTensor:
    def test_correlated_pair(self):
        t = build_frequency_table(TupleStream(2, 2, [(1, 1), (2, 2)]))
        M = dense_independence_tensor(t)
        assert M.array.tolist() == [[1, -1], [-1, 1]]
        assert l1_norm(M) == 4

    def test_single_tuple(self):
        t = build_frequency_table(TupleStream(2, 2, [(1, 1)]))
        assert l1_norm(dense_independence_tensor(t)) == 0

    def test_oracle_cross_check(self):
        t = build_frequency_table(
            TupleStream(2, 2, [(1, 2), (1, 2), (2, 1), (2, 1)])
        )
        norm = l1_norm(dense_independence_tensor(t))
        assert norm == 2 * t.m**t.k * exact_statistical_distance(t)

    def test_budget(self):
        t = build_frequency_table(TupleStream(2, 3, [(1, 1)]))
        with pytest.raises(BudgetExceededError):
            dense_independence_tensor(t, budget=8)


small_tensors = st.integers(min_value=1, max_value=4).flatmap(
    lambda s: st.integers(min_value=2, max_value=5).flatmap(
        lambda n: st.lists(
            st.integers(min_value=-9, max_value=9),
            min_size=n**s,
            max_size=n**s,
        ).map(lambda vals: DenseTensor.from_entries(vals, s, n))
    )
)


def random_mask(rnd, n):
    return np.asarray([rnd.randint(0, 1) for _ in range(n)], dtype=np.int64)


@given(small_tensors, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_mask_commutes_with_collapse(M, rnd):
    """Masking the suffix after collapsing equals collapsing the padded mask."""
    for t in range(M.s):
        H = random_mask(rnd, M.n)
        lhs = prefix_zero(suffix_sum(M, t), [H])
        ones = [np.ones(M.n, dtype=np.int64)] * t
        rhs = suffix_sum(prefix_zero(M, ones + [H]), t)
        assert lhs == rhs


@given(small_tensors)
@settings(max_examples=150, deadline=None)
def test_collapse_composes(M):
    for t in range(M.s):
        assert suffix_sum(suffix_sum(M, t), 1) == suffix_sum(M, t + 1)


@given(small_tensors, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_mask_products_compose(M, rnd):
    hs = [random_mask(rnd, M.n) for _ in range(M.s)]
    gs = [random_mask(rnd, M.n) for _ in range(M.s)]
    assert prefix_zero(M, [h * g for h, g in zip(hs, gs)]) == prefix_zero(
        prefix_zero(M, hs), gs
    )


@given(small_tensors, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_mask_then_collapse_corollaries(M, rnd):
    """Composed identities used by the dimension-reduction recursion."""
    for t in range(M.s):
        hs = [random_mask(rnd, M.n) for _ in range(t)]
        H = random_mask(rnd, M.n)
        Mp = suffix_sum(prefix_zero(M, hs), t)
        if Mp.s < 1:
            continue
        assert prefix_zero(Mp, [H]) == suffix_sum(prefix_zero(M, hs + [H]), t)
        if Mp.s >= 1:
            assert suffix_sum(prefix_zero(Mp, [H]), 1) == suffix_sum(
                prefix_zero(M, hs + [H]), t + 1
            )


@given(small_tensors)
@settings(max_examples=150, deadline=None)
def test_norm_relations(M):
    assert l1_norm(absolute_vector(M)) == l1_norm(M)
    if M.s >= 1:
        assert l1_norm(suffix_sum(M, 1)) <= l1_norm(M)


@given(small_tensors, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_operator_compositions_stay_bounded(M, rnd):
    bound = int(np.abs(M.array).max()) if M.array.size else 0
    out = M
    for _ in range(3):
        op = rnd.choice(["mask", "collapse", "absvec"])
        if op == "mask" and out.s >= 1:
            out = prefix_zero(out, [random_mask(rnd, out.n)])
        elif op == "collapse" and out.s >= 1:
            out = suffix_sum(out, 1)
        elif op == "absvec" and out.s >= 1:
            out = absolute_vector(out)
    if out.array.size:
        assert int(np.abs(out.array).max()) <= M.n ** M.s * max(bound, 1)


@pytest.mark.parametrize("eps", [0.5, 0.2, 0.05])
def test_significant_hyperplane_approximation(eps):
    """A (1 - eps/2)-significant hyperplane is approximated by the collapse."""
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        s = int(rng.integers(2, 4))
        rest = rng.integers(-2, 3, size=(n,) * s)
        rest[0] = 0
        rest_mass = int(np.abs(rest).sum())
        row = rng.integers(1, 9, size=(n,) * (s - 1))
        need = int(np.ceil((1 - eps / 2) / (eps / 2) * max(rest_mass, 1))) + 1
        row.flat[0] += need
        M = rest.copy()
        M[0] = row
        M = DenseTensor(M.astype(np.int64))
        assert is_significant(M, 1, 1 - eps / 2)
        target = l1_norm(hyperplane(M, 1))
        got = l1_norm(suffix_sum(M, 1))
        assert (1 - eps) * target <= got <= (1 + eps) * target
