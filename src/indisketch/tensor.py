"""Small dense tensors and the four masking/collapsing operators.

These are the exact reference semantics every streaming sketch is
validated against. A tensor is an s-dimensional integer array with every
axis of extent n, stored row-major with the first coordinate outermost.
All indices are 1-based externally, matching the stream encoding.

Operators:

* ``hyperplane(M, l)``     -- the (s-1)-dimensional slice fixing the first
  coordinate to l (for matrices: row l).
* ``absolute_vector(M)``   -- length-n vector of hyperplane L1 norms;
  preserves the total L1 norm.
* ``suffix_sum(M, t)``     -- collapse the first t coordinates by signed
  summation.
* ``prefix_zero(M, hs)``   -- multiply entry i by prod_l hs[l](i_l) over
  the leading coordinates (indirect sampling mask).

All operations are pure and exact; identities between compositions are
asserted as exact integer equalities in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import BudgetExceededError, EmptyStreamError
from .hashing import hash_table
from .stream import FrequencyTable

# Materializing more than this many entries fails loudly rather than degrade.
DENSE_BUDGET = 2**24

HashLike = Union[np.ndarray, Sequence[int], Callable[[int], int]]


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """An s-dimensional array with all axes of extent n, exact int64 entries."""

    array: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.array, dtype=np.int64)
        if a.ndim > 0 and len(set(a.shape)) > 1:
            raise ValueError(f"all axes must share one extent, got shape {a.shape}")
        object.__setattr__(self, "array", a)

    @property
    def s(self) -> int:
        return self.array.ndim

    @property
    def n(self) -> int:
        return self.array.shape[0] if self.array.ndim else 1

    @classmethod
    def from_entries(cls, entries, s: int, n: int) -> "DenseTensor":
        a = np.asarray(entries, dtype=np.int64).reshape((n,) * s)
        return cls(a)

    def entry(self, i: Sequence[int]):
        """Entry at 1-based multi-index i."""
        idx = tuple(int(x) - 1 for x in i)
        return int(self.array[idx])

    def __eq__(self, other):
        return isinstance(other, DenseTensor) and np.array_equal(self.array, other.array)


def l1_norm(M: DenseTensor) -> int:
    """Sum of absolute entries, exact."""
    return int(np.abs(M.array).view(np.uint64).sum(dtype=object))


def hyperplane(M: DenseTensor, l: int) -> DenseTensor:
    """Slice fixing the first coordinate to l (1-based)."""
    if M.s < 1:
        raise ValueError("hyperplane requires dimensionality >= 1")
    if not 1 <= l <= M.n:
        raise IndexError(f"hyperplane index {l} outside [1, {M.n}]")
    return DenseTensor(M.array[l - 1])


def absolute_vector(M: DenseTensor) -> DenseTensor:
    """Length-n vector whose l-th entry is l1_norm(hyperplane(M, l)), exact;
    BudgetExceededError if an entry would not fit in int64."""
    if M.s < 1:
        raise ValueError("absolute_vector requires dimensionality >= 1")
    norms = np.abs(M.array).view(np.uint64).reshape(M.n, -1).sum(axis=1, dtype=object)
    if max(norms, default=0) >= 2**63:
        raise BudgetExceededError("a hyperplane norm would overflow int64")
    return DenseTensor(norms.astype(np.int64))


def suffix_sum(M: DenseTensor, t: int) -> DenseTensor:
    """Collapse the first t coordinates by signed summation; t=0 is identity."""
    if not 0 <= t <= M.s:
        raise ValueError(f"suffix depth {t} outside [0, {M.s}]")
    if t == 0:
        return M
    return DenseTensor(M.array.sum(axis=tuple(range(t))))


def prefix_zero(M: DenseTensor, hashes: Sequence[HashLike]) -> DenseTensor:
    """Zero out entries whose leading coordinates are unselected by the hashes.

    Entry i becomes m_i * prod_{l<=t} hashes[l](i_l), t = len(hashes) <= s.
    """
    t = len(hashes)
    if t > M.s:
        raise ValueError(f"{t} hashes exceed dimensionality {M.s}")
    out = M.array
    for axis, h in enumerate(hashes):
        mask = hash_table(h, M.n).astype(np.int64)
        shape = [1] * M.s
        shape[axis] = M.n
        out = out * mask.reshape(shape)
    return DenseTensor(out)


def is_significant(M: DenseTensor, l: int, alpha: float) -> bool:
    """True iff hyperplane l carries at least an alpha fraction of |M|."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return l1_norm(hyperplane(M, l)) >= alpha * l1_norm(M)


def dense_independence_tensor(table: FrequencyTable, budget: int = DENSE_BUDGET) -> DenseTensor:
    """Materialize the independence tensor m^(k-1)*f_i - prod_l f_l(i_l).

    Only for desk-scale verification: requires n^k within the entry budget
    and magnitudes within int64.
    """
    if table.m < 1:
        raise EmptyStreamError("independence tensor requires a nonempty stream")
    k, n, m = table.k, table.n, table.m
    if n**k > budget:
        raise BudgetExceededError(f"n^k = {n**k} exceeds dense budget {budget}")
    if 2 * m**k >= 2**62:
        raise BudgetExceededError("tensor entries would overflow int64")
    joint = np.zeros((n,) * k, dtype=np.int64)
    for i, f in table.joint.items():
        joint[tuple(x - 1 for x in i)] = f
    prod = np.ones((), dtype=np.int64)
    for l in range(k):
        marg = np.zeros(n, dtype=np.int64)
        for v, c in table.margins[l].items():
            marg[v - 1] = c
        shape = [1] * k
        shape[l] = n
        prod = prod * marg.reshape(shape)
    return DenseTensor(m ** (k - 1) * joint - prod)
