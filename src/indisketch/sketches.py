"""One-pass linear sketches of the independence tensor.

A *product sketch* of the masked, collapsed independence tensor keeps k+1
accumulators: one ``joint`` cell and one ``margin`` cell per dimension.
For a sketch of the tensor obtained by applying `s` leading zero-one masks
and then collapsing the first `s'` coordinates (0 <= s' <= s <= k), each
arriving tuple i updates

    joint     += prod_{j<=s} H_j(i_j) * prod_{j<=k-s'} C_j(i_{s'+j})
    margin_j  += H_j(i_j)                       for j <= s'
    margin_j  += H_j(i_j) * C_{j-s'}(i_j)       for s' < j <= s
    margin_j  += C_{j-s'}(i_j)                  for j > s

where C_1 is a standard Cauchy family and C_2.. are clamp-truncated.
After the pass,

    value = m^(k-1) * joint - prod_j margin_j
          = sum_i C(i) * entry_i of the masked collapsed tensor,

an exact polynomial identity in the C tables (verified against the dense
tensor semantics in the tests). All updates are additive, so states over
disjoint sub-streams merge by componentwise summation.

``ProductSketchState`` is the scalar reference of this rule (exact with
rational tables) and ``reference_sketch_value`` its dense-tensor
expansion. Production rows live in ``estimator._BankRegistry``, which
folds chunks into them with ``fold_counts`` and takes their medians with
``row_medians``; the repetition floors of its sharp and coarse
estimators are defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, EmptyStreamError
from .hashing import FOLD_BLOCK, CauchySource, default_truncation, derive_key, hash_table
from .stream import FrequencyTable, TupleKey, checked_count, checked_tuple, checked_unit
from . import tensor as tensor_ops


# fold_counts gathers per suffix when the suffixes fill less than 1/GRID_FILL
# of their grid: there its matrix product is slower (x86_64, OpenBLAS)
GRID_FILL = 64


def repetition_seeds(seed, repetitions) -> np.ndarray:
    """Per-repetition base seeds; family j of row r is derive_key(rows[r], j).

    ``seed`` may be one bank's seed or an array of bank seeds, with
    ``repetitions`` a count per bank (or one count for all); the rows of
    each bank follow one another in bank order.
    """
    keys = derive_key(seed, 0xCA)
    reps = np.broadcast_to(np.asarray(repetitions, dtype=np.int64), np.shape(keys))
    offsets = np.arange(reps.sum(), dtype=np.uint64)
    offsets -= np.repeat((np.cumsum(reps) - reps).astype(np.uint64), reps)
    return derive_key(np.repeat(keys, reps), offsets)


def row_medians(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=1)`` of a 2-D float64 array, to the bit.

    np.median checks for masked arrays, which imports numpy.ma on its
    first call, a cost every command-line run would pay. This selects
    the upper middle once, takes an even row's lower middle as the
    largest value left of it and sums from +0.0, as np.mean does. NaN
    sorts last, so a row holding one gives NaN. Two middles whose sum
    passes the float range average to inf without an overflow warning.
    """
    hi = values.shape[1] // 2
    part = np.partition(values, hi, axis=1)
    with np.errstate(over="ignore"):
        if values.shape[1] % 2:
            med = 0.0 + part[:, hi]
        else:
            med = ((0.0 + part[:, :hi].max(axis=1)) + part[:, hi]) / 2
    med[np.isnan(part[:, hi:].max(axis=1))] = np.nan
    return med


def checked_depths(k: int, s, s_prime) -> Tuple[int, int]:
    """The prefix depth s and collapse depth s' of a product sketch as ints;
    ConfigurationError unless 0 <= s' <= s <= k."""
    s_prime = checked_count("s'", s_prime, least=0)
    s = checked_count("s", s, least=s_prime)
    checked_count("k", k, least=s)
    return s, s_prime


@dataclass
class ProductSketchState:
    """Scalar product-sketch accumulator; exact when given rational tables.

    ``prefix`` holds the s zero-one mask tables, ``coeff`` the k-s'
    coefficient tables (floats in production, Fractions in identity tests).
    """

    k: int
    n: int
    s: int
    s_prime: int
    prefix: List[Sequence]
    coeff: List[Sequence]
    joint: object = 0
    margins: List[object] = field(default_factory=list)
    m_seen: int = 0

    def __post_init__(self):
        self.s, self.s_prime = checked_depths(self.k, self.s, self.s_prime)
        if len(self.prefix) != self.s:
            raise ConfigurationError(f"expected {self.s} prefix tables")
        if len(self.coeff) != self.k - self.s_prime:
            raise ConfigurationError(f"expected {self.k - self.s_prime} coefficient tables")
        if not self.margins:
            self.margins = [0] * self.k

    @classmethod
    def from_seeds(
        cls,
        k: int,
        n: int,
        s: int,
        s_prime: int,
        prefix_hashes: Sequence,
        seed: int,
        omega: Optional[float] = None,
        rep: int = 0,
    ) -> "ProductSketchState":
        """Build a state whose coefficient tables come from seeded Cauchy sources.

        The first family is untruncated, the rest clamp at omega
        (default 100*k*n). With the same (seed, rep) this draws exactly the
        tables of repetition `rep` of a registry bank built from `seed`.
        """
        omega = default_truncation(k, n) if omega is None else omega
        coeff = [
            CauchySource(int(derive_key(seed, 0xCA, rep, j)), omega if j else None).table(n)
            for j in range(k - s_prime)
        ]
        # Python scalars, so the update rule stays exact with rational tables
        prefix = [hash_table(h, n).tolist() for h in prefix_hashes]
        return cls(k=k, n=n, s=s, s_prime=s_prime, prefix=prefix, coeff=coeff)

    def update(self, rec: TupleKey) -> None:
        t = checked_tuple(rec, self.k, self.n)
        s, sp = self.s, self.s_prime
        hprod = 1
        for j in range(s):
            hprod = hprod * self.prefix[j][t[j] - 1]
        cprod = 1
        for j in range(self.k - sp):
            cprod = cprod * self.coeff[j][t[sp + j] - 1]
        self.joint = self.joint + hprod * cprod
        for j in range(self.k):
            x = t[j] - 1
            if j < sp:
                inc = self.prefix[j][x]
            elif j < s:
                inc = self.prefix[j][x] * self.coeff[j - sp][x]
            else:
                inc = self.coeff[j - sp][x]
            self.margins[j] = self.margins[j] + inc
        self.m_seen += 1

    def value(self):
        """m^(k-1) * joint - prod(margins); the sketch of the target tensor."""
        if self.m_seen < 1:
            raise EmptyStreamError("sketch value requires at least one tuple")
        prod = 1
        for g in self.margins:
            prod = prod * g
        return self.m_seen ** (self.k - 1) * self.joint - prod


def _table_index(index: np.ndarray):
    """``index`` as a slice if it runs a, a + 1, ..., b (checked step by step: lead
    columns after the first are not sorted), so a table read at it is a view."""
    if len(index) and (np.diff(index) == 1).all():
        return slice(index[0], index[0] + len(index))
    return index


def fold_counts(tuples: np.ndarray, counts: np.ndarray, n: int, groups) -> int:
    """Add a chunk of tuple counts to product-sketch rows in place.

    ``tuples`` holds the chunk's distinct tuples (D, k) over [1, n] and
    ``counts`` their record counts. Each group is
    ``(s_prime, prefix, coeff, joint, margins)``: ``prefix`` holds each
    bank's s masks (banks, s, n) and ``coeff`` each row's d = k - s'
    Cauchy tables (rows, d, n), bank b owning rows [b * reps, (b + 1) * reps).
    By linearity this equals feeding the tuples one at a time. Each bank's
    masked counts go onto the grid of the chunk's L distinct leads (suffix
    coordinates s' to k - 1) by its V distinct last values, which meets
    the rows' last tables in one batched matrix product and then their
    lead tables; margins are batched matrix-vector products. When the U
    distinct suffixes fill less than 1/GRID_FILL of the grid, and when
    s' = k, each suffix is its own lead with one last value. The cost is
    O(banks * s * D + rows * (L * V + (d - 1) * L + sum_j |values_j|)) on
    the grid, where L * V = U on a dense chunk, and O(banks * s * D +
    rows * (d * U + sum_j |values_j|)) per suffix; never a term in n^k.
    Tables are read in place at a run of indices (a dense chunk's values)
    and gathered into a copy only at scattered ones. Banks, and a large
    bank's rows and leads, go in blocks, so no temporary holds over
    max(FOLD_BLOCK, D) floats. Returns the record count.
    """
    if not len(counts):
        return 0
    T = np.asarray(tuples, dtype=np.int64) - 1
    c = np.asarray(counts, dtype=np.float64)
    D, k = T.shape
    # each coordinate's distinct values and their total counts
    values, at = zip(*(np.unique(T[:, j], return_inverse=True) for j in range(k)))
    hists = [np.bincount(a, c) for a in at]
    cols = [_table_index(v) for v in values]
    V, width = len(values[-1]), max(map(len, values))
    for s_prime, prefix, coeff, joint, margins in groups:
        s, d, reps = prefix.shape[1], k - s_prime, len(coeff) // len(prefix)
        C, J, M = (a.reshape(len(prefix), reps, *a.shape[1:]) for a in (coeff, joint, margins))
        U, inv = np.unique(T[:, s_prime:], axis=0, return_inverse=True)
        L, lead = np.unique(U[:, :-1], axis=0, return_inverse=True)
        per_suffix = not d or len(L) * V > GRID_FILL * len(U)
        if per_suffix:
            L, lead, last, nv = U, inv.reshape(-1), np.zeros(D, np.int64), 1
        else:
            lead, last, nv = lead[inv.reshape(-1)], at[-1], V
        order = np.argsort(lead, kind="stable")  # so a block of leads is a slice of tuples
        Tg, cg, lead, last = T[order], c[order], lead[order], last[order]
        bank_step = max(1, FOLD_BLOCK // max(D, reps * max(width, len(L)), nv * len(L)))
        rep_step = reps if bank_step * reps * width <= FOLD_BLOCK else max(1, FOLD_BLOCK // width)
        lead_step = max(1, FOLD_BLOCK // (bank_step * max(rep_step, nv)))
        cuts = np.searchsorted(lead, np.arange(0, len(L) + lead_step, lead_step))
        starts = range(0, len(L), lead_step)
        leads = [[_table_index(x) for x in L[l0 : l0 + lead_step].T] for l0 in starts]
        for b0 in range(0, len(prefix), bank_step):
            P = prefix[b0 : b0 + bank_step]
            B = len(P)
            w = np.tile(cg, (B, 1))
            for j in range(s):
                w *= P[:, j, Tg[:, j]]
            masked = [hists[j] * P[:, j, cols[j]] for j in range(s)]
            # a collapsed coordinate's margin is its bank's masked mass
            masked[:s_prime] = [m.sum(axis=1, keepdims=True) for m in masked[:s_prime]]
            for q0 in range(0, reps, rep_step):
                at_rows = (slice(b0, b0 + B), slice(q0, q0 + rep_step))
                Cb, Jb, Mb = C[at_rows], J[at_rows], M[at_rows]
                for j in range(s_prime):
                    Mb[:, :, j] += masked[j]
                for j in range(s_prime, k):
                    G = Cb[:, :, j - s_prime, cols[j]]
                    Mb[:, :, j] += (G @ masked[j][:, :, None])[..., 0] if j < s else G @ hists[j]
                # G holds the last tables at the last values, or ones per suffix
                if per_suffix:
                    G = np.ones(Cb.shape[:2] + (1,))
                for i, l0 in enumerate(starts):
                    t0, t1, nl = cuts[i], cuts[i + 1], min(lead_step, len(L) - l0)
                    cells = last[t0:t1] * nl + lead[t0:t1] - l0 + np.arange(B)[:, None] * (nv * nl)
                    F = np.bincount(cells.ravel(), w[:, t0:t1].ravel(), B * nv * nl)
                    Y = G @ F.reshape(B, nv, nl)
                    for j, at_lead in enumerate(leads[i]):
                        Y *= Cb[:, :, j, at_lead]
                    Jb += np.einsum("brl->br", Y)  # Y.sum(axis=2), faster over few leads
    return int(c.sum())


def required_epsilon_reps(epsilon: float, delta: float, c: float = 8.0) -> int:
    """Repetition floor c/eps^2 * ln(1/delta) for the epsilon estimator."""
    checked_unit("epsilon", epsilon)
    checked_unit("delta", delta)
    return max(1, math.ceil(c / epsilon**2 * math.log(1.0 / delta)))


def required_polylog_reps(delta: float, c: float = 64.0) -> int:
    """Repetition floor c * ln(1/delta) for the log^k(n) estimator."""
    checked_unit("delta", delta)
    return max(1, math.ceil(c * math.log(1.0 / delta)))


def reference_sketch_value(
    table: FrequencyTable,
    prefix_hashes: Sequence,
    s_prime: int,
    coeff: Sequence[Sequence],
):
    """Dense-tensor expansion sum_i C(i) * entry_i; the sketch cross-check.

    Materializes the independence tensor, applies the prefix masks and the
    suffix collapse via the tensor operators, then contracts against the
    coefficient tables. Exact when the tables are rational.
    """
    M = tensor_ops.dense_independence_tensor(table)
    masked = tensor_ops.prefix_zero(M, list(prefix_hashes))
    collapsed = tensor_ops.suffix_sum(masked, s_prime)
    dims = table.k - s_prime
    total = 0
    if dims == 0:
        return int(collapsed.array)
    it = np.ndindex(*collapsed.array.shape)
    for idx in it:
        c = 1
        for j, x in enumerate(idx):
            c = c * coeff[j][x]
        total = total + c * int(collapsed.array[idx])
    return total
