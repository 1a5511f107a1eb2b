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

Estimators:

* ``epsilon_l1_estimate`` -- median of |value| over a bank whose target is
  the fully collapsed tensor (s = s' = k-1, a single untruncated Cauchy
  family); within (1 +- eps) of the target norm with probability 1-delta
  given Omega(1/eps^2 * log(1/delta)) repetitions.
* ``polylog_l1_estimate`` -- median of |value| over a bank for arbitrary
  (s, s'); a log^k(n)-factor approximation amplified from constant success
  probability by O(log(1/delta)) repetitions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, EmptyStreamError, MergeIncompatibleError
from .hashing import (
    FOLD_BLOCK,
    CauchySource,
    batched_cauchy_tables,
    default_truncation,
    derive_key,
)
from .stream import FrequencyTable, TupleKey, checked_tuple
from . import tensor as tensor_ops

SKETCH_SCHEMA_VERSION = "product-sketch/1"


def family_seed(seed: int, rep: int, family: int) -> int:
    """Seed of one Cauchy family inside one repetition of a bank."""
    return int(derive_key(seed, 0xCA, rep, family))


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
    first call, a cost every command-line run would pay; this takes the
    same order statistics with np.partition and averages them with np.mean.
    A row holding a NaN gives NaN. Two middles whose sum passes the float
    range average to inf, np.median's value, without an overflow warning.
    """
    hi = values.shape[1] // 2
    lo = hi if values.shape[1] % 2 else hi - 1
    with np.errstate(over="ignore"):
        med = np.mean(np.partition(values, (lo, hi), axis=1)[:, lo : hi + 1], axis=1)
    med[np.isnan(values).any(axis=1)] = np.nan
    return med


def _as_table(h, n):
    """Normalize a hash (array, sequence, callable or ZeroOneHash) to length-n values."""
    if callable(h) and not isinstance(h, np.ndarray):
        table = getattr(h, "table", None)
        if table is not None:
            return list(table(n))
        return [h(i) for i in range(1, n + 1)]
    seq = list(h)
    if len(seq) != n:
        raise ValueError(f"hash table must have length {n}, got {len(seq)}")
    return seq


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
    description: Tuple = ()

    def __post_init__(self):
        if not 0 <= self.s_prime <= self.s <= self.k:
            raise ConfigurationError(
                f"need 0 <= s'={self.s_prime} <= s={self.s} <= k={self.k}"
            )
        if len(self.prefix) != self.s:
            raise ConfigurationError(f"expected {self.s} prefix tables")
        if len(self.coeff) != self.k - self.s_prime:
            raise ConfigurationError(f"expected {self.k - self.s_prime} coefficient tables")
        if not self.margins:
            self.margins = [0] * self.k
        if not self.description:
            self.description = _fingerprint(self.prefix, self.coeff)

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
        tables of repetition `rep` of a SketchBank built from `seed`.
        """
        if omega is None:
            omega = default_truncation(k, n)
        fams = k - s_prime
        coeff = []
        for j in range(fams):
            trunc = None if j == 0 else omega
            src = CauchySource(seed=family_seed(seed, rep, j), truncation=trunc)
            coeff.append(src.table(n))
        prefix = [_as_table(h, n) for h in prefix_hashes]
        # description stays the content fingerprint so that states restored
        # from snapshots remain merge-compatible with their seeded originals
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

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": SKETCH_SCHEMA_VERSION,
            "k": self.k,
            "n": self.n,
            "s": self.s,
            "s_prime": self.s_prime,
            "prefix": [[float(v) for v in tab] for tab in self.prefix],
            "coeff": [[float(v) for v in tab] for tab in self.coeff],
            "joint": float(self.joint),
            "margins": [float(g) for g in self.margins],
            "m_seen": self.m_seen,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ProductSketchState":
        if d.get("format") != SKETCH_SCHEMA_VERSION:
            raise ConfigurationError(f"unknown sketch snapshot format {d.get('format')!r}")
        state = cls(
            k=int(d["k"]),
            n=int(d["n"]),
            s=int(d["s"]),
            s_prime=int(d["s_prime"]),
            prefix=[list(t) for t in d["prefix"]],
            coeff=[np.asarray(t, dtype=np.float64) for t in d["coeff"]],
            joint=float(d["joint"]),
            margins=[float(g) for g in d["margins"]],
            m_seen=int(d["m_seen"]),
        )
        return state


def merge(a: ProductSketchState, b: ProductSketchState) -> ProductSketchState:
    """Componentwise sum of two states over disjoint sub-streams.

    Requires identical configuration and randomness; the result equals the
    state of the concatenated stream.
    """
    if (a.k, a.n, a.s, a.s_prime) != (b.k, b.n, b.s, b.s_prime):
        raise MergeIncompatibleError("sketch configurations differ")
    if a.description != b.description:
        raise MergeIncompatibleError("sketch randomness differs")
    out = ProductSketchState(
        k=a.k,
        n=a.n,
        s=a.s,
        s_prime=a.s_prime,
        prefix=a.prefix,
        coeff=a.coeff,
        joint=a.joint + b.joint,
        margins=[x + y for x, y in zip(a.margins, b.margins)],
        m_seen=a.m_seen + b.m_seen,
        description=a.description,
    )
    return out


def fold_counts(tuples: np.ndarray, counts: np.ndarray, n: int, groups) -> int:
    """Add a chunk of tuple counts to product-sketch rows in place.

    ``tuples`` holds the chunk's distinct tuples (D, k) over [1, n] and
    ``counts`` their record counts. Each group is
    ``(s_prime, prefix, bank, coeff, joint, margins)``: ``prefix`` holds
    each bank's s masks (banks, s, n), ``bank`` the nondecreasing bank of
    each row, ``coeff`` each row's k - s' Cauchy tables (rows, k - s', n).
    By linearity this equals feeding the tuples one at a time: each
    bank's masked counts, summed onto the chunk's U distinct suffixes
    (coordinates s' to k), meet its rows' tables at those suffixes, and
    each margin meets them at its coordinate's distinct values. For D
    distinct tuples the cost is O(banks * s * D + rows * k * U), never a
    term in n^k; each temporary holds at most max(FOLD_BLOCK, D) floats.
    Returns the record count.
    """
    if not len(counts):
        return 0
    T = np.asarray(tuples, dtype=np.int64) - 1
    c = np.asarray(counts, dtype=np.float64)
    D, k = T.shape
    # each coordinate's distinct values and their total counts
    values, at = zip(*(np.unique(T[:, j], return_inverse=True) for j in range(k)))
    hists = [np.bincount(a, c) for a in at]
    for s_prime, prefix, bank, coeff, joint, margins in groups:
        s = prefix.shape[1]
        U, inv = np.unique(T[:, s_prime:], axis=0, return_inverse=True)
        bank_step, row_step = max(1, FOLD_BLOCK // D), max(1, FOLD_BLOCK // len(U))
        for b0 in range(0, len(prefix), bank_step):
            P = prefix[b0 : b0 + bank_step]
            w = np.tile(c, (len(P), 1))
            for j in range(s):
                w *= P[:, j, T[:, j]]
            # masked counts summed onto the distinct suffixes: (banks, U)
            cells = (np.arange(len(P))[:, None] * len(U) + inv.reshape(-1)).ravel()
            folded = np.bincount(cells, w.ravel(), len(P) * len(U)).reshape(len(P), -1)
            masked = [hists[j] * P[:, j, values[j]] for j in range(s)]
            # a collapsed coordinate's margin is its bank's masked mass
            masked[:s_prime] = [m.sum(axis=1, keepdims=True) for m in masked[:s_prime]]
            lo, hi = np.searchsorted(bank, (b0, b0 + len(P)))
            for r0 in range(lo, hi, row_step):
                rows = slice(r0, min(r0 + row_step, hi))
                local, C = bank[rows] - b0, coeff[rows]
                x = np.take(folded, local, axis=0)
                for j in range(k - s_prime):
                    x *= C[:, j, U[:, j]]
                joint[rows] += x.sum(axis=1)
                for j in range(k):
                    G = C[:, j - s_prime, values[j]] if j >= s_prime else 1.0
                    W = np.take(masked[j], local, axis=0) if j < s else hists[j]
                    margins[rows, j] += (G * W).sum(axis=1) if j < s else G @ W
    return int(c.sum())


def _fingerprint(prefix, coeff) -> Tuple:
    def tab_key(tab):
        return tuple(float(v) for v in tab)

    return (
        "explicit",
        tuple(tab_key(t) for t in prefix),
        tuple(tab_key(t) for t in coeff),
    )


class SketchBank:
    """A bank of repetitions sharing prefix masks with independent Cauchy seeds.

    Accumulators are vectorized across repetitions; every state observes
    exactly the same stream. ``bulk_update`` folds a dictionary of tuple
    counts into the bank, which by linearity of the updates equals feeding
    the tuples one at a time (stream partitioning + merge).
    """

    def __init__(
        self,
        k: int,
        n: int,
        s: int,
        s_prime: int,
        prefix_hashes: Sequence,
        repetitions: int,
        seed: int,
        omega: Optional[float] = None,
        purpose: str = "epsilon",
    ):
        if not 0 <= s_prime <= s <= k:
            raise ConfigurationError(f"need 0 <= s'={s_prime} <= s={s} <= k={k}")
        if repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        if omega is None:
            omega = default_truncation(k, n)
        self.k, self.n, self.s, self.s_prime = k, n, s, s_prime
        self.repetitions = repetitions
        self.seed = int(seed)
        self.omega = float(omega)
        self.purpose = purpose
        self.prefix = np.asarray(
            [_as_table(h, n) for h in prefix_hashes], dtype=np.float64
        ).reshape(s, n)
        fams = k - s_prime
        self.coeff = batched_cauchy_tables(
            repetition_seeds(seed, repetitions), fams, n, self.omega
        )
        self.joint = np.zeros(repetitions, dtype=np.float64)
        self.margins = np.zeros((repetitions, k), dtype=np.float64)
        self.m_seen = 0

    def update(self, rec: TupleKey) -> None:
        self.bulk_update({tuple(rec): 1})

    def bulk_update(self, counts: Dict[TupleKey, int]) -> None:
        tuples = [checked_tuple(t, self.k, self.n) for t in counts]
        T = np.array(tuples, dtype=np.int64).reshape(len(tuples), self.k)
        c = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        rows = np.zeros(self.repetitions, np.int32)
        group = (self.s_prime, self.prefix[None], rows, self.coeff, self.joint, self.margins)
        self.m_seen += fold_counts(T, c, self.n, [group])

    def values(self) -> np.ndarray:
        """Per-repetition sketch values m^(k-1)*joint - prod(margins)."""
        if self.m_seen < 1:
            raise EmptyStreamError("sketch values require at least one tuple")
        scale = float(self.m_seen) ** (self.k - 1)
        return scale * self.joint - np.prod(self.margins, axis=1)

    def state(self, r: int) -> ProductSketchState:
        """Extract repetition r as a scalar state (shares randomness tables)."""
        st = ProductSketchState(
            k=self.k,
            n=self.n,
            s=self.s,
            s_prime=self.s_prime,
            prefix=[self.prefix[j] for j in range(self.s)],
            coeff=[self.coeff[r, j] for j in range(self.k - self.s_prime)],
            joint=float(self.joint[r]),
            margins=[float(g) for g in self.margins[r]],
            m_seen=self.m_seen,
        )
        return st


def required_epsilon_reps(epsilon: float, delta: float, c: float = 8.0) -> int:
    """Repetition floor c/eps^2 * ln(1/delta) for the epsilon estimator."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ConfigurationError("epsilon and delta must lie in (0, 1)")
    return max(1, math.ceil(c / epsilon**2 * math.log(1.0 / delta)))


def required_polylog_reps(delta: float, c: float = 64.0) -> int:
    """Repetition floor c * ln(1/delta) for the log^k(n) estimator."""
    if not 0 < delta < 1:
        raise ConfigurationError("delta must lie in (0, 1)")
    return max(1, math.ceil(c * math.log(1.0 / delta)))


def epsilon_l1_estimate(
    bank: SketchBank, epsilon: float, delta: float, c: float = 8.0
) -> float:
    """(1 +- eps)-estimate of the fully collapsed masked tensor norm.

    The bank must target s = s' = k-1 (a single untruncated Cauchy family)
    and carry at least c/eps^2 * ln(1/delta) repetitions.
    """
    if bank.s != bank.k - 1 or bank.s_prime != bank.k - 1:
        raise ConfigurationError(
            f"epsilon estimator needs s = s' = k-1, got s={bank.s}, s'={bank.s_prime}"
        )
    need = required_epsilon_reps(epsilon, delta, c)
    if bank.repetitions < need:
        raise ConfigurationError(
            f"bank has {bank.repetitions} repetitions, needs >= {need}"
        )
    return float(row_medians(np.abs(bank.values())[None])[0])


def polylog_l1_estimate(bank: SketchBank, delta: float, c: float = 64.0) -> float:
    """Median-amplified product-sketch magnitude for arbitrary (s, s').

    Within [target/beta, beta*target] for beta = log2(n)^k with probability
    at least 1-delta given c * ln(1/delta) repetitions.
    """
    need = required_polylog_reps(delta, c)
    if bank.repetitions < need:
        raise ConfigurationError(
            f"bank has {bank.repetitions} repetitions, needs >= {need}"
        )
    return float(row_medians(np.abs(bank.values())[None])[0])


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
