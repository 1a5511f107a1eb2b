"""One-pass linear sketches of the independence tensor.

A *product sketch* of the masked, collapsed independence tensor has k+1
cells: one ``joint`` cell and one ``margin`` cell per dimension.
For a sketch of the tensor obtained by applying `s` leading zero-one masks
and then collapsing the first `s'` coordinates (0 <= s' <= s <= k), each
arriving tuple i updates ``joint``; margins read value histograms h_j:

    joint     += prod_{j<=s} H_j(i_j) * prod_{j<=k-s'} C_j(i_{s'+j})
    margin_j   = H_j . h_j                      for j <= s'
    margin_j   = C_{j-s'} . (H_j o h_j)         for s' < j <= s
    margin_j   = C_{j-s'} . h_j                 for j > s

where C_1 is a standard Cauchy family and C_2.. are clamp-truncated. Then

    value = m^(k-1) * joint - prod_j margin_j
          = sum_i C(i) * entry_i of the masked collapsed tensor,

an exact polynomial identity in the C tables. Joints and histograms add,
so states over disjoint sub-streams merge by componentwise summation.

The rows live in ``estimator._BankRegistry``, which stores no C table:
each pass over a group draws a block's tables from the bank seeds once,
folds a chunk into the block's joints with ``fold_counts``, the one
implementation of this rule (``read_chunk`` and ``plan_fold`` analyse the
chunk once for all blocks), forms margins from histograms and takes
medians with ``row_medians``. A sharp group (s = s' = k - 1) keeps no
joint per row: its one table per row makes row r of bank b exactly
C_r . g_b with

    g_b = m^(k-1) F_b - (prod_{j<k-1} H_bj . h_j) h_{k-1},

where F_b counts the bank's masked records by last value. So each bank
keeps F_b, exact integer counts that ``count_masked`` adds a chunk to
with no table at all, and evaluation projects each drawn block onto g_b.
``reference_sketch_value`` is the dense-tensor side of the identity,
which the tests check the rows against exactly on small-integer tables;
the repetition floors of the sharp and coarse estimators are defined here.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError
from .hashing import FOLD_BLOCK, derive_key
from .stream import FrequencyTable, checked_count, checked_unit
from . import tensor as tensor_ops


# fold_counts gathers per suffix when the suffixes fill less than 1/GRID_FILL
# of their grid: there its matrix product is slower (x86_64, OpenBLAS)
GRID_FILL = 64


def repetition_seeds(seed, repetitions, first: int = 0) -> np.ndarray:
    """Per-repetition base seeds; family j of row r is derive_key(rows[r], j).

    ``seed`` may be one bank's seed or an array of bank seeds, with
    ``repetitions`` a count per bank (or one count for all); the rows of
    each bank follow one another in bank order. Each bank's rows are its
    repetitions ``first``, ``first + 1``, ...; a row's seed does not depend
    on the count.
    """
    keys = derive_key(seed, 0xCA)
    reps = np.broadcast_to(np.asarray(repetitions, dtype=np.int64), np.shape(keys))
    offsets = np.arange(first, first + reps.sum(), dtype=np.uint64)
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


class Chunk(NamedTuple):
    """A chunk of distinct tuples read once for every group's fold."""

    T: np.ndarray  # (D, k) the tuples, 0-based
    c: np.ndarray  # their record counts, as float64
    values: Tuple[np.ndarray, ...]  # each coordinate's distinct values
    at: Tuple[np.ndarray, ...]  # each tuple's index into them
    hists: List[np.ndarray]  # the record count of each of those values


def read_chunk(tuples: np.ndarray, counts: np.ndarray) -> Chunk:
    """The chunk of distinct ``tuples`` (D >= 1, k) over [1, n] with their
    record ``counts``, with each coordinate's distinct values and counts."""
    T = np.asarray(tuples, dtype=np.int64) - 1
    c = np.asarray(counts, dtype=np.float64)
    values, at = zip(*(np.unique(T[:, j], return_inverse=True) for j in range(T.shape[1])))
    return Chunk(T, c, values, at, [np.bincount(a, c) for a in at])


class Fold(NamedTuple):
    """A chunk analysed for the fold of one group's joint rows (``plan_fold``)."""

    T: np.ndarray  # the tuples in lead order
    c: np.ndarray  # their counts
    lead: np.ndarray  # each tuple's lead
    last: np.ndarray  # each tuple's last value (0 per suffix)
    last_col: Optional[np.ndarray]  # the distinct last values; None per suffix
    nv: int  # last values per lead on the grid (1 per suffix)
    leads: int  # distinct leads L
    bank_step: int
    rep_step: int
    lead_step: int
    cuts: np.ndarray  # the first tuple of each block of leads
    lead_cols: list  # each block of leads' values in each lead coordinate


def plan_fold(chunk: Chunk, s_prime: int, reps: int) -> Fold:
    """Analyse a chunk for ``fold_counts`` into a group of collapse depth
    s' and ``reps`` repetitions per bank, once for all of its banks.

    Each bank's masked counts go onto the grid of the chunk's L distinct
    leads (suffix coordinates s' to k - 1) by its V distinct last values.
    When the U distinct suffixes fill less than 1/GRID_FILL of the grid,
    and when s' = k, each suffix is its own lead with one last value. The
    tuples are put in lead order, so a block of leads is a slice of them,
    and the blocks of banks, repetitions and leads are sized so that no
    temporary of the fold holds over max(FOLD_BLOCK, D) floats.
    """
    T, c = chunk.T, chunk.c
    D, k = T.shape
    V = len(chunk.values[-1])
    U, inv = np.unique(T[:, s_prime:], axis=0, return_inverse=True)
    L, lead = np.unique(U[:, :-1], axis=0, return_inverse=True)
    if s_prime == k or len(L) * V > GRID_FILL * len(U):
        L, lead, last, nv, last_col = U, inv.reshape(-1), np.zeros(D, np.int64), 1, None
    else:
        lead, last, nv, last_col = lead[inv.reshape(-1)], chunk.at[-1], V, chunk.values[-1]
    order = np.argsort(lead, kind="stable")
    lead = lead[order]
    bank_step = max(1, FOLD_BLOCK // max(D, reps * max(V, len(L)), nv * len(L)))
    rep_step = reps if bank_step * reps * V <= FOLD_BLOCK else max(1, FOLD_BLOCK // V)
    lead_step = max(1, FOLD_BLOCK // (bank_step * max(rep_step, nv)))
    cuts = np.searchsorted(lead, np.arange(0, len(L) + lead_step, lead_step))
    lead_cols = [list(L[l0 : l0 + lead_step].T) for l0 in range(0, len(L), lead_step)]
    return Fold(
        T[order], c[order], lead, last[order], last_col, nv, len(L),
        bank_step, rep_step, lead_step, cuts, lead_cols,
    )


def _masked_weights(P: np.ndarray, T: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each bank's weight of each tuple, (B, D): the tuple's count ``c``
    times the bank's masks ``P`` (B, s, n) at the tuple's first s values."""
    w = np.tile(c, (len(P), 1))
    for j in range(P.shape[1]):
        w *= P[:, j, T[:, j]]
    return w


def fold_counts(fold: Fold, prefix: np.ndarray, tables: np.ndarray, joint: np.ndarray) -> None:
    """Add an analysed chunk of tuple counts to a block of product-sketch rows in place.

    ``prefix`` holds the block's banks' s masks (B, s, n), ``tables`` its
    rows' d = k - s' Cauchy tables (B, Q, d, n) and ``joint`` (B, Q) their
    accumulators: Q repetitions of each of B banks. By linearity this
    equals feeding the tuples one at a time. Each bank's masked counts meet
    the rows' last tables on the grid in one batched matrix product, and
    then their lead tables. The cost is O(B * s * D + B * Q * (L * V +
    (d - 1) * L)) on the grid, where L * V = U on a dense chunk, and
    O(B * s * D + B * Q * d * U) per suffix; never a term in n^k. Tables
    are gathered at the chunk's values into a copy; neither they nor the
    masks are written.
    """
    Tg, cg, lead, last = fold.T, fold.c, fold.lead, fold.last
    nv, lead_step, last_col = fold.nv, fold.lead_step, fold.last_col
    starts = range(0, fold.leads, lead_step)
    for b0 in range(0, len(prefix), fold.bank_step):
        P = prefix[b0 : b0 + fold.bank_step]
        B = len(P)
        w = _masked_weights(P, Tg, cg)
        for q0 in range(0, joint.shape[1], fold.rep_step):
            at_rows = (slice(b0, b0 + B), slice(q0, q0 + fold.rep_step))
            Cb, Jb = tables[at_rows], joint[at_rows]
            # G holds the last tables at the last values, or ones per suffix
            G = np.ones(Cb.shape[:2] + (1,)) if last_col is None else Cb[:, :, -1, last_col]
            for i, l0 in enumerate(starts):
                t0, t1, nl = fold.cuts[i], fold.cuts[i + 1], min(lead_step, fold.leads - l0)
                cells = last[t0:t1] * nl + lead[t0:t1] - l0 + np.arange(B)[:, None] * (nv * nl)
                F = np.bincount(cells.ravel(), w[:, t0:t1].ravel(), B * nv * nl)
                Y = G @ F.reshape(B, nv, nl)
                for j, at_lead in enumerate(fold.lead_cols[i]):
                    Y *= Cb[:, :, j, at_lead]
                Jb += np.einsum("brl->br", Y)  # Y.sum(axis=2), faster over few leads


def count_masked(chunk: Chunk, prefix: np.ndarray, counts: np.ndarray) -> None:
    """Add a chunk's masked record counts by last value to ``counts`` (B, n)
    in place: ``counts[b, x]`` gains the counts of the tuples whose last
    value is x, each times its masks ``prefix[b, j]`` (B, s, n) at its
    first s values. Masks are 0/1, so every sum is an integer, exact in
    float64 in any order. The tuples are put in last-value order, so each
    block of banks sums its masked counts by one ``np.add.reduceat``; a
    block's weights hold at most max(FOLD_BLOCK, D, n) floats."""
    order = np.argsort(chunk.at[-1], kind="stable")
    T, c = chunk.T[order], chunk.c[order]
    starts = np.searchsorted(chunk.at[-1][order], np.arange(len(chunk.values[-1])))
    step = max(1, FOLD_BLOCK // max(len(c), counts.shape[1]))
    for b0 in range(0, len(prefix), step):
        w = _masked_weights(prefix[b0 : b0 + step], T, c)
        counts[b0 : b0 + step, chunk.values[-1]] += np.add.reduceat(w, starts, axis=1)


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
    coefficient tables. Exact when the tables are integers or rationals.
    ConfigurationError unless 0 <= s' <= len(prefix_hashes) <= k and there
    are k - s' coefficient tables of length n.
    """
    _, s_prime = checked_depths(table.k, len(prefix_hashes), s_prime)
    d = table.k - s_prime
    if len(coeff) != d or any(len(c) != table.n for c in coeff):
        raise ConfigurationError(f"expected {d} coefficient tables of length {table.n}")
    M = tensor_ops.dense_independence_tensor(table)
    masked = tensor_ops.prefix_zero(M, list(prefix_hashes))
    collapsed = tensor_ops.suffix_sum(masked, s_prime)
    if d == 0:
        return int(collapsed.array)
    total = 0
    for idx in np.ndindex(*collapsed.array.shape):
        c = 1
        for j, x in enumerate(idx):
            c = c * coeff[j][x]
        total = total + c * int(collapsed.array[idx])
    return total
