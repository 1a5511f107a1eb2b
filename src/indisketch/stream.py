"""Streams of k-tuples, exact frequency statistics and the exact oracle.

A stream is a sequence of k-tuples with coordinates in [1, n]. The joint
distribution assigns each tuple its empirical frequency f_i/m; each
dimension l has a margin distribution f_l(t)/m, and the product
distribution is the product of the margins. The statistical (total
variation) distance between joint and product,

    dist = 1/2 * sum_i |f_i/m - prod_l f_l(i_l)/m^k|,

is what the sketching pipeline estimates and what this module computes
exactly.

The same difference can be packaged as the "independence tensor": the
k-dimensional tensor with integer entries

    m^(k-1)*f_i - prod_l f_l(i_l)  ==  m^k * (P_joint(i) - P_product(i)),

whose L1 norm divided by 2*m^k is exactly the statistical distance. This
is the tensor every sketch in the library targets.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import EmptyStreamError, MalformedInputError

TupleKey = Tuple[int, ...]

# Records travel from the input to the tallies in blocks of this many rows:
# large enough that per-block numpy calls cost little per record, small
# enough that a block's temporaries stay well under a megabyte.
RECORD_BLOCK = 4096


@dataclass
class TupleStream:
    """A stream of k-tuples over [1, n]^k.

    `source` may be any iterable of tuples; `m` (the stream length) is only
    known after a full traversal unless supplied.
    """

    k: int
    n: int
    source: Iterable[TupleKey]
    m: Optional[int] = None

    def __post_init__(self):
        if self.k < 2:
            raise MalformedInputError(f"arity k={self.k} must be >= 2")
        if self.n < 1:
            raise MalformedInputError(f"domain size n={self.n} must be >= 1")

    def __iter__(self) -> Iterator[TupleKey]:
        return iter(self.source)


@dataclass
class FrequencyTable:
    """Exact per-tuple and per-margin counts of one full pass."""

    k: int
    n: int
    m: int
    joint: Dict[TupleKey, int]
    margins: List[Dict[int, int]]


def _integral(x, index: Optional[int], what: str = "coordinate") -> int:
    """``x`` as an int; MalformedInputError unless it is an integral number."""
    try:
        v = int(x)
        integral = v == x
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise MalformedInputError(f"non-integer {what} {x!r}", index)
    return v


def checked_tuple(rec, k: int, n: int, index: Optional[int] = None) -> TupleKey:
    """``rec`` as an int tuple; MalformedInputError on a non-integral
    coordinate, wrong arity or range."""
    items = tuple(rec)  # one pass over rec, which may be an iterator
    try:
        t = tuple(map(operator.index, items))
    except TypeError:
        t = tuple(_integral(x, index) for x in items)
    if len(t) != k:
        raise MalformedInputError(f"expected {k} coordinates, got {len(t)}", index)
    for x in t:
        if not 1 <= x <= n:
            raise MalformedInputError(f"coordinate {x} outside [1, {n}]", index)
    return t


def _checked_block(block: np.ndarray, k: int, n: int, index: int) -> np.ndarray:
    """A 2-D block of records as int64; its first bad row raises the
    ``checked_tuple`` error, counting rows from ``index + 1``."""
    if block.shape[1] != k:
        checked_tuple(block[0].tolist(), k, n, index + 1)
    if block.dtype.kind in "iuf":
        ok = (block >= 1) & (block <= n)
        if block.dtype.kind == "f":
            ok &= block == np.floor(block)
        bad = np.flatnonzero(~ok.all(axis=1))
        if len(bad):
            checked_tuple(block[bad[0]].tolist(), k, n, index + 1 + int(bad[0]))
        return block.astype(np.int64, copy=False)
    return _checked_records(block, k, n, index)


def _checked_records(records, k: int, n: int, index: int) -> np.ndarray:
    """Records checked one at a time with ``checked_tuple``, as one int64 block."""
    rows = [checked_tuple(r, k, n, index + 1 + i) for i, r in enumerate(records)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), k)


def _record_batch(records: list, k: int, n: int, index: int) -> np.ndarray:
    """Single records as one validated int64 block, counting rows from ``index + 1``.

    A batch of several records that numpy reads as a 2-D integer or float
    array is checked at once. A lone record (what ``update`` feeds, where
    the array calls would cost more than they save), any other batch
    (ragged rows, iterators, bool, object or huge-int values) and any batch
    holding a bad record are checked record by record, so errors are
    ``checked_tuple``'s own.
    """
    if len(records) > 1:
        try:
            block = np.array(records)
            if block.ndim == 2 and block.dtype.kind in "iuf":
                return _checked_block(block, k, n, index)
        except (ValueError, TypeError, OverflowError, MalformedInputError):
            pass
    return _checked_records(records, k, n, index)


def record_blocks(
    source: Iterable, k: int, n: int, start: int = 0
) -> Iterator[np.ndarray]:
    """The records of ``source`` as validated ``(b, k)`` int64 blocks.

    Items of ``source`` are single records or 2-D arrays of records (rows).
    Arrays are checked at once and passed through in slices of at most
    ``RECORD_BLOCK`` rows; single records are batched and each batch is
    converted and checked at once (``_record_batch``). Errors name the
    record by its position in ``source``, counted from ``start + 1``.
    """
    batch: list = []
    index = start
    for item in source:
        if isinstance(item, np.ndarray) and item.ndim == 2:
            if batch:
                yield _record_batch(batch, k, n, index)
                index += len(batch)
                batch = []
            for lo in range(0, len(item), RECORD_BLOCK):
                block = item[lo : lo + RECORD_BLOCK]
                yield _checked_block(block, k, n, index)
                index += len(block)
            continue
        batch.append(item)
        if len(batch) == RECORD_BLOCK:
            yield _record_batch(batch, k, n, index)
            index += len(batch)
            batch = []
    if batch:
        yield _record_batch(batch, k, n, index)


class TupleTally:
    """Counts of distinct k-tuples over [1, n]^k, added a block at a time.

    Tuples are kept as sorted keys with int64 counts. A key is the
    mixed-radix index of the 0-based tuple when ``n^k`` fits in an int64,
    and otherwise the tuple's raw bytes; both sort and compare exactly.
    Added keys wait until they are as many as the keys held, then merge
    in one sort, so a large support costs O(log) per record, not O(D).
    """

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        fits = n**k <= 2**63
        self._radix = n ** np.arange(k - 1, -1, -1, dtype=np.int64) if fits else None
        self._keys = self._encode(np.empty((0, k), dtype=np.int64))
        self._counts = np.empty(0, dtype=np.int64)
        self._waiting: List[np.ndarray] = []
        self._waiting_rows = 0

    def __len__(self) -> int:
        """Number of distinct tuples."""
        self._merge()
        return len(self._keys)

    @property
    def counts(self) -> np.ndarray:
        """Count of each distinct tuple, in the order of ``tuples()``."""
        self._merge()
        return self._counts

    @property
    def m(self) -> int:
        """Number of records counted."""
        return int(self.counts.sum())

    def _encode(self, block: np.ndarray) -> np.ndarray:
        if self._radix is not None:
            return (block - 1) @ self._radix
        rows = np.ascontiguousarray(block, dtype=np.int64)
        return rows.view(np.dtype((np.void, 8 * self.k))).reshape(-1)

    def tuples(self) -> np.ndarray:
        """The distinct tuples as a (D, k) int64 array, in key order."""
        self._merge()
        if self._radix is not None:
            return self._keys[:, None] // self._radix % self.n + 1
        return self._keys.view(np.int64).reshape(-1, self.k)

    def add(self, block: np.ndarray, limit: Optional[int] = None) -> int:
        """Count the rows of a validated block in order; returns how many.

        With ``limit``, counting stops after the row that brings the tally
        to ``limit`` distinct tuples, exactly where a record-at-a-time
        count would first reach it.
        """
        keys = self._encode(block)
        if limit is not None and len(self) + len(keys) >= limit:
            u, first = np.unique(keys, return_index=True)
            pos = np.minimum(np.searchsorted(self._keys, u), len(self._keys) - 1)
            new = first[self._keys[pos] != u] if len(self._keys) else first
            need = limit - len(self._keys)
            if 0 < need <= len(new):
                keys = keys[: np.sort(new)[need - 1] + 1]
        self._waiting.append(keys)
        self._waiting_rows += len(keys)
        if self._waiting_rows >= len(self._keys):
            self._merge()
        return len(keys)

    def _merge(self) -> None:
        if not self._waiting_rows:
            return
        keys = np.concatenate([self._keys, *self._waiting])
        counts = np.concatenate([self._counts, np.ones(self._waiting_rows, dtype=np.int64)])
        order = np.argsort(keys)
        keys, counts = keys[order], counts[order]
        first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        self._keys, self._counts = keys[first], np.add.reduceat(counts, first)
        self._waiting, self._waiting_rows = [], 0


def build_frequency_table(stream: TupleStream) -> FrequencyTable:
    """Tally joint and margin counts in a single traversal.

    Raises MalformedInputError naming the offending record index when a
    tuple has the wrong arity, a non-integral or an out-of-range
    coordinate. Counts are Python ints, so the oracle's products are exact.
    """
    k, n = stream.k, stream.n
    tally = TupleTally(k, n)
    for block in record_blocks(stream, k, n):
        tally.add(block)
    T, counts = tally.tuples(), tally.counts
    joint = dict(zip(map(tuple, T.tolist()), counts.tolist()))
    margins: List[Dict[int, int]] = []
    for l in range(k):
        values, at = np.unique(T[:, l], return_inverse=True)
        sums = np.zeros(len(values), dtype=np.int64)
        np.add.at(sums, at, counts)
        margins.append(dict(zip(values.tolist(), sums.tolist())))
    return FrequencyTable(k=k, n=n, m=tally.m, joint=joint, margins=margins)


def independence_tensor_entry(table: FrequencyTable, i: TupleKey) -> int:
    """Exact integer entry m^(k-1)*f_i - prod_l f_l(i_l).

    Equals m^k*(P_joint(i) - P_product(i)); zero everywhere iff the joint
    distribution factorizes. |entry| <= 2*m^k always (each term is at most
    m^k in magnitude).
    """
    if table.m < 1:
        raise EmptyStreamError("independence tensor requires a nonempty stream")
    i = tuple(int(x) for x in i)
    if len(i) != table.k:
        raise MalformedInputError(f"index arity {len(i)} != k={table.k}")
    for x in i:
        if not 1 <= x <= table.n:
            raise MalformedInputError(f"index value {x} outside [1, {table.n}]")
    prod = 1
    for l, x in enumerate(i):
        prod *= table.margins[l].get(x, 0)
        if prod == 0:
            break
    return table.m ** (table.k - 1) * table.joint.get(i, 0) - prod


def exact_statistical_distance(table: FrequencyTable) -> Fraction:
    """Exact statistical distance between joint and product distributions.

    Computed entirely in integer arithmetic and divided once at the end:

        dist = [ sum_{i in support(joint)} |m^(k-1)*f_i - prod_l f_l(i_l)|
                 + (m^k - sum_{i in support(joint)} prod_l f_l(i_l)) ] / (2*m^k)

    The second bracket is the product mass outside the joint support; the
    full product mass over [n]^k is m^k analytically, so no dense iteration
    over n^k cells is ever needed.
    """
    if table.m < 1:
        raise EmptyStreamError("statistical distance requires a nonempty stream")
    m, k = table.m, table.k
    mk = m**k
    mk1 = m ** (k - 1)
    support_abs = 0
    support_prod = 0
    for i, f in table.joint.items():
        prod = 1
        for l, x in enumerate(i):
            prod *= table.margins[l].get(x, 0)
        support_abs += abs(mk1 * f - prod)
        support_prod += prod
    total = support_abs + (mk - support_prod)
    return Fraction(total, 2 * mk)


def distance_from_tensor_norm(l1_of_tensor, m: int, k: int):
    """Map the independence-tensor L1 norm to the statistical distance.

    Returns |M| / (2*m^k); exact (a Fraction) when the norm is integral.
    The maximal distance 1 corresponds to |M| = 2*m^k.
    """
    if m < 1:
        raise EmptyStreamError("normalization requires m >= 1")
    if l1_of_tensor < 0:
        raise ValueError("tensor norm must be nonnegative")
    denom = 2 * m**k
    if isinstance(l1_of_tensor, (int, Fraction)):
        return Fraction(l1_of_tensor, denom)
    return float(l1_of_tensor) / float(denom)


REPORT_SCHEMA_VERSION = "indisketch-report/1"


@dataclass
class EstimateReport:
    """Final output of a run: the estimate plus everything needed to audit it."""

    distance_estimate: float
    m: int
    n: int
    k: int
    mode: str
    seed: int
    exact_distance: Optional[float] = None
    diagnostics: Dict[str, object] = field(default_factory=dict)
    schema_version: str = REPORT_SCHEMA_VERSION

    def __post_init__(self):
        if self.mode not in ("exact", "sketch", "both"):
            raise ValueError(f"unknown mode {self.mode!r}")
        has_exact = self.exact_distance is not None
        if has_exact != (self.mode in ("exact", "both")):
            raise ValueError("exact_distance must be present iff mode includes exact")
        if not 0.0 <= self.distance_estimate <= 1.0:
            raise ValueError("distance_estimate must lie in [0, 1]")

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "distance_estimate": self.distance_estimate,
            "exact_distance": self.exact_distance,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "mode": self.mode,
            "seed": self.seed,
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)
