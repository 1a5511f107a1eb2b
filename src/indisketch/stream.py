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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import EmptyStreamError, MalformedInputError

TupleKey = Tuple[int, ...]


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

    def joint_count(self, i: TupleKey) -> int:
        return self.joint.get(tuple(i), 0)

    def margin_count(self, dim: int, value: int) -> int:
        """Count of `value` in 1-based dimension `dim`."""
        return self.margins[dim - 1].get(value, 0)


def checked_tuple(rec, k: int, n: int, index: Optional[int] = None) -> TupleKey:
    """``rec`` as an int tuple; MalformedInputError on wrong arity or range."""
    t = tuple(int(x) for x in rec)
    if len(t) != k:
        raise MalformedInputError(f"expected {k} coordinates, got {len(t)}", index)
    for x in t:
        if not 1 <= x <= n:
            raise MalformedInputError(f"coordinate {x} outside [1, {n}]", index)
    return t


def build_frequency_table(stream: TupleStream) -> FrequencyTable:
    """Tally joint and margin counts in a single traversal.

    Raises MalformedInputError naming the offending record index when a
    tuple has the wrong arity or an out-of-range coordinate.
    """
    k, n = stream.k, stream.n
    joint: Dict[TupleKey, int] = {}
    margins: List[Dict[int, int]] = [dict() for _ in range(k)]
    m = 0
    for idx, rec in enumerate(stream, start=1):
        t = tuple(int(x) for x in rec)
        if len(t) != k:
            raise MalformedInputError(f"expected {k} coordinates, got {len(t)}", idx)
        for l, x in enumerate(t):
            if not 1 <= x <= n:
                raise MalformedInputError(
                    f"coordinate {l + 1} value {x} outside [1, {n}]", idx
                )
            margins[l][x] = margins[l].get(x, 0) + 1
        joint[t] = joint.get(t, 0) + 1
        m += 1
    return FrequencyTable(k=k, n=n, m=m, joint=joint, margins=margins)


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
