"""Deterministic, replayable randomness for one-pass sketching.

Everything here is a pure function of (seed, index): pairwise-independent
hash families over a prime field, and indexed Cauchy / truncated-Cauchy
generators. No per-index state is ever stored, so any value can be
re-evaluated at any time, which is what lets estimators of one
configuration replay the same randomness and merge their snapshots.

The generator core is a counter-based 64-bit mixer (splitmix64 finalizer)
keyed by an arbitrary tuple of integers. It is not cryptographic; it is
chosen for exact cross-platform reproducibility with fixed-width integer
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

# Prime modulus for the (a*i + b) mod p family. Must exceed 2^31 so that
# threshold probabilities are quantized no coarser than 2^-31, and must be
# small enough that a*i fits in uint64 (p^2 < 2^64).
FIELD_PRIME = 2**31 + 11

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)

# float64 elements per temporary of a blocked numpy pass: a flush's fold,
# a Cauchy table fill, a block of synthetic records (512 KiB)
FOLD_BLOCK = 1 << 16

# u = (z >> 11) * 2^-53 lies in [0, 1 - 2^-53]; the guard floor keeps
# tan(pi*(u - 1/2)) finite (|value| < 2^53).
_U53 = float(2.0**-53)


def _mix64_int(z: int) -> int:
    """splitmix64 finalizer on a Python int in [0, 2^64)."""
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK
    return z ^ (z >> 31)


def _mix64_into(z):
    """splitmix64 finalizer on a fresh uint64 array, in place.

    Numpy scalars are rebound instead; their callers ignore overflow
    through np.errstate.
    """
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def mix64(x):
    """splitmix64 finalizer; accepts uint64 scalars or arrays, wraps mod 2^64.

    Scalars are mixed in Python ints and returned as np.uint64; arrays
    are mixed in one copy of the input.
    """
    z = np.array(x, dtype=np.uint64)
    if z.ndim == 0:
        return np.uint64(_mix64_int(int(z)))
    with np.errstate(over="ignore"):
        return _mix64_into(z)


def derive_key(seed, *parts):
    """Fold integers into a single 64-bit key, order-sensitively.

    `seed` and any part may be uint64 arrays for batched derivation;
    chaining holds: derive_key(s, a, b) == derive_key(derive_key(s, a), b).
    Scalar seeds and parts fold in Python ints up to the first array part;
    the result is an np.uint64 unless an array took part.
    """
    if isinstance(seed, np.ndarray):
        # every part makes a fresh array, so the seed is copied only without parts
        h, rest = seed.astype(np.uint64, copy=not parts), parts
    else:
        h = int(seed) & _MASK
        for at, p in enumerate(parts):
            if isinstance(p, np.ndarray):
                h, rest = np.uint64(h), parts[at:]
                break
            h = _mix64_int((h + _GOLDEN_INT + (int(p) & _MASK)) & _MASK)
        else:
            return np.uint64(h)
    with np.errstate(over="ignore"):
        for p in rest:
            if isinstance(p, np.ndarray):
                z = h + p.astype(np.uint64, copy=False)
            else:
                z = h + np.uint64(int(p) & _MASK)
            z += _GOLDEN
            h = _mix64_into(z)
    return h


def counter_uniform(key, index):
    """Deterministic uniform in [2^-53, 1 - 2^-53] for each index.

    `key` and `index` may be scalars or broadcastable integer arrays;
    vectorized evaluation returns a float64 array of the broadcast shape.
    """
    idx = np.asarray(index, dtype=np.uint64)
    k = np.asarray(key, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _mix64_into(k + (idx + np.uint64(1)) * _GOLDEN)
    u = (z >> np.uint64(11)).astype(np.float64) * _U53
    return np.maximum(u, _U53)


_TAG_ZERO_ONE = 0x5A01
_TAG_BUCKET = 0x5A02


def _field_coefficients(seed, tag: int) -> Tuple[int, int]:
    """(a, b) of the field hash (a*i + b) mod p keyed by (seed, tag)."""
    key = int(derive_key(seed, tag))
    return (
        _mix64_int((key + 1) & _MASK) % FIELD_PRIME,
        _mix64_int((key + 2) & _MASK) % FIELD_PRIME,
    )


def _field_values(a, b, n: int) -> np.ndarray:
    """(a*i + b) mod p at i = 1..n; one row per coefficient pair when a, b are sequences."""
    i = np.arange(1, n + 1, dtype=np.uint64)
    a = np.asarray(a, dtype=np.uint64)[..., None]
    b = np.asarray(b, dtype=np.uint64)[..., None]
    return (a * i + b) % np.uint64(FIELD_PRIME)


def _check_index(i, n: int) -> None:
    if not 1 <= int(i) <= n:
        raise IndexError(f"index {i} outside [1, {n}]")


def _threshold(q: float) -> int:
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"probability q={q} outside [0, 1]")
    return int(round(q * FIELD_PRIME))


def zero_one_tables(seeds: Sequence, n: int, q: float) -> np.ndarray:
    """Tables of ZeroOneHash(seed, n, q) for many seeds in one step: (len(seeds), n) uint8."""
    coeffs = [_field_coefficients(s, _TAG_ZERO_ONE) for s in seeds]
    a, b = np.array(coeffs, dtype=np.uint64).reshape(-1, 2).T
    return (_field_values(a, b, n) < np.uint64(_threshold(q))).astype(np.uint8)


@dataclass(frozen=True)
class ZeroOneHash:
    """Pairwise-independent hash [1, n] -> {0, 1} with P(h(i)=1) = q.

    Realized by thresholding the field hash (a*i + b) mod p: the output is 1
    iff the field value is below round(q*p), so the achieved probability is
    exact to within the documented quantization 1/p.
    """

    seed: int
    n: int
    q: float
    a: int = field(init=False)
    b: int = field(init=False)
    threshold: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "threshold", _threshold(self.q))
        a, b = _field_coefficients(self.seed, _TAG_ZERO_ONE)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __call__(self, i):
        _check_index(i, self.n)
        return int((self.a * int(i) + self.b) % FIELD_PRIME < self.threshold)

    def table(self, n=None):
        """Vectorized evaluation over [1, n] as a uint8 array (index 0 <-> i=1)."""
        v = _field_values(self.a, self.b, self.n if n is None else n)
        return (v < np.uint64(self.threshold)).astype(np.uint8)


@dataclass(frozen=True)
class BucketHash:
    """Pairwise-independent hash [1, n] -> [1, buckets].

    Buckets are taken as 1 + (field value mod buckets); each bucket
    probability is within the quantization error buckets/p of 1/buckets.
    """

    seed: int
    n: int
    buckets: int
    a: int = field(init=False)
    b: int = field(init=False)

    def __post_init__(self):
        if self.buckets < 1:
            raise ValueError("buckets must be >= 1")
        a, b = _field_coefficients(self.seed, _TAG_BUCKET)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __call__(self, i):
        _check_index(i, self.n)
        return 1 + ((self.a * int(i) + self.b) % FIELD_PRIME) % self.buckets

    def table(self, n=None):
        v = _field_values(self.a, self.b, self.n if n is None else n)
        return (np.uint64(1) + v % np.uint64(self.buckets)).astype(np.int64)


@dataclass(frozen=True)
class CauchySource:
    """Indexed standard-Cauchy generator: value(i) = tan(pi*(u_i - 1/2)).

    u_i is the counter uniform of (seed, i), floored into
    [2^-53, 1 - 2^-53] so values stay finite. With `truncation` set to a
    positive omega, values are clamped to [-omega, omega] exactly.
    """

    seed: int
    truncation: float | None = None

    def __post_init__(self):
        if self.truncation is not None and self.truncation <= 0:
            raise ValueError("truncation must be positive when set")

    def __call__(self, i):
        return float(self.table_at(np.asarray([int(i)]))[0])

    def table_at(self, indices):
        """Vectorized values at the given integer indices."""
        u = counter_uniform(derive_key(self.seed, 0x5A03), np.asarray(indices))
        v = np.tan(np.pi * (u - 0.5))
        if self.truncation is not None:
            v = np.clip(v, -self.truncation, self.truncation)
        return v

    def table(self, n):
        """Values at indices 1..n (index 0 of the array <-> i=1)."""
        return self.table_at(np.arange(1, n + 1))


def batched_cauchy_tables(
    row_seeds: np.ndarray, families: int, n: int, omega: float
) -> np.ndarray:
    """Cauchy tables [rows, families, n] for many repetitions at once.

    Row r with family j reproduces CauchySource(seed=derive_key(row_seeds[r], j))
    exactly; family 0 is untruncated, the rest clamp at omega. Rows are
    filled in blocks, so each temporary holds at most max(FOLD_BLOCK, n)
    values whatever the row count.
    """
    rows = np.asarray(row_seeds, dtype=np.uint64)
    idx = np.arange(1, n + 1, dtype=np.uint64)
    out = np.empty((rows.shape[0], families, n), dtype=np.float64)
    step = max(1, FOLD_BLOCK // n)
    for r0 in range(0, rows.shape[0], step):
        block = rows[r0 : r0 + step, None]
        for j in range(families):
            u = counter_uniform(derive_key(block, j, 0x5A03), idx)
            vals = np.tan(np.pi * (u - 0.5))
            if j > 0:
                np.clip(vals, -omega, omega, out=vals)
            out[r0 : r0 + step, j] = vals
    return out


def default_truncation(k: int, n: int) -> float:
    """Default clamp magnitude for the truncated Cauchy families: 100*k*n."""
    return 100.0 * k * n


def cauchy_from_uniform(u: float) -> float:
    """Reference inverse-CDF map used by tests: tan(pi*(u - 1/2))."""
    return math.tan(math.pi * (u - 0.5))
