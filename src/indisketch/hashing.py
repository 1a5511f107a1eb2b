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

import numpy as np

from .errors import ConfigurationError
from .stream import _integral, checked_count, checked_unit

# Prime modulus for the (a*i + b) mod p family. Must exceed 2^31 so that
# threshold probabilities are quantized no coarser than 2^-31, and must be
# small enough that a*i fits in uint64 (p^2 < 2^64).
FIELD_PRIME = 2**31 + 11

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# float64 elements per temporary of a blocked numpy pass: a flush's fold,
# a Cauchy table fill, a block of synthetic records (512 KiB)
FOLD_BLOCK = 1 << 16

# u = (z >> 11) * 2^-53 lies in [0, 1 - 2^-53]; the guard floor keeps
# tan(pi*(u - 1/2)) finite (|value| < 2^53).
_U53 = float(2.0**-53)


def _mix64_into(z):
    """splitmix64 finalizer of a fresh uint64 array, in place; a numpy scalar
    is rebound instead, and its caller ignores overflow through np.errstate."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def mix64(x):
    """splitmix64 finalizer of a uint64 scalar (as np.uint64) or of a copy of an array."""
    return _mix64_into(np.array(x, dtype=np.uint64))[()]


def _word(x, what: str):
    """An integral scalar mod 2^64 as an np.uint64, or an array of them as
    uint64 (an integer array is cast, which wraps as ``% 2**64`` does, and
    any other array goes value by value); ConfigurationError unless every
    value is integral."""
    if not isinstance(x, np.ndarray):
        return np.uint64(checked_count(what, x, least=None) % 2**64)
    if x.dtype.kind in "iu":
        return x.astype(np.uint64, copy=False)
    return np.array([_word(v, what) for v in x.ravel().tolist()], dtype=np.uint64).reshape(x.shape)


def derive_key(seed, *parts):
    """Fold integers into a single 64-bit key, order-sensitively.

    `seed` and any part may be integer arrays for batched derivation;
    chaining holds: derive_key(s, a, b) == derive_key(derive_key(s, a), b).
    Seeds and parts, scalar or array, must be integral (integral floats and
    numpy ints pass); the result is an np.uint64 unless an array took part.
    """
    h = _word(seed, "seed")
    with np.errstate(over="ignore"):
        for p in parts:
            z = h + _word(p, "key part")
            z += _GOLDEN
            h = _mix64_into(z)
    return h.copy() if h is seed else h  # never the caller's array


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


def _field_coefficients(seeds, tag: int):
    """(a, b) of the field hash (a*i + b) mod p keyed by (seed, tag) of each seed (or one seed)."""
    if isinstance(seeds, (list, tuple)):
        seeds = np.array([_word(s, "seed") for s in seeds], dtype=np.uint64)
    key = derive_key(seeds, tag)
    with np.errstate(over="ignore"):
        return tuple(_mix64_into(key + np.uint64(c)) % np.uint64(FIELD_PRIME) for c in (1, 2))


def _field_values(a, b, i) -> np.ndarray:
    """(a*i + b) mod p at the indices i; one row per coefficient pair when a, b are arrays."""
    a = np.asarray(a, dtype=np.uint64)[..., None]
    b = np.asarray(b, dtype=np.uint64)[..., None]
    return (a * np.asarray(i, dtype=np.uint64) + b) % np.uint64(FIELD_PRIME)


def _check_index(i, n: int) -> None:
    if not 1 <= _integral(i, None, "index") <= n:
        raise IndexError(f"index {i} outside [1, {n}]")


def _threshold(q) -> np.ndarray:
    """round(q * p) of each probability q in [0, 1]."""
    for x in np.ravel(q).tolist():
        checked_unit("q", x, closed=True)
    return np.rint(np.asarray(q, dtype=np.float64) * FIELD_PRIME).astype(np.uint64)


def zero_one_tables(seeds, n: int, q) -> np.ndarray:
    """Tables of ZeroOneHash(seed, n, q) for many seeds in one step: uint8 of
    the seeds' shape + (n,). ``q`` is one probability or one per seed."""
    a, b = _field_coefficients(seeds, _TAG_ZERO_ONE)
    return (_field_values(a, b, np.arange(1, n + 1)) < _threshold(q)[..., None]).astype(np.uint8)


def bucket_tables(seeds, n: int, buckets: int) -> np.ndarray:
    """Tables of BucketHash(seed, n, buckets) for many seeds in one step: seeds' shape + (n,)."""
    a, b = _field_coefficients(seeds, _TAG_BUCKET)
    rho = np.uint64(checked_count("buckets", buckets))
    return (np.uint64(1) + _field_values(a, b, np.arange(1, n + 1)) % rho).astype(np.int64)


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
        object.__setattr__(self, "threshold", int(_threshold(self.q)))
        for name, c in zip("ab", _field_coefficients(self.seed, _TAG_ZERO_ONE)):
            object.__setattr__(self, name, int(c))

    def __call__(self, i):
        _check_index(i, self.n)
        return int(_field_values(self.a, self.b, [int(i)])[0] < self.threshold)

    def table(self, n=None):
        """Vectorized evaluation over [1, n] as a uint8 array (index 0 <-> i=1)."""
        return zero_one_tables(self.seed, self.n if n is None else n, self.q)


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
        object.__setattr__(self, "buckets", checked_count("buckets", self.buckets))
        for name, c in zip("ab", _field_coefficients(self.seed, _TAG_BUCKET)):
            object.__setattr__(self, name, int(c))

    def __call__(self, i):
        _check_index(i, self.n)
        return 1 + int(_field_values(self.a, self.b, [int(i)])[0] % self.buckets)

    def table(self, n=None):
        return bucket_tables(self.seed, self.n if n is None else n, self.buckets)


def hash_table(h, n: int) -> np.ndarray:
    """A hash's values at 1..n as an array (index 0 <-> i=1): ``h.table(n)``
    when it has one, ``h(i)`` of each i when it is callable, else ``h``
    itself as a sequence; ConfigurationError unless that has length n."""
    if hasattr(h, "table"):
        h = h.table(n)
    elif callable(h):
        h = [h(i) for i in range(1, n + 1)]
    t = np.asarray(h)
    if t.shape != (n,):
        raise ConfigurationError(f"hash table must have length {n}, got shape {t.shape}")
    return t


def _cauchy(key, indices, omega=None):
    """The Cauchy map tan(pi*(u - 1/2)) of the counter uniforms of (key,
    indices), clamped to [-omega, omega] when ``omega`` is set."""
    v = np.tan(np.pi * (counter_uniform(key, indices) - 0.5))
    return v if omega is None else np.clip(v, -omega, omega)


@dataclass(frozen=True)
class CauchySource:
    """Indexed standard-Cauchy generator: value(i) = tan(pi*(u_i - 1/2)).

    u_i is the counter uniform of (seed, i), floored into
    [2^-53, 1 - 2^-53] so values stay finite. With `truncation` set to a
    positive, finite omega, values are clamped to [-omega, omega] exactly.
    """

    seed: int
    truncation: float | None = None

    def __post_init__(self):
        if self.truncation is not None:
            checked_omega(self.truncation)

    def __call__(self, i):
        return float(self.table_at(np.asarray([int(i)]))[0])

    def table_at(self, indices):
        """Vectorized values at the given integer indices."""
        return _cauchy(derive_key(self.seed, 0x5A03), np.asarray(indices), self.truncation)

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
            key = derive_key(block, j, 0x5A03)
            out[r0 : r0 + step, j] = _cauchy(key, idx, omega if j else None)
    return out


def checked_omega(omega) -> float:
    """The clamp magnitude of the truncated Cauchy families as a float;
    ConfigurationError unless it is positive and finite."""
    if not omega > 0.0:
        raise ConfigurationError("omega must be positive")
    if omega == math.inf:
        raise ConfigurationError("omega must be finite")
    return float(omega)


def default_truncation(k: int, n: int) -> float:
    """Default clamp magnitude for the truncated Cauchy families: 100*k*n."""
    return 100.0 * k * n
