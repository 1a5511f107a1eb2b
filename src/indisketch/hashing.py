"""Deterministic, replayable randomness for one-pass sketching.

Everything here is a pure function of (seed, index): pairwise-independent
hash families over a prime field, and indexed Cauchy / truncated-Cauchy
tables. No per-index state is ever stored, so any value can be
re-evaluated at any time, which is what lets estimators of one
configuration replay the same randomness and merge their snapshots.

The generator core is a counter-based 64-bit mixer (splitmix64 finalizer)
keyed by an arbitrary tuple of integers. It is not cryptographic; it is
chosen for exact cross-platform reproducibility with fixed-width integer
arithmetic. There is one mixer, ``_mix64_into``, for keys, counters and
field coefficients alike, and one Cauchy map, ``_cauchy``, from mixed
counters to values, which ``batched_cauchy_tables`` applies in place:
it lays out and mixes each block's counters in the tables' own memory,
a new array or the reused buffers of a ``CauchyWork``.
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

# The Cauchy map's angle pi*(u - 1/2) of the 53-bit uniform u = m * 2^-53,
# m = max(z >> 11, 1), as (m - 2^52) * _ANGLE: both scalings are exact and
# the one product rounds once, so it is the same float either way. The
# guard floor m >= 1 keeps tan finite (|value| < 2^53).
_ANGLE = float(np.pi * 2.0**-53)
_HALF = np.uint64(2**52)


def _mix64_into(z, scratch=None):
    """splitmix64 finalizer of a uint64 array, in place (the caller's to
    overwrite), its shifts written to ``scratch`` (an array of z's shape)
    when one is given; a numpy scalar is rebound instead, and its caller
    ignores overflow through np.errstate."""
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
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
            p = _word(p, "key part")
            if isinstance(p, np.ndarray):
                z = h + p
                z += _GOLDEN
            else:  # a scalar part takes the constant first: one pass over an array seed
                z = h + (p + _GOLDEN)
            h = _mix64_into(z)
    return h.copy() if h is seed else h  # never the caller's array


def _offsets(index):
    """(index + 1) * golden: what counter_uniform adds to its key at each index."""
    return (_word(index, "index") + np.uint64(1)) * _GOLDEN


def _counters(key, index):
    """The splitmix64-mixed counter key + (index + 1) * golden of each (key,
    index) pair; both are integral scalars or arrays, broadcast, and wrap
    mod 2^64 (ConfigurationError on a non-integral value)."""
    with np.errstate(over="ignore"):
        return _mix64_into(_word(key, "key") + _offsets(index))


def _steps(z):
    """m = max(z >> 11, 1) of mixed counters z, in place for an array: the
    53-bit uniform u = m * 2^-53, floored at 2^-53 so that the Cauchy map
    of u stays finite."""
    z >>= np.uint64(11)
    return np.maximum(z, np.uint64(1), out=z if isinstance(z, np.ndarray) else None)


def counter_uniform(key, index):
    """Deterministic uniform in [2^-53, 1 - 2^-53] for each index.

    `key` and `index` may be scalars or broadcastable arrays, taken as
    derive_key takes its seed and parts; vectorized evaluation returns a
    float64 array of the broadcast shape.
    """
    return _steps(_counters(key, index)) * 2.0**-53


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


def _cauchy(z, out):
    """The Cauchy map tan(pi*(u - 1/2)) of the mixed counters ``z`` (1-D
    uint64 of out's size, overwritten), written into the 1-D ``out``;
    returns ``out``."""
    z = _steps(z)
    z -= _HALF
    # exact, as |m - 2^52| <= 2^52; a 1-D z in out's own memory converts element by element
    np.copyto(out, z.view(np.int64), casting="unsafe")
    out *= _ANGLE
    return np.tan(out, out=out)


class CauchyWork:
    """The buffers ``batched_cauchy_tables`` fills tables of length n in:
    ``values`` for the tables, and for one fill block a mixing ``scratch``
    and the counters' index ``offsets`` (those of 1..n, tiled), so that
    repeated fills allocate none of them."""

    def __init__(self, n: int, size: int = 0):
        self.n = n
        self.values = np.empty(0)
        self.scratch = self.offsets = np.empty(0, dtype=np.uint64)
        self.reserve(size)

    def reserve(self, size: int) -> None:
        """Hold tables of ``size`` values (a multiple of n) and a fill block of them."""
        if size <= self.values.size:
            return
        block = min(size, max(FOLD_BLOCK // self.n, 1) * self.n)
        self.values = np.empty(size)
        self.scratch = np.empty(block, dtype=np.uint64)
        self.offsets = np.tile(_offsets(np.arange(1, self.n + 1)), block // self.n)

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + self.scratch.nbytes + self.offsets.nbytes


def batched_cauchy_tables(
    row_seeds: np.ndarray, families: int, n: int, omega: float, work=None
) -> np.ndarray:
    """Cauchy tables [rows, families, n] for many repetitions at once.

    Row r with family j holds tan(pi*(u_i - 1/2)) at i = 1..n, u_i the
    counter uniform of key derive_key(row_seeds[r], j, 0x5A03) at index i;
    family 0 is untruncated, the rest clamp at omega. The output is
    filled in place, a block of whole rows at a time, or of one table when a
    row holds more than FOLD_BLOCK values: the keys of all of the block's
    tables are derived at once, its counters laid out in the block's own
    memory, mixed there with one scratch buffer and mapped to their values
    in place. With ``work``, a ``CauchyWork`` of n that holds the tables,
    the output is a view of its values; without, a new array, and each
    temporary holds at most max(FOLD_BLOCK, n) values whatever the row count.
    """
    rows = np.asarray(row_seeds, dtype=np.uint64)
    size = rows.shape[0] * families * n
    if work is None:
        work = CauchyWork(n, size)
    flat = work.values[:size]
    out = flat.reshape(rows.shape[0], families, n)
    if size == 0:  # no rows, no families (s' = k) or n = 0: no block to size
        return out
    step = FOLD_BLOCK // (families * n)  # whole rows per block
    if step:
        blocks = [(r, min(r + step, len(rows)), 0, families) for r in range(0, len(rows), step)]
    else:  # a row is longer than a block: one table at a time
        blocks = [(r, r + 1, j, j + 1) for r in range(len(rows)) for j in range(families)]
    for r0, r1, j0, j1 in blocks:
        block = flat[(r0 * families + j0) * n : ((r1 - 1) * families + j1) * n]
        z = block.view(np.uint64)  # the counters, then their steps, take the block's place
        keys = derive_key(rows[r0:r1, None], np.arange(j0, j1), 0x5A03)
        np.add(np.repeat(keys, n), work.offsets[: z.size], out=z)
        _mix64_into(z, work.scratch[: z.size])
        _cauchy(z, block)
        if j1 > max(j0, 1):  # the families clamped at omega
            truncated = out[r0:r1, max(j0, 1) : j1]
            np.minimum(truncated, omega, out=truncated)
            np.maximum(truncated, -omega, out=truncated)
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
