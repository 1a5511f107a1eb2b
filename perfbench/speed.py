"""Host-speed gauge: CPU times in seconds of a fixed-speed host.

On a shared virtual machine the same work takes up to twice the CPU time
while other tenants load the physical core (a hyperthread sibling or the
shared caches). The host toggles between such states every few seconds,
and the share of time it spends slow moves from minute to minute, so
medians of raw CPU time move with it. Instead, a fixed unit of reference
work, a mix of the interpreter work (string splitting, int parsing,
counting), cached numpy array passes and strided reads from memory, the
kinds of work the library does, is timed around each operation (and, for
a long one, during it), on the same core, and the operation's CPU time
is scaled by ``REFERENCE_S`` over the mean of
those timings. The result reads in seconds of a host on which the
reference work takes ``REFERENCE_S``; the reference never changes with
the library, so a slower or faster library shows in full.
"""

from __future__ import annotations

from time import perf_counter, process_time

import numpy as np

# CPU seconds of one reference() on a quiet core of a 2-core x86_64 Xeon
# virtual machine (its 10th percentile there); any constant works, it
# only sets the scale.
REFERENCE_S = 0.011

# Preallocated, so the reference never waits on page faults, whose cost
# depends on the allocator's state in the process that calls it.
_LINES = [f"{i % 97},{i % 89}" for i in range(9_000)]
_COUNTS = [0] * (97 * 89)
_ARRAY = np.arange(1 << 18, dtype=np.int64)
# 32 MB, larger than the caches: strided column reads as the bank updates do.
_WIDE = np.random.default_rng(0).random((1 << 20, 4))
_COLUMN = np.empty(1 << 20)
_SUM = np.zeros(1 << 20)


def reference() -> float:
    """CPU seconds taken by one fixed unit of reference work.

    About half of it is interpreter work and passes over a cached array,
    half is streaming from memory: the two kinds of work slow down
    differently under contention, and the library's routes mix them.
    """
    c0 = process_time()
    counts = _COUNTS
    for line in _LINES:
        a, b = line.split(",")
        counts[int(a) * 89 + int(b)] += 1
    for _ in range(4):
        np.multiply(_ARRAY, 3, out=_ARRAY)
        np.bitwise_and(_ARRAY, 0xFFFF, out=_ARRAY)
    np.multiply(_WIDE[:, 1], _WIDE[:, 2], out=_COLUMN)
    np.add(_SUM, _COLUMN, out=_SUM)
    return process_time() - c0


reference()  # warm-up: first-call costs are not the host's speed


def scale(refs) -> float:
    """Factor from CPU seconds here to seconds of the reference host.

    The mean, not the median, of reference timings spread over an
    operation: its CPU time adds up the time it spent at each speed.
    """
    return REFERENCE_S * len(refs) / sum(refs)


def timed(fn):
    """Run ``fn()``; return its result, its CPU seconds and its wall seconds."""
    t0, c0 = perf_counter(), process_time()
    result = fn()
    return result, process_time() - c0, perf_counter() - t0
