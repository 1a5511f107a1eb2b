"""Workload definitions, the seeded input generator and an independent oracle.

Every workload is a mixture(0.5) stream of k-tuples over [1, n]: each
record is diagonal ``(v, ..., v)`` with probability 1/2, otherwise its
coordinates are independent and uniform. That keeps the exact distance
near 0.47, so relative errors are meaningful. The generator here uses
numpy's PCG64, not the library's own synthetic generator, so producing
inputs never counts as program work; the program only receives the
record file it writes.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

EPSILON = 0.3
DELTA = 0.1
MIXTURE_RHO = 0.5
ORACLE_CALLS = 5          # reduction seeds the oracle calls cycle over
SYNTH_RECORDS = 2000      # generate_synthetic slice timed for cli.synth_rps
REPEAT_S = 1.0            # setup and exact jobs repeat their operation until this much CPU time


@dataclass(frozen=True)
class Workload:
    index: int  # mixed into the generator seed, so workloads differ at equal seeds
    k: int
    n: int
    m: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "long-stream": Workload(0, 2, 16, 500_000),
    "wide-domain": Workload(1, 2, 32, 100_000),
    "k3-deep": Workload(2, 3, 4, 100_000),
}

# Toy sizes for the smoke check: every route runs in about a second or less.
TOY = {
    "long-stream": Workload(0, 2, 4, 2000),
    "wide-domain": Workload(1, 2, 6, 300),
    "k3-deep": Workload(2, 3, 2, 300),
}


def load_library(root: str):
    """Import ``indisketch`` from ``<root>/src``; exit with a message when it is not there."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        import indisketch
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import indisketch from {src}: {e}") from None
    where = os.path.realpath(os.path.dirname(indisketch.__file__))
    if os.path.dirname(where) != os.path.realpath(src):
        raise SystemExit(f"perfbench: indisketch was imported from {where}, not from {src}")
    return indisketch


def generate(w: Workload, seed: int) -> np.ndarray:
    """The workload's records as an (m, k) int64 array, a function of ``seed``."""
    rng = np.random.default_rng([seed, w.index])
    diag = rng.random(w.m) < MIXTURE_RHO
    recs = rng.integers(1, w.n + 1, size=(w.m, w.k))
    recs[diag] = recs[diag][:, :1]
    return recs


def write_records(path: str, recs: np.ndarray) -> None:
    names = np.array([str(v) for v in range(int(recs.max()) + 1)], dtype=object)
    cols = names[recs]
    lines = cols[:, 0]
    for j in range(1, recs.shape[1]):
        lines = lines + "," + cols[:, j]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines.tolist()))
        fh.write("\n")


def dense_tensor(recs: np.ndarray, n: int) -> np.ndarray:
    """Independence tensor m^(k-1) f_i - prod_l f_l(i_l) as exact Python ints."""
    m, k = recs.shape
    flat = np.ravel_multi_index(tuple((recs - 1).T), (n,) * k)
    joint = np.bincount(flat, minlength=n**k).astype(object).reshape((n,) * k)
    margins = [np.bincount(recs[:, l] - 1, minlength=n).astype(object) for l in range(k)]
    return m ** (k - 1) * joint - reduce(np.multiply.outer, margins)


def exact_distance(tensor: np.ndarray, m: int, k: int) -> Fraction:
    return Fraction(int(np.abs(tensor).sum()), 2 * m**k)


def within_band(estimate: float, exact: float) -> bool:
    """The README's (epsilon, delta) contract band, as in acceptance criterion 11."""
    err = abs(estimate - exact)
    return err <= 0.05 if exact < 0.1 else err <= EPSILON * exact
