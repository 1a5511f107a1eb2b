"""Shared test plumbing: surface acceptance-criterion lines in the summary,
keep one third-party deprecation from hiding hypothesis failures, and
build the inputs that check production code exactly: banks of small-integer
tables and row seeds found by inverting the mixer."""

import numpy as np
import pytest

from indisketch import SketchBank

GOLDEN = 0x9E3779B97F4A7C15

CRITERION_LINES = []

# hypothesis's pytest_runtest_makereport hook touches mypy_extensions.TypedDict
# when that package is installed; under -W error its DeprecationWarning ends a
# failing property test in an INTERNALERROR that hides the falsifying example.
# A mark outranks the command line's -W error, an ini filter does not.
THIRD_PARTY_DEPRECATION = pytest.mark.filterwarnings(
    r"ignore:mypy_extensions\.TypedDict is deprecated:DeprecationWarning"
)


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(THIRD_PARTY_DEPRECATION)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def integer_bank(k, n, prefix, s_prime, coeff):
    """A ``SketchBank`` (a one-bank ``_BankRegistry``) over the masks
    ``prefix`` whose registry draws ``coeff`` (rows, k - s', n) as its
    rows' Cauchy tables (``substitute_tables``). With small-integer tables
    every sum is an integer; below 2^53 it is exact in float64 in any
    order, so the rows' values equal ``reference_sketch_value`` of their
    tables exactly."""
    bank = SketchBank(k, n, len(prefix), s_prime, prefix, repetitions=len(coeff), seed=0)
    substitute_tables(bank.registry, (len(prefix), s_prime), coeff)
    return bank


def substitute_tables(registry, key, coeff):
    """Make ``registry`` draw ``coeff`` (r, k - s', n) as the tables of the
    first r rows of group ``key`` and its own tables elsewhere, so that
    its production fold and evaluation run on them."""
    reps = registry.reps[key]
    tables = np.asarray(coeff, dtype=np.float64)
    tables = tables.reshape(len(tables), registry.k - key[1], registry.n)  # s' = k: no tables
    draw = registry.draw

    def drawing(at, b0, b1, q0, q1):
        if at != key:
            return draw(at, b0, b1, q0, q1)
        rows = (np.arange(b0, b1)[:, None] * reps + np.arange(q0, q1)).reshape(-1)
        if rows[-1] < len(tables):  # every row substituted: the tables themselves, never a copy
            return tables[rows[0] : rows[-1] + 1].reshape(b1 - b0, q1 - q0, *tables.shape[1:])
        drawn = draw(at, b0, b1, q0, q1)
        inside = rows < len(tables)
        drawn.reshape(-1, *tables.shape[1:])[inside] = tables[rows[inside]]
        return drawn

    registry.draw = drawing


def unmix64(z: int) -> int:
    """The inverse of the splitmix64 finalizer, which is a bijection of
    64-bit words: each xor-shift and each odd multiplier is undone in turn."""

    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return unshift(z, 30)


def row_seed(key: int, family: int) -> int:
    """A row seed whose family-``family`` Cauchy table is keyed by ``key``:
    derive_key(row_seed(key, j), j) == key mod 2^64."""
    return (unmix64(key % 2**64) - family - GOLDEN) % 2**64
