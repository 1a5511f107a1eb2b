"""Shared test plumbing: surface acceptance-criterion lines in the summary,
and keep one third-party deprecation from hiding hypothesis failures."""

import pytest

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
