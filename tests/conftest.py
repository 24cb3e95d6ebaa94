import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from circlejacobi import JacobiParams, build_family

F = Fraction

# pyproject's pythonpath puts src/ on sys.path; the interpreters the CLI
# tests start read it from PYTHONPATH, so a fresh checkout runs them too
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])

# The six parameter points every cross-module check runs over: the
# single-moment point, the free point, the symmetric point, an integer
# pair, and two half-integer pairs straddling zero.
GRID = (
    (F(1, 2), F(-1, 2)),
    (F(-1, 2), F(-1, 2)),
    (F(0), F(0)),
    (F(1), F(2)),
    (F(3, 2), F(1, 2)),
    (F(-1, 2), F(3, 2)),
)

# A rational parameter in (-1, 3]: small denominators, or within 1/51 of
# the endpoint -1 where the weight is barely integrable.
PARAM = st.one_of(
    st.fractions(min_value=F(-11, 12), max_value=3, max_denominator=12),
    st.integers(min_value=51, max_value=500).map(lambda q: F(1, q) - 1),
)

# A Verblunsky coefficient: any rational strictly inside (-1, 1) with a
# small denominator, endpoints' neighbours included.
VERBLUNSKY_A = st.fractions(min_value=-1, max_value=1, max_denominator=50).filter(
    lambda v: abs(v) < 1
)


def verblunsky_lists(max_size: int):
    """Coefficient lists a_0..a_N, N + 1 between 1 and max_size."""
    return st.lists(VERBLUNSKY_A, min_size=1, max_size=max_size)


_cache: dict = {}

# One line per acceptance criterion, filled in by test_acceptance.py and
# echoed after the run so the verdicts survive pytest's output capture.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def family():
    """Memoized family builder shared by the whole session."""

    def get(alpha, beta, n):
        key = (F(alpha), F(beta), n)
        if key not in _cache:
            _cache[key] = build_family(JacobiParams(key[0], key[1]), n)
        return _cache[key]

    return get
