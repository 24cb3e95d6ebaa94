"""Workload definitions and the operation gate of the verify benchmark.

A workload is a list of CLI invocations, each a ``(key, argv)`` pair. The
key names the invocation without any temporary path, so the expectations
recorded from the baseline commit can be looked up by it. An operation is one
verification report: one identity at one parameter point.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("grid-40", "height-160", "negative-control")
SIZES = {"grid-40": 40, "height-160": 160, "negative-control": 80}

# The six-point acceptance grid of tests/conftest.py.
GRID = (
    ("1/2", "-1/2"),
    ("-1/2", "-1/2"),
    ("0", "0"),
    ("1", "2"),
    ("3/2", "1/2"),
    ("-1/2", "3/2"),
)

# Off-grid points for height-160 and negative-control; seed 0 picks the
# first. All have denominators 7 and 5, a phi_160 height of 542-553 bits
# and a total phi_160 bit size within 2 % of (3/7, -2/5), so the seed moves
# the cost of a run little while still changing every coefficient. Points
# whose moments suite stops with QuadratureUnconverged on the baseline commit,
# such as (-1/7, -2/5), are left out so that no operation fails.
OFF_GRID = (
    ("3/7", "-2/5"),
    ("5/7", "-2/5"),
    ("-2/7", "3/5"),
    ("10/7", "-1/5"),
    ("4/7", "2/5"),
    ("5/7", "2/5"),
    ("9/7", "2/5"),
    ("3/7", "1/5"),
)

# Corrupting a_1, a_2 or a_3 at n = 80 fails 386-397 of 1810 checks.
CORRUPT_INDICES = (1, 2, 3)

# `--suite moments --corrupt-a K` reports an error on the baseline commit (the
# corrupted family is one index short), so the negative control leaves the
# moments suite out.
NEGATIVE_SUITES = ("bispectral", "cmv", "algebra", "szego")

# Seeds 0 .. VARIANT_SEEDS-1 reach every (point, corrupted index) pair,
# because the two tuple lengths are coprime.
VARIANT_SEEDS = len(OFF_GRID) * len(CORRUPT_INDICES)


def off_grid_choice(seed: int) -> tuple[tuple[str, str], int]:
    """The off-grid point and the corrupted Verblunsky index a seed picks."""
    return OFF_GRID[seed % len(OFF_GRID)], CORRUPT_INDICES[seed % len(CORRUPT_INDICES)]


def invocations(workload: str, seed: int, n: int, grid_file: Path) -> list:
    """One pass of a workload as [(key, argv)]; grid-40 writes its grid file."""
    if workload == "grid-40":
        grid = list(GRID)
        random.Random(seed).shuffle(grid)
        grid_file.write_text(json.dumps(grid))
        argv = ["verify", "--grid-file", str(grid_file), "--n", str(n), "--suite", "all"]
        return [(f"grid n={n}", argv)]
    (alpha, beta), k = off_grid_choice(seed)
    point = ["--alpha", alpha, "--beta", beta, "--n", str(n)]
    if workload == "height-160":
        return [(f"{alpha},{beta} n={n}", ["verify", *point, "--suite", "all"])]
    if workload == "negative-control":
        return [
            (f"{alpha},{beta} n={n} a_{k} {suite}",
             ["verify", *point, "--corrupt-a", str(k), "--suite", suite])
            for suite in NEGATIVE_SUITES
        ]
    raise ValueError(f"unknown workload {workload!r}")


def operations(doc: dict) -> dict:
    """Map each report of a `verify --format json` document to its operation key.

    Reports that carry no alpha/beta (the moment reports on the baseline commit)
    belong to the point of the report before them. Only keys the baseline commit
    emits are read.
    """
    ops = {}
    seen: Counter = Counter()
    point = "?"
    for report in doc.get("suite_results", []):
        params = report.get("params", {})
        if "alpha" in params and "beta" in params:
            point = f"{params['alpha']},{params['beta']}"
        base = f"{point} {report['identity']}"
        ops[f"{base} #{seen[base]}" if seen[base] else base] = report
        seen[base] += 1
    return ops


def expectations(doc: dict) -> dict:
    """The gate's record of one invocation: operation -> [checks, verdict]."""
    return {k: [r["indices_checked"], r["status"]] for k, r in operations(doc).items()}


def judge(doc: dict | None, expected: dict) -> list[str]:
    """Return one reason per failed operation of one invocation.

    An operation fails when its report is missing, the CLI reported an
    error, it checked fewer indices than recorded, its verdict differs from
    the recorded one, or one of its failing checks has an empty residual.
    Reports the record does not name (added identities) are ignored.
    """
    if doc is None or "error" in doc or doc.get("summary", {}).get("status") == "error":
        why = "no output" if doc is None else f"cli error: {doc.get('error', 'status error')}"
        return [f"{key}: {why}" for key in expected]
    ops = operations(doc)
    failed = []
    for key, (checks, verdict) in expected.items():
        report = ops.get(key)
        if report is None:
            failed.append(f"{key}: report missing")
        elif report["indices_checked"] < checks:
            failed.append(f"{key}: {report['indices_checked']} checks < {checks}")
        elif report["status"] != verdict:
            failed.append(f"{key}: verdict {report['status']} != {verdict}")
        elif any(not f.get("detail") for f in report.get("failures", [])):
            failed.append(f"{key}: failing check with an empty residual")
    return failed


def load_expected(workload: str) -> dict:
    return json.loads(EXPECTED_FILE.read_text())[workload]
