"""Record the operation gate's expectations from the current sources.

Usage, from the root of a checkout:

    python3 perfbench/record.py

Runs every invocation any seed can generate once and writes, for each, the
check count and verdict of every report to perfbench/expected.json. It was
run on the commit that defines the benchmark; later commits are judged
against that record, so do not re-run it to make a failing gate pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads
from child import run_pass

ROOT = Path(__file__).resolve().parent.parent


def record(cli, invocations, out_dir: Path) -> dict:
    """Expectations of each invocation, from one pass of the current code."""
    _, docs, _ = run_pass(cli, invocations, out_dir)
    table = {}
    for (key, _), doc in zip(invocations, docs):
        if doc is None or "error" in doc:
            raise RuntimeError(f"{key}: no error-free output to record")
        table[key] = workloads.expectations(doc)
    return table


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import circlejacobi.cli as cli

    expected: dict = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        for workload in workloads.WORKLOADS:
            table = expected[workload] = {}
            for seed in range(workloads.VARIANT_SEEDS):
                invocations = workloads.invocations(
                    workload, seed, workloads.SIZES[workload], Path(tmp) / "grid.json")
                todo = [inv for inv in invocations if inv[0] not in table]
                if todo:
                    table.update(record(cli, todo, Path(tmp)))
                    print(f"{workload}: {', '.join(k for k, _ in todo)}", flush=True)
    workloads.EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
