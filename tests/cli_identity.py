"""Compare the CLI output of two source trees, invocation by invocation.

Usage:

    python3 tests/cli_identity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src/`` directories, each holding the
``circlejacobi`` package.  Every invocation of ``INVOCATIONS`` runs once
per tree, as ``python -m circlejacobi.cli ...`` in a fresh interpreter
with that tree first on ``PYTHONPATH``.  An invocation that names the
file ``OUT`` writes it with ``--out``; each tree gets its own temporary
file there, and its bytes are compared as a fourth stream.  Each
difference in stdout, stderr, exit status or the ``--out`` file is
printed, with the first line where the two outputs part.  The exit
status is 1 if any invocation differs, else 0.

This is a script, not a test: a change that claims byte-identical output
runs it against a checkout of its parent.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GRID_FILE = str(Path(__file__).resolve().parent / "golden" / "grid.json")
OFF_GRID = ["--alpha", "3/7", "--beta", "-2/5"]
FORMATS = ("text", "json", "csv")
OUT = "{out}"  # replaced by a temporary file of each tree's own
# the benchmark's off-grid points other than OFF_GRID
BENCH_POINTS = (("5/7", "-2/5"), ("-2/7", "3/5"), ("10/7", "-1/5"), ("4/7", "2/5"),
                ("5/7", "2/5"), ("9/7", "2/5"), ("3/7", "1/5"))
# alpha + beta = -1, where jacobi_u takes its cancelled k = 1 form (the Q
# chain's oracle at (alpha + 1, beta + 1) then has alpha + beta = 1); integer
# parameters; alpha = beta over one denominator; unequal denominators near -1
EDGE_POINTS = (("-3/4", "-1/4"), ("2", "5"), ("1/3", "1/3"), ("-9/10", "7/3"))


def _invocations() -> list[list[str]]:
    runs = []
    # the algebra's matrix size, max(7, min(n + 1, 21)), is even at 7 and
    # 11, where M1's last block is cut, and odd at 16 and 40, where M2's is
    for n in (7, 11, 16, 40):
        runs += [["verify", "--grid-file", GRID_FILE, "--n", str(n), "--format", fmt]
                 for fmt in FORMATS]
    for n in (*range(3, 10), 21, 160):
        runs += [["verify", *OFF_GRID, "--n", str(n), "--format", fmt] for fmt in FORMATS]
    for n in (80, 81):
        for k in (0, 1, n // 2, n - 1):
            runs.append(["verify", *OFF_GRID, "--n", str(n), "--corrupt-a", str(k),
                         "--format", "json"])
        runs.append(["verify", *OFF_GRID, "--n", str(n), "--corrupt-a", "1",
                     "--suite", "algebra", "--format", "text"])
    # the algebra suite alone at both cuts and at its size cap, and
    # corrupted a_k whose psi rows its central extension reads or passes
    for n in (7, 11, 40):
        runs += [["verify", "--grid-file", GRID_FILE, "--n", str(n), "--suite", "algebra",
                  "--format", fmt] for fmt in FORMATS]
    runs += [["verify", *OFF_GRID, "--n", "40", "--corrupt-a", str(k), "--suite", "algebra",
              "--format", fmt] for k in (3, 17) for fmt in FORMATS]
    # the Szego suite's reach at n = 16 is a_14: inside it, and past it
    runs += [["verify", *OFF_GRID, "--n", "16", "--corrupt-a", str(k), "--suite", "szego",
              "--format", fmt] for k in (1, 14) for fmt in FORMATS]
    runs.append(["verify", *OFF_GRID, "--n", "16", "--corrupt-a", "15", "--suite", "szego"])
    # the reflection blocks' lower rows and the even psi(P,Q) rows, formed
    # from other residuals, under a corrupted a_k at an upper row of M1
    # (odd k), of M2 (even k), and at k = n - 1 (past the Szego reach at
    # n = 16), at both parities of the truncation size n + 1
    runs += [["verify", *OFF_GRID, "--n", str(n), "--corrupt-a", str(k), "--suite", suite,
              "--format", "json"]
             for n in (16, 17) for k in (5, 8, n - 1) for suite in ("cmv", "szego")]
    # the moments suite alone, and corrupted a_k inside its reach past a_1
    for n in (5, 12):
        runs += [["verify", "--grid-file", GRID_FILE, "--n", str(n), "--suite", "moments",
                  "--format", fmt] for fmt in FORMATS]
    for n in (12, 20):
        runs += [["verify", *OFF_GRID, "--n", str(n), "--corrupt-a", str(k), "--suite",
                  "moments", "--format", fmt] for k in (5, 11) for fmt in FORMATS]
    for command in ("gen", "moments"):
        runs += [[command, *OFF_GRID, "--n", "21", "--format", fmt] for fmt in FORMATS]
    # the spectrum's matrix size is n: odd at 9, even at 10
    runs += [["spectrum", *OFF_GRID, "--n", str(n), "--matrix", m]
             for n in (9, 10) for m in ("c", "m1", "m2")]
    runs += [["spectrum", *OFF_GRID, "--n", "10", "--format", fmt] for fmt in FORMATS[1:]]
    # the benchmark's shapes, written with --out as the benchmark writes them
    bench = ["--format", "json", "--out", OUT]
    runs += [["verify", "--grid-file", GRID_FILE, "--n", "40", "--suite", "all", *bench],
             ["verify", *OFF_GRID, "--n", "160", "--suite", "all", *bench]]
    runs += [["verify", *OFF_GRID, "--n", "80", "--corrupt-a", "2", "--suite", suite, *bench]
             for suite in ("bispectral", "cmv", "algebra", "szego")]
    # the benchmark's other off-grid points, whose denominators 7 and 5
    # meet other prime factors in the integer kernels
    runs += [["verify", "--alpha", a, "--beta", b, "--n", "160", "--suite", "all", *bench]
             for a, b in BENCH_POINTS]
    runs += [["verify", "--alpha", a, "--beta", b, "--n", "80", "--corrupt-a", "3", "--suite",
              "algebra", *bench] for a, b in (("10/7", "-1/5"), ("-2/7", "3/5"))]
    # and the benchmark's traffic in every format
    runs += [["verify", *OFF_GRID, "--n", "160", "--suite", "all", "--format", fmt]
             for fmt in FORMATS]
    runs += [["verify", *OFF_GRID, "--n", "80", "--corrupt-a", "1", "--suite", suite,
              "--format", fmt] for suite in ("bispectral", "cmv", "algebra", "szego")
             for fmt in FORMATS]
    # the closed forms' edge cases: every suite, a corrupted a_k, and the a_k
    for a, b in EDGE_POINTS:
        point = ["--alpha", a, "--beta", b]
        runs += [["verify", *point, "--n", "16", "--suite", "all", *bench],
                 ["verify", *point, "--n", "12", "--corrupt-a", "3", "--format", "text"],
                 ["gen", *point, "--n", "9", "--format", "text"]]
    # the smallest families and CMV matrices
    runs += [["spectrum", *OFF_GRID, "--n", str(n), "--matrix", "c"] for n in (1, 2)]
    runs += [["gen", *OFF_GRID, "--n", str(n), "--format", fmt] for n in (1, 2) for fmt in FORMATS]
    # the help text of the program and of every subcommand
    runs += [["--help"], *([command, "--help"] for command in ("gen", "verify", "spectrum",
                                                               "moments"))]
    # exit status 2: bad usage, caught before any verification
    runs += [
        ["verify", "--alpha", "1/2", "--n", "8"],
        ["verify", "--alpha", "0.5", "--beta", "0", "--n", "8"],
        ["verify", "--alpha", "-1", "--beta", "0", "--n", "8"],
        ["verify", "--alpha", "0", "--beta", "0", "--n", "0"],
        ["verify", *OFF_GRID, "--n", "8", "--corrupt-a", "9"],
        ["verify", *OFF_GRID, "--n", "8", "--suite", "nosuch"],
        ["verify", "--grid-file", os.devnull, "--n", "8"],
        ["gen", "--alpha", "0", "--beta", "-3/2", "--n", "4"],
    ]
    # every usage error that a command finds itself: a missing parameter,
    # each --n floor, an unwritable --out, a point out of range, and a
    # corruption out of range
    runs += [[command, "--alpha", "1/2", "--n", "8"] for command in ("gen", "spectrum", "moments")]
    runs += [[command, *OFF_GRID, "--n", n] for command, n in
             (("gen", "0"), ("spectrum", "0"), ("moments", "-1"), ("verify", "2"))]
    runs += [[command, *OFF_GRID, "--n", "4", "--out", "/nonexistent/x"]
             for command in ("gen", "verify", "spectrum", "moments")]
    runs += [[command, "--alpha", "-1", "--beta", "0", "--n", "4"]
             for command in ("spectrum", "moments")]
    runs += [["verify", *OFF_GRID, "--n", "8", "--corrupt-a", "-1"],
             ["verify", "--alpha", "-99/100", "--beta", "100", "--n", "8", "--corrupt-a", "0"]]
    return runs


INVOCATIONS = _invocations()


def run(src: str, argv: list[str]) -> tuple[str, str, int, bytes | None]:
    """(stdout, stderr, exit status, --out file or None) of the CLI from
    the tree src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "circlejacobi.cli",
             *(str(out) if arg == OUT else arg for arg in argv)],
            capture_output=True, text=True, env=env)
        written = out.read_bytes() if out.exists() else None
    return proc.stdout, proc.stderr, proc.returncode, written


def _first_difference(old: str | bytes, new: str | bytes) -> str:
    if isinstance(old, bytes):
        old, new = old.decode(errors="replace"), new.decode(errors="replace")
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for i, (a, b) in enumerate(zip(old_lines, new_lines)):
        if a != b:
            return f"line {i + 1}:\n    old: {a[:200]}\n    new: {b[:200]}"
    return f"lengths differ: {len(old_lines)} vs {len(new_lines)} lines"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    differing = 0
    for cli_argv in INVOCATIONS:
        old, new = run(args.old_src, cli_argv), run(args.new_src, cli_argv)
        streams = ("stdout", "stderr", "exit", "--out")
        diffs = [(name, a, b) for name, a, b in zip(streams, old, new) if a != b]
        if diffs:
            differing += 1
            print("DIFFERS:", " ".join(cli_argv))
            for name, a, b in diffs:
                if name == "exit" or None in (a, b):
                    detail = f"{a} vs {b}"
                else:
                    detail = _first_difference(a, b)
                print(f"  {name}: {detail}")
    print(f"{len(INVOCATIONS)} invocations, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
