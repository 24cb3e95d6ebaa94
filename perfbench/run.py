"""Benchmark of `circlejacobi verify`: time to verdict, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-40 --seed 0 --seconds 36 --trace 0

Each run starts fresh interpreters that import circlejacobi.cli (set-up
time) and one child process that calls cli.main in-process for the
workload's invocations, in a closed loop for about --seconds seconds (see
child.py). With --trace 0 the result carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced pass (spans.py).
verify_s and setup_s are wall times scaled to reference speed by a fixed
kernel timed alongside them (speed.py), so that a slower host does not
read as a slower program. Every report is judged against expected.json,
recorded from the baseline commit by record.py. The last line of standard output is the JSON result; the
lines before it are a table of the same metrics, with absent spans named.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from child import LAYERS, VERIFY_SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-tmp"
CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 8
IMPORTTIME_SAMPLES = 3

END_TO_END = {
    "verify_s": "s",
    "checks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {"trace.cli_main_s": "s", "trace.overhead_ratio": "ratio"}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["laurent.share"] = "share"
    units.update({f"laurent.{op}.calls": "count" for op in ("mul", "add", "sub", "div_exact", "text")})
    units.update({"laurent.div_exact.self_s": "s", "laurent.text.self_s": "s"})
    for name in VERIFY_SPANS:
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.checks"] = "count"
    units.update({"szego.build_szego_pair.busy_s": "s", "szego.build_szego_pair.calls": "count"})
    units.update({f"{layer}.busy_s": "s" for layer in ("opuc", "szego", "algebra", "moments")})
    units.update({"opuc.max_bits": "bits", "moments.quad.calls": "count", "moments.quad.busy_s": "s"})
    units["cli.output_bytes"] = "bytes"
    units.update({f"setup.{pkg}_s": "s" for pkg in ("numpy", "scipy", "circlejacobi")})
    units["failed_op_share"] = "share"
    return units


PER_LAYER = per_layer_units()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # verify never calls BLAS; pin its pools anyway so each run is one thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        check=True, **kwargs,
    )


# Times the import in a fresh interpreter and scales it to reference speed
# with reference units run just before and just after it (see speed.py).
IMPORT_TIMER = (
    "import sys, time; sys.path.append(sys.argv[1]); import speed; "
    "before = speed.unit_times(10); t = time.perf_counter(); import circlejacobi.cli; "
    "d = time.perf_counter() - t; print(speed.scaled(d, before + speed.unit_times(10)))"
)


def setup_samples(count: int) -> list[float]:
    """Seconds at reference speed to import circlejacobi.cli, each in a fresh interpreter."""
    return [
        float(python(["-c", IMPORT_TIMER, str(HERE)], capture_output=True, text=True).stdout)
        for _ in range(count)
    ]


def import_groups(report: str) -> dict:
    """Seconds of `-X importtime` self time per package.

    A module's self time goes to numpy or scipy when it or one of its
    importers belongs to them, the outermost one deciding, so the figure for
    scipy includes the numpy submodules only scipy pulls in. Otherwise it
    goes to circlejacobi when it or an importer belongs to circlejacobi; the
    rest (interpreter start-up) is dropped.
    """
    rows = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, _, name = line.split("|")
        self_us = int(head.split(":")[1])
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), self_us))
    totals = dict.fromkeys(("numpy", "scipy", "circlejacobi"), 0.0)
    owners: list = []  # owner group at each depth, importers first
    for depth, name, self_us in reversed(rows):  # importers before what they import
        del owners[depth:]
        pkg = name.split(".")[0]
        parent = owners[-1] if owners else None
        owner = parent if parent in ("numpy", "scipy") or pkg not in totals else pkg
        owners.append(owner)
        if owner:
            totals[owner] += self_us / 1e6
    return totals


def setup_layers() -> dict:
    samples = [
        import_groups(python(["-X", "importtime", "-c", "import circlejacobi.cli"],
                             capture_output=True, text=True).stderr)
        for _ in range(IMPORTTIME_SAMPLES)
    ]
    return {f"setup.{pkg}_s": statistics.median(s[pkg] for s in samples) for pkg in samples[0]}


def run_child(spec: dict, work: Path) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    python([str(HERE / "child.py"), str(spec_path), str(result_path)])
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "circlejacobi" / "cli.py").is_file():
        print(f"perfbench: no circlejacobi sources under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        invocations = workloads.invocations(
            args.workload, args.seed, workloads.SIZES[args.workload], work / "grid.json")
        recorded = workloads.load_expected(args.workload)
        expected = {key: recorded[key] for key, _ in invocations}
        (work / "out").mkdir()
        spec = {
            "src": str(SRC),
            "invocations": invocations,
            "expected": expected,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "out_dir": str(work / "out"),
        }
        python(["-c", "import circlejacobi.cli"])  # writes bytecode caches; not timed
        if args.trace:
            import_layers = setup_layers()
            res = run_child(spec, work)
        else:
            # Host speed drifts over tens of seconds, so half the set-up
            # samples are taken before the workload child and half after.
            setup_times = setup_samples(SETUP_SAMPLES // 2)
            res = run_child(spec, work)
            setup_times += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    attempted, failed = res["attempted"], len(res["failed"])
    for reason in res["failed"][:20]:
        print(f"failed operation: {reason}", file=sys.stderr)
    notes = {"failed_op_share": f"{failed} of {attempted} operations"}
    if args.trace:
        # All figures come from the traced pass of median length, so that
        # the layers' self times still add up to its cli.main time.
        traced = sorted(res["traced"], key=lambda t: t["trace.cli_main_s"])
        values = dict(traced[(len(traced) - 1) // 2])
        values.update(import_layers)
        untraced_s = statistics.median(res["wall_s"])
        values["trace.overhead_ratio"] = values["trace.cli_main_s"] / untraced_s - 1
        values["failed_op_share"] = failed / attempted
        units = PER_LAYER
        for span, missing in res["absent"].items():
            for name in units:
                if name == span or name.startswith(span + "."):
                    notes[name] = f"ABSENT: {missing} not found"
    else:
        verify_s = statistics.median(res["verify_s"])
        values = {
            "verify_s": verify_s,
            "checks_per_s": res["checks"] / verify_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
        passes = ", ".join(f"{s:.4g}" for s in res["verify_s"])
        wall = ", ".join(f"{s:.4g}" for s in res["wall_s"])
        notes["verify_s"] = (f"median of {res['passes']} passes: {passes} s; "
                             f"unscaled wall time {wall} s")

    print(f"{args.workload} seed={args.seed}: {res['passes']} passes, "
          f"{attempted} operations, {failed} failed")
    if not args.trace:
        print(f"  failed_op_share = {failed / attempted:.6g} share")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {values[name]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
