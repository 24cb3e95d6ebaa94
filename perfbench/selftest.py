"""Self-test of the benchmark harness; takes well under a minute.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For each workload at n = 8 it records expectations from one pass, then
checks that the gate passes, that two traced passes give identical counts
(*.calls, *.checks, opuc.max_bits), that span self times add up to the
traced cli.main time, and that a forced wrong expectation is counted as a
failed operation. It checks that a missing entry point is reported absent,
that the speed probe runs reference units while armed and only then,
and, last, that one short run.py call per mode emits exactly the metrics
BENCHMARK.json lists, with self times that add up.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed
import workloads
from child import LAYERS, gate, layer_metrics, run_pass, traced_pass
from record import record
from spans import ENTRY_POINTS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALL_N = 8


def expect(condition: bool, what) -> None:
    if not condition:
        raise AssertionError(what)


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".checks")) or name == "opuc.max_bits"


def check_workload(cli, workload: str, seed: int, tmp: Path) -> None:
    invocations = workloads.invocations(workload, seed, SMALL_N, tmp / "grid.json")
    expected = record(cli, invocations, tmp)
    attempted = sum(len(ops) for ops in expected.values())
    expect(attempted > 0, workload)

    docs, first, absent = traced_pass(cli, invocations, tmp)
    expect(not absent, absent)
    expect(gate(invocations, docs, expected) == [], workload)
    docs, second, _ = traced_pass(cli, invocations, tmp)
    counts = {k: v for k, v in first.items() if is_count(k)}
    expect(counts == {k: v for k, v in second.items() if is_count(k)}, workload)
    expect(first["opuc.max_bits"] > 0 and first["laurent.mul.calls"] > 0, workload)

    layer_sum = sum(first[f"{layer}.self_s"] for layer in LAYERS)
    expect(abs(layer_sum - first["trace.cli_main_s"]) <= 1e-9 * max(1.0, layer_sum),
           (workload, layer_sum, first["trace.cli_main_s"]))

    key = next(iter(expected))
    op = next(iter(expected[key]))
    for wrong in ([expected[key][op][0] + 1, expected[key][op][1]],
                  [expected[key][op][0], "pass" if expected[key][op][1] == "fail" else "fail"]):
        forced = {k: {o: (wrong if (k, o) == (key, op) else v) for o, v in ops.items()}
                  for k, ops in expected.items()}
        failed = gate(invocations, docs, forced)
        expect(len(failed) == 1 and failed[0].startswith(op), failed)
    print(f"ok {workload} n={SMALL_N}: {attempted} operations, "
          f"{first['laurent.mul.calls']} mul calls, max {first['opuc.max_bits']} bits")


def check_absent(cli, tmp: Path) -> None:
    points = {**ENTRY_POINTS, "moments.gone": ("circlejacobi.moments", "no_such_function")}
    tracer = Tracer(entry_points=points)
    tracer.install()
    try:
        invocations = workloads.invocations("height-160", 0, SMALL_N, tmp / "grid.json")
        run_pass(cli, invocations, tmp)
    finally:
        tracer.uninstall()
    expect(tracer.absent == {"moments.gone": "circlejacobi.moments.no_such_function"},
           tracer.absent)
    expect(layer_metrics(tracer, 0)["moments.quad.calls"] > 0, "moments.quad not traced")
    print("ok a missing entry point is reported absent")


def check_probe() -> None:
    """The speed probe runs units while armed, and only then."""
    with speed.Probe() as probe:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.5:
            pass
        t1 = perf_counter()
    units = probe.between(t0, t1)
    expect(len(units) >= 3 and all(s > 0 for s in units), units)
    count = len(probe.units)
    t2 = perf_counter()
    while perf_counter() - t2 < 0.3:
        pass
    expect(len(probe.units) == count, "the probe ran after it was disarmed")
    expect(speed.scaled(1.0, [speed.REFERENCE_UNIT_S]) == 1.0, "scale")
    print(f"ok the speed probe ran {len(units)} units in 0.5 s")


def check_contract() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "grid-40", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        expect(result["correct"] and result["failed"] == 0, result)
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == want, set(got) ^ set(want))
        if trace:
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
            expect(abs(layer_sum - metrics["trace.cli_main_s"]) <= 1e-9 * layer_sum,
                   "reported self times do not add up to trace.cli_main_s")
        print(f"ok run.py --trace {trace} emits the {section} metrics")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import circlejacobi.cli as cli

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        for workload in workloads.WORKLOADS:
            check_workload(cli, workload, 0, Path(tmp))
        check_absent(cli, Path(tmp))
    check_probe()
    check_contract()
    return 0


if __name__ == "__main__":
    sys.exit(main())
