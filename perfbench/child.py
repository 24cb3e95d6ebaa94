"""One benchmark run of one workload, in-process and single-threaded.

Usage: python perfbench/child.py SPEC.json RESULT.json

SPEC names the checkout's src/ directory, the invocations of one pass, the
gate's expectations, the run length, whether to trace, and a scratch
directory. The child imports circlejacobi.cli from that src/ and calls
cli.main(argv) in a closed loop: each invocation starts when the previous
one has returned and its JSON output has been read back and judged.
During untraced passes the speed probe of speed.py runs reference units
between the program's bytecodes; their time is taken out of the pass time
and scales it to reference speed.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import workloads
from spans import Tracer, package_modules

VERIFY_SPANS = (
    "dunkl.verify_bispectral",
    "cmv.verify_reflection_rows",
    "cmv.verify_gevp_and_five_term",
    "algebra.verify_representation_derivation",
    "algebra.verify_relations_matrix",
    "algebra.verify_relations_functional",
    "algebra.verify_central_extension",
    "algebra.y_eigencheck",
    "szego.verify_three_term",
    "szego.verify_recurrence_closure",
    "szego.verify_transforms",
    "szego.verify_classical_match",
    "szego.verify_dep_and_pq_identity",
)
LAYERS = ("cli", "opuc", "dunkl", "cmv", "algebra", "szego", "moments", "laurent")


def fresh_state() -> None:
    """Drop what an earlier call left behind, as a new process would."""
    for module in package_modules():
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
    gc.collect()


def run_pass(cli, invocations, out_dir: Path, probe: speed.Probe | None = None):
    """Run every invocation once; return (cli.main seconds, docs, output bytes).

    A doc is None when the invocation wrote no parseable JSON. The reference
    units an armed `probe` runs inside a call are taken out of its seconds.
    """
    seconds = 0.0
    docs = []
    output_bytes = 0
    for i, (_, argv) in enumerate(invocations):
        out = out_dir / f"out-{i}.json"
        out.unlink(missing_ok=True)
        fresh_state()
        t0 = perf_counter()
        try:
            cli.main([*argv, "--format", "json", "--out", str(out)])
        except (Exception, SystemExit):
            traceback.print_exc()
        t1 = perf_counter()
        seconds += t1 - t0 - (sum(probe.between(t0, t1)) if probe else 0.0)
        try:
            text = out.read_text()
            output_bytes += len(text.encode())
            docs.append(json.loads(text))
        except (OSError, ValueError):
            docs.append(None)
    return seconds, docs, output_bytes


def probed_pass(cli, invocations, out_dir: Path):
    """One untraced pass with the speed probe armed.

    Return (cli.main seconds, the same scaled to reference speed, docs).
    """
    with speed.Probe() as probe:
        t0 = perf_counter()
        seconds, docs, _ = run_pass(cli, invocations, out_dir, probe)
        units = probe.between(t0, perf_counter())
    units += speed.unit_times(max(0, speed.MIN_UNITS - len(units)))
    return seconds, speed.scaled(seconds, units), docs


def gate(invocations, docs, expected) -> list[str]:
    failed = []
    for (key, _), doc in zip(invocations, docs):
        failed += workloads.judge(doc, expected[key])
    return failed


def count_checks(docs) -> int:
    return sum(r["indices_checked"] for d in docs if d for r in d.get("suite_results", []))


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict:
    """Per-layer figures of one traced pass."""
    spans = tracer.spans
    layer_self = tracer.layer_self_s()
    total = spans["cli.main"].busy_s
    m = {"trace.cli_main_s": total}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["laurent.share"] = layer_self["laurent"] / total if total else 0.0
    for op in ("mul", "add", "sub", "div_exact", "text"):
        m[f"laurent.{op}.calls"] = spans[f"laurent.{op}"].calls
    for op in ("div_exact", "text"):
        m[f"laurent.{op}.self_s"] = spans[f"laurent.{op}"].self_s
    for name in VERIFY_SPANS:
        m[f"{name}.busy_s"] = spans[name].busy_s
        m[f"{name}.checks"] = spans[name].checks
    m["szego.build_szego_pair.busy_s"] = spans["szego.build_szego_pair"].busy_s
    m["szego.build_szego_pair.calls"] = spans["szego.build_szego_pair"].calls
    for layer in ("opuc", "szego", "algebra", "moments"):
        m[f"{layer}.busy_s"] = tracer.layer_busy_s[layer]
    m["opuc.max_bits"] = tracer.max_bits()
    m["moments.quad.calls"] = spans["moments.quad"].calls
    m["moments.quad.busy_s"] = spans["moments.quad"].busy_s
    m["cli.output_bytes"] = output_bytes
    return m


def traced_pass(cli, invocations, out_dir: Path):
    """One pass with every span installed; return (docs, metrics, absent spans)."""
    tracer = Tracer()
    tracer.install()
    try:
        _, docs, output_bytes = run_pass(cli, invocations, out_dir)
    finally:
        tracer.uninstall()
    return docs, layer_metrics(tracer, output_bytes), tracer.absent


def measure(cli, invocations, expected, seconds: float, out_dir: Path, trace: bool) -> dict:
    """Repeat passes until the next one would end after `seconds`.

    With trace, each round is an untraced pass followed by a traced one.
    """
    wall, untraced, traced, failed = [], [], [], []
    absent: dict = {}
    rounds = 0
    start = perf_counter()
    while True:
        t_round = perf_counter()
        s, scaled_s, docs = probed_pass(cli, invocations, out_dir)
        wall.append(s)
        untraced.append(scaled_s)
        failed += gate(invocations, docs, expected)
        checks = count_checks(docs)
        if trace:
            docs, metrics, absent = traced_pass(cli, invocations, out_dir)
            traced.append(metrics)
            failed += gate(invocations, docs, expected)
        rounds += 1
        now = perf_counter()
        if now - start + (now - t_round) > seconds:
            break
    passes = rounds * (2 if trace else 1)
    result = {
        "passes": passes,
        "verify_s": untraced,
        "wall_s": wall,
        "checks": checks,
        "attempted": passes * sum(len(expected[k]) for k, _ in invocations),
        "failed": failed,
    }
    if trace:
        result["traced"] = traced
        result["absent"] = absent
    return result


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    import circlejacobi.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"circlejacobi was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = measure(
        cli,
        [tuple(inv) for inv in spec["invocations"]],
        spec["expected"],
        spec["seconds"],
        Path(spec["out_dir"]),
        spec["trace"],
    )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
