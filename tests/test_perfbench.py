"""The benchmark tracer still names functions the program has.

The span table of ``perfbench/spans.py`` is read as source, never
imported, so this test leaves the benchmark directory as it is.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Spans whose function the program no longer has; the tracer reports them
# ABSENT until the benchmark itself drops them.
STALE = {"moments.quad", "szego.build_szego_pair"}


def literal(name: str):
    """The literal value assigned to a module-level name in spans.py."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {SPANS.name}")


def test_entry_points_resolve():
    entry_points = literal("ENTRY_POINTS")
    absent = {
        span
        for span, (module, attr) in entry_points.items()
        if not hasattr(importlib.import_module(module), attr)
    }
    assert absent <= STALE, sorted(absent - STALE)
    assert "cli.main" in entry_points and "cli.main" not in absent


def test_laurent_methods_are_defined_on_the_class():
    module, cls_name = literal("LAURENT_CLASS")
    cls = getattr(importlib.import_module(module), cls_name)
    # the tracer wraps what the class itself defines, not what it inherits
    missing = sorted(
        span for span, attr in literal("LAURENT_METHODS").items() if attr not in vars(cls)
    )
    assert not missing, missing
