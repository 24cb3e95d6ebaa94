"""Span tracer that wraps circlejacobi entry points from outside the package.

Each entry point is looked up by module and attribute name, then replaced
by object identity in every loaded ``circlejacobi`` module, so a caller
that imported it under any name is traced wherever the suite wiring lives.
Nothing under ``src/`` is edited, and ``uninstall`` puts the originals back.

A span's layer is the text before its first dot. Its self time is its
duration minus the durations of the spans it directly contains, so the
self times of all spans add up to the duration of the root span,
``cli.main``. Busy time counts a span only when no span of the same name
(or, for a layer, of the same layer) is already open.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute)
ENTRY_POINTS = {
    "cli.main": ("circlejacobi.cli", "main"),
    "opuc.build_family": ("circlejacobi.opuc", "build_family"),
    "opuc.family_from_verblunsky": ("circlejacobi.opuc", "family_from_verblunsky"),
    "dunkl.verify_bispectral": ("circlejacobi.dunkl", "verify_bispectral"),
    "cmv.verify_reflection_rows": ("circlejacobi.cmv", "verify_reflection_rows"),
    "cmv.verify_gevp_and_five_term": ("circlejacobi.cmv", "verify_gevp_and_five_term"),
    "algebra.verify_representation_derivation": (
        "circlejacobi.algebra", "verify_representation_derivation"),
    "algebra.verify_relations_matrix": ("circlejacobi.algebra", "verify_relations_matrix"),
    "algebra.verify_relations_functional": (
        "circlejacobi.algebra", "verify_relations_functional"),
    "algebra.verify_central_extension": ("circlejacobi.algebra", "verify_central_extension"),
    "algebra.y_eigencheck": ("circlejacobi.algebra", "y_eigencheck"),
    "szego.build_szego_pair": ("circlejacobi.szego", "build_szego_pair"),
    "szego.verify_three_term": ("circlejacobi.szego", "verify_three_term"),
    "szego.verify_recurrence_closure": ("circlejacobi.szego", "verify_recurrence_closure"),
    "szego.verify_transforms": ("circlejacobi.szego", "verify_transforms"),
    "szego.verify_classical_match": ("circlejacobi.szego", "verify_classical_match"),
    "szego.verify_dep_and_pq_identity": ("circlejacobi.szego", "verify_dep_and_pq_identity"),
    "moments.orthogonality_check": ("circlejacobi.moments", "orthogonality_check"),
    "moments.verify_toeplitz_h": ("circlejacobi.moments", "verify_toeplitz_h"),
    "moments.verify_determinantal_match": (
        "circlejacobi.moments", "verify_determinantal_match"),
    "moments.quad": ("circlejacobi.moments", "gauss_jacobi_moment"),
}

# span name -> LaurentPoly attribute. Aliases such as __radd__ and __call__
# are the same function object, so they share the wrapper of their original.
LAURENT_METHODS = {
    "laurent.init": "__init__",
    "laurent.eq": "__eq__",
    "laurent.add": "__add__",
    "laurent.neg": "__neg__",
    "laurent.sub": "__sub__",
    "laurent.rsub": "__rsub__",
    "laurent.mul": "__mul__",
    "laurent.truediv": "__truediv__",
    "laurent.pow": "__pow__",
    "laurent.reflect": "reflect",
    "laurent.shift": "shift",
    "laurent.theta": "theta",
    "laurent.deriv": "deriv",
    "laurent.div_exact": "div_exact",
    "laurent.evaluate": "evaluate",
    "laurent.text": "text",
}
LAURENT_CLASS = ("circlejacobi.laurent", "LaurentPoly")


def package_modules() -> list:
    """Every loaded circlejacobi module."""
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "circlejacobi" or name.startswith("circlejacobi."))
    ]


class SpanStats:
    __slots__ = ("calls", "busy_s", "self_s", "checks", "open")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.checks = 0
        self.open = 0


class Tracer:
    """Per-span call counts, busy and self times, and report check counts."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.spans = {name: SpanStats() for name in [*entry_points, *LAURENT_METHODS]}
        self.layer_busy_s: Counter = Counter()
        self.absent: dict[str, str] = {}  # span -> the missing "module.attribute"
        self.families: list = []  # what the opuc spans returned
        self._open_layers: Counter = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._undo: list = []

    def _wrap(self, name: str, fn, keep_result: bool):
        stats = self.spans[name]
        layer = name.partition(".")[0]
        stack, open_layers, layer_busy = self._stack, self._open_layers, self.layer_busy_s
        families = self.families

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stats.open += 1
            open_layers[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.self_s += dt - frame[0]
                stats.open -= 1
                if not stats.open:
                    stats.busy_s += dt
                open_layers[layer] -= 1
                if not open_layers[layer]:
                    layer_busy[layer] += dt
            if keep_result:
                checks = getattr(result, "checks", None)
                if isinstance(checks, list):
                    stats.checks += len(checks)
                if layer == "opuc":
                    families.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owners, fn, wrapper) -> None:
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    setattr(owner, attr, wrapper)
                    self._undo.append((owner, attr, fn))

    def install(self) -> None:
        modules = package_modules()
        for name, (module, attr) in self.entry_points.items():
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                self.absent[name] = f"{module}.{attr}"
            else:
                self._replace(modules, fn, self._wrap(name, fn, keep_result=True))
        module, cls_name = LAURENT_CLASS
        cls = getattr(sys.modules.get(module), cls_name, None)
        for name, attr in LAURENT_METHODS.items():
            fn = vars(cls).get(attr) if cls is not None else None
            if fn is None:
                self.absent[name] = f"{module}.{cls_name}.{attr}"
            else:
                self._replace([cls], fn, self._wrap(name, fn, keep_result=False))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def layer_self_s(self) -> Counter:
        out: Counter = Counter()
        for name, stats in self.spans.items():
            out[name.partition(".")[0]] += stats.self_s
        return out

    def max_bits(self) -> int:
        """Largest numerator or denominator bit length in any traced family's phi."""
        best = 0
        for fam in {id(f): f for f in self.families}.values():
            for poly in getattr(fam, "phi", ()):
                for _, c in poly.items():
                    best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
        return best
