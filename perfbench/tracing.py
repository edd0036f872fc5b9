"""Per-layer tracing by wrapping the library's public functions.

Every name bound to a traced function in any ``trimat`` module is replaced
by a wrapper, because callers look functions up in their own module's
namespace: ``reconstruct`` calls the binding in ``trimat.reconstruct``,
the CLI the one in ``trimat.cli``, and so on.  Modules are taken from
``sys.modules``, since the attribute ``trimat.reconstruct`` is the
function, not the submodule.

A span's self time is its duration minus the time covered by traced
calls made inside it.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from typing import Callable

#: (module, function) pairs reported per layer, in report order.
TRACED = (
    ("complexes", "validate_closed_surface"),
    ("intersection", "intersection_matrix"),
    ("intersection", "find_intersection_preserving_bijections"),
    ("intersection", "extend_to_simplicial"),
    ("intersection", "is_intersection_preserving"),
    ("reconstruct", "reconstruct"),
    ("reconstruct", "detect_exceptional"),
    ("cycles", "enumerate_realizations"),
    ("cycles", "classify_realization"),
    ("verification", "simplicial_automorphisms"),
    ("verification", "run_check"),
    ("cli", "main"),
)

CRITERIA = range(1, 8)

COUNTERS = (
    "intersection.find.maps_returned",
    "intersection.extend.extended",
    "intersection.extend.non_extendable",
)


def span_names() -> list[str]:
    names = []
    for module, func in TRACED:
        if (module, func) == ("verification", "run_check"):
            names += [f"verification.run_check.c{k}" for k in CRITERIA]
        else:
            names.append(f"{module}.{func}")
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["intersection.maps_examined_frac"] = "ratio"
    units["complexes.validate_per_extend"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def _trimat_modules():
    return [m for name, m in list(sys.modules.items()) if name == "trimat" or name.startswith("trimat.")]


class Tracer:
    """Install with ``with Tracer(clock) as t:``; read ``t.calls``,
    ``t.self_s``, ``t.total_s`` and ``t.counters`` afterwards."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self._children: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _after(self, name: str, result) -> None:
        if name == "intersection.find_intersection_preserving_bijections":
            self.counters["intersection.find.maps_returned"] += len(result)
        elif name == "intersection.extend_to_simplicial":
            kind = "extended" if type(result).__name__ == "Extended" else "non_extendable"
            self.counters[f"intersection.extend.{kind}"] += 1

    def _wrap(self, name: str, fn):
        children = self._children
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = f"{name}.c{args[0]}" if name == "verification.run_check" else name
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                self.calls[key] += 1
                self.total_s[key] += elapsed
                self.self_s[key] += elapsed - inner
            self._after(name, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = _trimat_modules()
        for module, func in TRACED:
            original = getattr(sys.modules.get(f"trimat.{module}"), func, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module}.{func}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def metrics(self, passes: int, scale: float, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics averaged over ``passes`` traced passes, with
        times multiplied by ``scale``."""
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] * scale / passes
            out[f"{name}.total_s"] = self.total_s[name] * scale / passes
        for name in COUNTERS:
            out[name] = self.counters[name] / passes
        extends = self.calls["intersection.extend_to_simplicial"]
        returned = self.counters["intersection.find.maps_returned"]
        out["intersection.maps_examined_frac"] = extends / returned if returned else 0.0
        validates = self.calls["complexes.validate_closed_surface"]
        out["complexes.validate_per_extend"] = validates / extends if extends else 0.0
        out["trace.overhead_frac"] = overhead_frac
        return out
