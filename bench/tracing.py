"""In-memory spans around calls into the hwfib layers.

The benchmark records spans from its own files: ``hooked`` replaces a
function of an hwfib module with a wrapper that records a span, in every
hwfib module that binds the function by name (``from .hwgroup import
classify`` gives ``hwfib.cli`` its own binding), and restores the originals
on exit.  Nothing in the package changes.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator, Optional

# (module, attribute, span name).  Three hooks sit on private helpers of
# hwgroup because ``classify`` does holonomy, lattice and torsion in one pass
# without calling the public functions for them.  A hook whose attribute no
# longer exists is reported as missing and its span reads zero.
HOOKS = (
    ("hwfib.cli", "_dumps", "cli.emit"),
    ("hwfib.hwgroup", "candidate_to_json_dict", "cli.emit"),
    ("hwfib.hwgroup", "candidate_from_index", "hwgroup.decode"),
    ("hwfib.hwgroup", "candidate_from_json_dict", "hwgroup.decode"),
    ("hwfib.hwgroup", "classify", "hwgroup.classify"),
    ("hwfib.hwgroup", "_rep_units_raw", "hwgroup.holonomy"),
    ("hwfib.hwgroup", "_schreier_lattice", "hwgroup.lattice"),
    ("hwfib.hwgroup", "_torsion_exists", "hwgroup.torsion"),
    ("hwfib.epimorphism", "verify_main_theorem", "epimorphism.verify"),
    ("hwfib.epimorphism", "build_epimorphism", "epimorphism.build"),
    ("hwfib.fpgroup", "fibonacci_presentation", "fpgroup.presentation"),
    ("hwfib.fpgroup", "verify_relators", "fpgroup.relators"),
    ("hwfib.epimorphism", "symbolic_sequence", "epimorphism.sequence"),
    ("hwfib.epimorphism", "verify_periodicity", "epimorphism.periodicity"),
    ("hwfib.epimorphism", "verify_addrel", "epimorphism.addrel"),
    ("hwfib.fpgroup", "abelianization", "fpgroup.abelianization"),
    ("hwfib.exact", "smith_normal_form", "exact.snf"),
)

# Every span name: the CLI invocation itself plus one per hooked layer.
LAYERS = ("cli.main",) + tuple(dict.fromkeys(name for _, _, name in HOOKS))


def _relator_letters(presentation, images) -> int:
    return sum(len(r) for r in presentation.relators)


# Counts taken at a hook, from the arguments of the call.
COUNTERS = {"fpgroup.relators": ("fpgroup.relator_letters", _relator_letters)}


class Tracer:
    """Spans as ``[name, start, end, parent]``; parent is an index or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index][1] = start
            spans[index][2] = end

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[counter[0]] += counter[1](*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, inclusive seconds and self seconds, where
        self time is a span's duration minus the time its child spans
        cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"count": 0, "total_s": 0.0, "self_s": 0.0} for name in LAYERS}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[i]
        return out


@contextlib.contextmanager
def hooked(tracer: Tracer) -> Iterator[list[str]]:
    """Install every hook for the duration of the block; yields the hooks
    that could not be installed."""
    for module_name, _, _ in HOOKS:
        importlib.import_module(module_name)
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("hwfib") and m]
    patched: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for module_name, attr, name in HOOKS:
            original: Optional[Callable] = getattr(sys.modules[module_name], attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = tracer.wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
        yield missing
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
