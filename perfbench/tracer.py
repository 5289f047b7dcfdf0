"""Span tracer that instruments the rabi package from outside its source.

:func:`install` replaces every public function of the seven rabi modules,
at each module attribute where rabi code looks it up (the defining module
and every module that bound it with ``from ... import``), by a wrapper that
records a span.  ``SpectrumTable.from_records`` is wrapped on its class.

A span is (name, start, end, parent, request).  A span's self time is its
duration minus the time covered by its child spans, where a child's cover
includes the child's own bookkeeping, so tracing cost lands in no layer.
Count hooks run after a span closes and add machine-independent work counts
(rows bisected, bytes read, ...) at the boundary where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import os
import types
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

MODULES = ("model", "eigensolver", "cache", "intervals", "stats", "asymptotics", "cli")

# Span names that differ from "<defining module>.<function>".
_SPAN_NAMES = {
    "cli.render_csv": "cli.render",
    "cli.render_json": "cli.render",
}
_TABLE_SPAN = "eigensolver.spectrum_table"


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_s: float
    parent: int
    request: int


def _entry_bytes(cache_dir, key) -> int:
    entry = key.entry_id()
    total = 0
    for suffix in (".bin", ".json"):
        path = Path(cache_dir) / f"{entry}{suffix}"
        if path.exists():
            total += os.path.getsize(path)
    return total


def _count_lowest(counts, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    counts["eigensolver.rows_bisected"] += matrix.dim
    counts["eigensolver.row_lanes"] += matrix.dim * int(result.size)


def _count_build(counts, args, kwargs, result):
    counts["model.rows_built"] += result.dim


def _count_adaptive(counts, args, kwargs, result):
    counts["eigensolver.labels_solved"] += len(result)
    if result:
        counts["eigensolver.final_dim_sum"] += result[0].truncation_dim


def _count_load(counts, args, kwargs, result):
    if result is None:
        counts["cache.misses"] += 1
        return
    counts["cache.hits"] += 1
    counts["cache.bytes_read"] += _entry_bytes(*args[:2])


def _count_store(counts, args, kwargs, result):
    counts["cache.bytes_written"] += _entry_bytes(*args[:2])


def _count_render(counts, args, kwargs, result):
    counts["cli.bytes_out"] += len(result)


_COUNT_HOOKS = {
    "eigensolver.lowest_eigenvalues": _count_lowest,
    "model.build_truncated": _count_build,
    "eigensolver.adaptive_spectrum": _count_adaptive,
    "cache.load_records": _count_load,
    "cache.store_records": _count_store,
    "cli.render": _count_render,
}


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = -1
        # One [span index, covered seconds] frame per open span.
        self._stack: list = []

    def wrap(self, name: str, fn):
        hook = _COUNT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(
                    name, start, end, end - start - frame[1], parent, tracer.request
                )
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            if stack:
                stack[-1][1] += perf_counter() - start
            return result

        return traced

    def layer_totals(self) -> dict:
        """Per span name: number of calls and summed self time."""
        totals: dict = {}
        for span in self.spans:
            entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += span.self_s
        return totals


def _span_name(module: str, attr: str) -> str:
    name = f"{module}.{attr}"
    return _SPAN_NAMES.get(name, name)


def install(tracer: Tracer) -> None:
    """Wrap rabi's public functions in place, for the rest of the process."""
    modules = {name: importlib.import_module(f"rabi.{name}") for name in MODULES}
    for home_name, home in modules.items():
        for attr, fn in list(vars(home).items()):
            if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                continue
            if fn.__module__ != home.__name__:
                continue
            wrapper = tracer.wrap(_span_name(home_name, attr), fn)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
    table_cls = modules["eigensolver"].SpectrumTable
    original = table_cls.__dict__["from_records"]
    table_cls.from_records = classmethod(tracer.wrap(_TABLE_SPAN, original.__func__))
