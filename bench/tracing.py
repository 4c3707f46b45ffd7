"""Per-layer tracing from outside the library.

`Tracer.install` wraps every public function of the library's modules,
and the public methods of `Plft`, without editing the library: a
wrapped function is replaced in *every* module namespace that bound it
(``cf`` and ``cli`` import names such as ``root_by_iteration`` at import
time, and the package re-exports them), and methods are replaced on the
class.  `Plft.__post_init__` is wrapped to count constructions only.

Each call adds to exact per-function totals (calls, busy time, and self
time: busy time minus the time covered by traced callees).  Spans carry
their op id and parent span, stay in memory and are written out at the
end; to bound memory, only the first `SPANS_PER_FUNCTION` spans of each
function are kept, which samples the per-step methods while the totals
stay exact.  While a ``census`` function is outermost on the stack,
tracemalloc runs and its peak is kept.
"""

from __future__ import annotations

import importlib
import inspect
import json
import tracemalloc
from collections import Counter
from time import perf_counter

MODULES = ("plft", "cf", "complex_forest", "census", "cli")
SPANS_PER_FUNCTION = 1000


class Tracer:
    def __init__(self, result_counts):
        self.result_counts = result_counts  # function -> (count name, result -> int)
        self.totals: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counts: Counter = Counter()
        self.nested: Counter = Counter()  # (caller, callee) -> calls
        self.spans: list[tuple] = []
        self.kept: Counter = Counter()
        self.stack: list[list] = []  # [name, start, child_s, span_id]
        self.op_id = -1
        self.next_span = 0
        self.census_peak_bytes = 0
        self.census_depth = 0

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the library reachable from ``package`` (a fresh import each time is fine)."""
        modules = [importlib.import_module(f"{package.__name__}.{name}") for name in MODULES]
        namespaces = [package] + modules
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", obj, census=short == "census")
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, bound, wrapped)
        self._wrap_class(modules[0].Plft, "plft")

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr == "__post_init__":
                setattr(cls, attr, self._counted(f"{prefix}.{cls.__name__}.constructions", obj))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(f"{prefix}.{attr}", obj))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(f"{prefix}.{attr}", obj.__func__)))
            elif isinstance(obj, property):
                setattr(cls, attr, property(self._wrap(f"{prefix}.{attr}", obj.fget)))

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn, census: bool = False):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, spans, kept, nested = self.stack, self.spans, self.kept, self.nested
        limit = SPANS_PER_FUNCTION
        tracer = self
        counts = self.counts
        count_name, count_of = self.result_counts.get(name, (None, None))

        def wrapper(*args, **kwargs):
            caller = stack[-1] if stack else None
            if caller is not None:
                nested[caller[0], name] += 1
            if census:
                tracer._census_enter()
            span_id = -1
            if kept[name] < limit:
                kept[name] += 1
                span_id = tracer.next_span
                tracer.next_span += 1
            frame = [name, perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if count_name:
                    counts[count_name] += count_of(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                busy = end - frame[1]
                totals[0] += 1
                totals[1] += busy
                totals[2] += busy - frame[2]
                if caller is not None:
                    caller[2] += busy
                if span_id >= 0:
                    parent = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
                    spans.append((span_id, parent, tracer.op_id, name, frame[1], end))
                if census:
                    tracer._census_exit()

        wrapper.__wrapped__ = fn
        return wrapper

    def _census_enter(self) -> None:
        self.census_depth += 1
        if self.census_depth == 1:
            tracemalloc.start()

    def _census_exit(self) -> None:
        self.census_depth -= 1
        if self.census_depth == 0:
            self.census_peak_bytes = max(self.census_peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    # -- results ------------------------------------------------------------

    def total(self, name: str, field: str) -> float:
        calls, busy, self_s = self.totals.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "busy_s": busy, "self_s": self_s}[field]

    def write(self, path) -> None:
        """One JSON line per function total, then one per count, then one per kept span."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, (calls, busy, self_s) in sorted(self.totals.items()):
                fh.write(json.dumps({"total": name, "calls": calls, "busy_s": busy, "self_s": self_s}) + "\n")
            for name, value in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "value": value}) + "\n")
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps({"span": span_id, "parent": parent, "op": op_id,
                                     "name": name, "start": start, "end": end}) + "\n")
