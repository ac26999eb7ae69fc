"""Spans around rentsim's public functions, recorded from the benchmark's side.

The traced run patches attributes that the benchmark or ``rentsim.bench`` /
``rentsim.cli`` look up at call time, so ``src/`` is never edited.  Every
call becomes one span (name, start, end, parent span, unit id) kept in
memory; :meth:`Tracer.dump` writes them out once the run is over.

A strategy's ``place`` runs once per arrival, so it gets no span of its
own: :class:`StrategyProxy` sums its calls, time and candidate servers and
the totals are stored on the enclosing ``engine.simulate`` span.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

__all__ = ["Span", "StrategyProxy", "Tracer", "bound_counts", "file_bytes", "seq_len",
           "simulate_counts", "summarize", "validate_counts"]


class Span:
    __slots__ = ("id", "name", "parent", "unit", "start", "end", "attrs")

    def __init__(self, sid, name, parent, unit):
        self.id = sid
        self.name = name
        self.parent = parent
        self.unit = unit
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "unit": self.unit, "start": self.start, "end": self.end,
                **self.attrs}


class StrategyProxy:
    """A ``PlacementStrategy`` that times and counts the wrapped strategy's calls."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = 0
        self.seconds = 0.0
        self.candidates = 0

    def reset(self) -> None:
        self.inner.reset()

    def place(self, view):
        start = perf_counter()
        decision = self.inner.place(view)
        self.seconds += perf_counter() - start
        self.calls += 1
        self.candidates += len(view.servers)
        return decision


def seq_len(span, args, kwargs, result):
    span.attrs["jobs"] = len(result)


def validate_counts(span, args, kwargs, result):
    span.attrs["events"] = len(args[0].events)
    span.attrs["violations"] = len(result)


def bound_counts(span, args, kwargs, result):
    entries = result if isinstance(result, list) else [result]
    span.attrs["entries"] = len(entries)
    span.attrs["unsatisfied"] = sum(1 for e in entries if not e.satisfied)


def file_bytes(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(args[1])


def simulate_counts(span, args, kwargs, result):
    proxy = args[0]
    span.attrs.update(
        strategy=proxy.name.partition(":")[0],
        place_calls=proxy.calls,
        place_s=proxy.seconds,
        candidates=proxy.candidates,
        arrivals=len(args[1]),
        servers_opened=result.servers_opened,
        events=len(result.trace.events),
    )


class Tracer:
    """Records spans for wrapped calls; ``unit`` tags every span with its unit id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.unit: int | None = None

    def call(self, name, fn, args, kwargs, after=None):
        span = Span(len(self.spans), name,
                    self._stack[-1] if self._stack else None, self.unit)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if after is not None:
            after(span, args, kwargs, result)
        return result

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(span, args, kwargs, result)`` adds counts."""
        if name == "engine.simulate":
            def wrapper(strategy, seq, **kwargs):
                return self.call(name, fn, (StrategyProxy(strategy), seq), kwargs, after)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs, after)
        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, obj, attr: str, name: str, after=None) -> None:
        """Replace ``obj.attr`` by a traced wrapper until :meth:`restore`."""
        original = getattr(obj, attr)
        self._patches.append((obj, attr, original))
        setattr(obj, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def unit_span(self, unit_id: int, key: str, fn):
        """Run one unit of work under a root span named ``unit``."""
        self.unit = unit_id
        try:
            return self.call("unit", fn, (), {}, lambda s, a, k, r: s.attrs.update(key=key))
        finally:
            self.unit = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


# reported counter -> the span attribute it sums, as "<span name>.<attribute>"
COUNTERS = {
    "engine.arrivals": "engine.simulate.arrivals",
    "engine.servers_opened": "engine.simulate.servers_opened",
    "engine.events": "engine.simulate.events",
    "strategies.place.calls": "engine.simulate.place_calls",
    "strategies.place.candidates": "engine.simulate.candidates",
    "generators.jobs": "generators.gen_uniform.jobs",
    "core.validate_trace.events": "core.validate_trace.events",
    "core.validate_trace.violations": "core.validate_trace.violations",
    "bench.csv_bytes": "bench.rows_to_csv.bytes",
    "engine.event_csv_bytes": "engine.write_event_csv.bytes",
}


def summarize(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass over the workload's pool: name -> (value, unit).

    A span's self time is its duration minus its child spans and, for
    ``engine.simulate``, minus the summed ``place`` time.  ``layer.<module>``
    sums the self time of that module's spans; ``layer.harness`` is unit
    time that no rentsim call covers.
    """
    child_s: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.duration
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    # per strategy: simulate s, place s, place calls, candidates
    by_strategy: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0, 0])
    for span in spans:
        own = span.duration - child_s[span.id]
        a = span.attrs
        for key, value in a.items():
            if type(value) is int:
                counts[f"{span.name}.{key}"] += value
        if span.name == "engine.simulate":
            own -= a["place_s"]
            row = by_strategy[a["strategy"]]
            row[0] += span.duration
            row[1] += a["place_s"]
            row[2] += a["place_calls"]
            row[3] += a["candidates"]
        calls[span.name] += 1
        total[span.name] += span.duration
        self_s[span.name] += own

    out: dict[str, tuple[float, str]] = {}
    for name in sorted(calls):
        if name != "unit":
            out[f"{name}.calls"] = (calls[name] / passes, "count")
            out[f"{name}.s"] = (total[name] / passes, "s")
            out[f"{name}.self_s"] = (self_s[name] / passes, "s")
    for kind, (sim_s, place_s, place_calls, candidates) in sorted(by_strategy.items()):
        out[f"engine.simulate.{kind}.s"] = (sim_s / passes, "s")
        out[f"strategies.place.{kind}.s"] = (place_s / passes, "s")
        out[f"strategies.{kind}.candidates_per_arrival"] = (candidates / place_calls, "ratio")
    for name, key in COUNTERS.items():
        if calls[key.rsplit(".", 1)[0]]:
            out[name] = (counts[key] / passes, "bytes" if name.endswith("bytes") else "count")
    place_s = sum(row[1] for row in by_strategy.values())
    if by_strategy:
        out["strategies.place.s"] = (place_s / passes, "s")
        out["strategies.candidates_per_arrival"] = (
            counts["engine.simulate.candidates"] / counts["engine.simulate.place_calls"], "ratio")
    bounds = [n for n in calls if n.startswith("bounds.")]
    if bounds:
        for key in ("entries", "unsatisfied"):
            out[f"bounds.{key}"] = (sum(counts[f"{n}.{key}"] for n in bounds) / passes, "count")

    layer: dict[str, float] = defaultdict(float)
    for name, value in self_s.items():
        if name != "unit":
            layer[name.split(".", 1)[0]] += value
    layer["strategies"] += place_s
    layer["harness"] = self_s["unit"]
    for module in sorted(layer):
        out[f"layer.{module}.self_s"] = (layer[module] / passes, "s")
    out["pass.s"] = (total["unit"] / passes, "s")
    return out
