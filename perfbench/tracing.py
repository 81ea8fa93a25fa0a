"""In-memory timing spans around module-level names, installed from outside
the package.

A `Tracer` replaces a function attribute of a module with a wrapper that
records one span per call: name, start, end, parent span and a few numbers
taken from the result.  Because callers inside bipergm look the name up in
their module's globals at call time, wrapping `bipergm.estimate.simulate`
traces every simulate call that `estimate` makes.  Spans are kept in a list
and written out only when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block; spans opened inside it become its children."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        """Trace calls to `module.attr` as spans called `name`.

        `note(result, args, kwargs)` may return a dict of numbers to keep on
        the span; it runs after the span has ended.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if note is not None:
                span.info.update(note(result, args, kwargs))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        records = [
            {**vars(span), "info": {k: v for k, v in span.info.items() if _jsonable(v)}}
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle)


def _jsonable(value) -> bool:
    return isinstance(value, (int, float, str, bool)) or value is None


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }
