"""In-memory spans taken around calls into the psdl modules.

A span records its name, start, end, the span that was open when it
started, and the cell (one sweep cell or one CLI command) it belongs
to.  Spans stay in a list until the benchmark writes them out at the
end.  The layer of a span is the first dotted part of its name, which
is the psdl module whose function the span wraps.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.cell: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "cell": self.cell,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn, annotate=None):
        """fn wrapped in a span; annotate(span, args, result) may add
        counts taken from the call's arguments and result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(rec, args, result)
                return result

        return traced


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace module attributes by traced wrappers for the duration.

    targets: (module, attribute, span name, annotate or None) tuples.
    """
    saved = []
    try:
        for module, attr, name, annotate in targets:
            orig = getattr(module, attr)
            saved.append((module, attr, orig))
            setattr(module, attr, tracer.wrap(name, orig, annotate))
        yield
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def total(spans: list[dict], name: str) -> float:
    """Summed duration of the spans with this exact name."""
    return sum(duration(s) for s in spans if s["name"] == name)


def covered_time(spans: list[dict], prefix: str) -> float:
    """Time inside spans whose name starts with prefix, counting a span
    nested in another such span once."""
    by_id = {s["id"]: s for s in spans}
    out = 0.0
    for s in spans:
        if not s["name"].startswith(prefix):
            continue
        p = s["parent"]
        while p is not None and not by_id[p]["name"].startswith(prefix):
            p = by_id[p]["parent"]
        if p is None:
            out += duration(s)
    return out


def self_time(spans: list[dict], name: str) -> float:
    """Summed duration of the named spans minus their direct children."""
    child_sum: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_sum[s["parent"]] = child_sum.get(s["parent"], 0.0) + duration(s)
    return sum(duration(s) - child_sum.get(s["id"], 0.0) for s in spans if s["name"] == name)
