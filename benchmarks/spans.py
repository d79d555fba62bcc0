"""Spans recorded by the benchmark around each call it makes into a layer.

A span has a name (``<layer>.<call>``), a start, an end, the span that
caused it, the request it belongs to and whether the call raised.  Spans
are kept in memory and written out once, when the run ends.  With tracing
off the workloads get ``NO_SPAN``, which records nothing.
"""

from __future__ import annotations

import contextlib
import json
import time

LAYERS = ("graphs", "freegroup", "covering", "towers", "formats", "cli")

_NULL = contextlib.nullcontext()


def NO_SPAN(name: str):
    return _NULL


class _Span:
    __slots__ = ("tracer", "name", "parent", "start", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.spans[self.index] = (self.name, self.start, end, self.parent,
                                tr.request_id, exc_type is not None)
        return False


class Tracer:
    """In-memory span store; ``tracer(name)`` opens a span."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request_id = -1

    def __call__(self, name: str) -> _Span:
        return _Span(self, name)

    def request(self, request_id: int) -> _Span:
        self.request_id = request_id
        return _Span(self, "request")

    def self_times(self) -> list[tuple[str, float, bool]]:
        """(name, self time, failed) per span: duration minus the part of
        it that child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _rid, _failed in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(name, end - start - child[i], failed)
                for i, (name, start, end, _p, _r, failed) in enumerate(self.spans)]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid, failed in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid,
                                     "failed": failed}) + "\n")
