"""In-memory spans around refkit's layers, for the benchmark's traced run.

A span records its name, start, end, parent span, item id and optional
counts. Spans are opened either at the benchmark's own call sites
(`span`) or by wrappers installed on the module attributes through which
one refkit layer calls another (`wrap`), so refkit's code is unchanged.
Spans stay in memory until the round is analysed; the last traced round's
spans can then be written out as JSONL.
"""
from __future__ import annotations

import json
import threading
from contextlib import contextmanager, nullcontext
from time import perf_counter

NAME, START, END, PARENT, ITEM, COUNTS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._root: list | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str, item: object) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        # Worker threads start with an empty stack; their spans belong to
        # the call-site span open in the main thread.
        parent = stack[-1] if stack else self._root
        if item is None:
            item = getattr(local, "item", None)
        else:
            local.item = item
        record = [name, perf_counter(), 0.0, parent, item, None]
        stack.append(record)
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str, item: object = None):
        """A call-site span in the main thread; yields its record."""
        record = self._open(name, item)
        outer, self._root = self._root, record
        try:
            yield record
        finally:
            self._root = outer
            self._close(record)

    def wrap(self, module: object, attr: str, name: str, item_of=None, count=None) -> None:
        """Replace module.attr with a spanning wrapper until `unwrap`.

        item_of(args) names the item a call works on; count(args, result)
        returns counts to store on the span.
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            record = tracer._open(name, item_of(args) if item_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(record)
            if count is not None:
                record[COUNTS] = count(args, result)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def unwrap(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


class NullTracer:
    """Tracing off: call-site spans cost one attribute lookup and a no-op."""

    _null = nullcontext([None] * 6)

    def span(self, name: str, item: object = None):
        return self._null


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, each span minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record[PARENT] is not None:
            children.setdefault(id(record[PARENT]), []).append((record[START], record[END]))
    totals: dict[str, float] = {}
    for record in spans:
        own = record[END] - record[START] - _union(children.get(id(record), []))
        totals[record[NAME]] = totals.get(record[NAME], 0.0) + own
    return totals


def durations(spans: list[list], name: str) -> list[float]:
    return [record[END] - record[START] for record in spans if record[NAME] == name]


def count_sum(spans: list[list], name: str, key: str) -> int:
    return sum(record[COUNTS][key] for record in spans if record[NAME] == name and record[COUNTS])


def write_jsonl(spans: list[list], path) -> None:
    """One JSON object per span; `parent` is the parent's line index."""
    index = {id(record): i for i, record in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as out:
        for record in spans:
            parent = record[PARENT]
            out.write(json.dumps({
                "name": record[NAME],
                "start": record[START],
                "end": record[END],
                "parent": None if parent is None else index.get(id(parent)),
                "item": record[ITEM],
                "counts": record[COUNTS],
            }) + "\n")
