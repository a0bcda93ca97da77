"""In-memory span tracer that lives entirely in the benchmark.

A span is ``(span id, parent id, request id, name, start, end)`` on the
``time.perf_counter`` axis.  Spans are taken either directly in a driver loop
(``with tracer.span(...)``) or through wrappers the harness installs on public
functions and methods of ``repro`` for the traced run only; ``uninstall``
restores every original.  Spans stay in memory and are written as JSON lines
at the end.  A span's *self time* is its duration minus the part of its
interval that its child spans cover; the first dotted component of a span name
is the layer (a package under ``src/repro``) the self time is charged to.

Host wall-clock is the only axis recorded here.  Simulated milliseconds never
enter a span.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator

#: ``(span id, parent id, request id, name, start, end)``.
Span = tuple[int, int, int, str, float, float]


class Tracer:
    """Collects spans and counters; thread-safe for concurrent driver threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.peaks: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans
    def _frame(self) -> list:
        """This thread's ``[request id, open span id, ...]`` stack."""
        try:
            return self._local.frame
        except AttributeError:
            frame = self._local.frame = [0]
            return frame

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[None]:
        """Record one span around the ``with`` body.

        ``request`` starts a new request: the span and everything nested in it
        on this thread carry that identifier.
        """
        frame = self._frame()
        previous = frame[0]
        if request is not None:
            frame[0] = request
        span_id = next(self._ids)
        parent = frame[-1] if len(frame) > 1 else 0
        frame.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            frame.pop()
            self.spans.append((span_id, parent, frame[0], name, start, end))
            frame[0] = previous

    def _spanning(self, name: str, func: Callable, observe: Callable | None) -> Callable:
        append, ids, get_frame, clock = self.spans.append, self._ids, self._frame, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = get_frame()
            span_id = next(ids)
            parent = frame[-1] if len(frame) > 1 else 0
            frame.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                frame.pop()
                append((span_id, parent, frame[0], name, start, end))
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def _counting(self, name: str, func: Callable, observe: Callable | None) -> Callable:
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            result = func(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    # ---------------------------------------------------------------- patching
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Callable[["Tracer", object], None] | None = None,
        count_only: bool = False,
    ) -> None:
        """Wrap the public callable ``owner.attr`` until :meth:`uninstall`.

        ``owner`` is a class (methods) or a module (functions).  A module
        function is also replaced in every loaded ``repro`` module that
        imported it by name, so callers inside the program see the wrapper.
        ``count_only`` records a call count under ``name`` instead of a span —
        for functions called so often that a span per call would distort the
        run.  ``observe(tracer, result)`` may add counters from the result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(original)
        func = original.__func__ if kind in (staticmethod, classmethod) else original
        make = self._counting if count_only else self._spanning
        wrapper = make(name, func, observe)
        replacement = kind(wrapper) if kind in (staticmethod, classmethod) else wrapper
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                module
                for module_name, module in list(sys.modules.items())
                if module_name.startswith("repro")
                and module is not owner
                and getattr(module, "__dict__", {}).get(attr) is original
            ]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped callable (reverse order of installation)."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # ---------------------------------------------------------------- counters
    def add(self, name: str, amount: int = 1) -> None:
        """Add to a counter."""
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        """Keep the largest value seen under ``name``."""
        if value > self.peaks.get(name, float("-inf")):
            self.peaks[name] = value

    # ---------------------------------------------------------------- analysis
    def durations_by_name(self) -> dict[str, list[float]]:
        """Durations in seconds of every span, grouped by span name."""
        grouped: dict[str, list[float]] = defaultdict(list)
        for _, _, _, name, start, end in self.spans:
            grouped[name].append(end - start)
        return grouped

    def self_times(self) -> dict[int, float]:
        """Self time in seconds of every span, keyed by span id."""
        return self_times(self.spans)

    def self_time_by_name(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        own = self.self_times()
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, _, _ in self.spans:
            totals[name] += own[span_id]
        return dict(totals)

    def write_jsonl(self, path: Path) -> None:
        """Write the spans, ordered by start time, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "request", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s[4]):
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of each span: duration minus the time its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        if parent:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered(start, end, children.get(span_id, ()))
        for span_id, _, _, _, start, end in spans
    }


def layer_of(name: str) -> str:
    """The layer a span name is charged to (its first dotted component)."""
    return name.split(".", 1)[0]
