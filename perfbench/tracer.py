"""In-memory spans and counters around calls into the styleseam modules.

The benchmark wraps module attributes (``styleseam.features.pair_features``
and so on), so every call that goes through the module namespace, from the
CLI or from inside the module, passes a wrapper. Nothing in the program is
edited. A span is ``(id, parent, name, start, end)``; spans stay in memory
until the run writes them out. Very hot calls get a counter instead of a
span to keep the overhead low.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

Span = tuple[int, int, str, float, float]
OnResult = Callable[[tuple, dict, Any], None]


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._next_id = itertools.count(1)
        self._ids = [0]
        self._names = [""]
        self._installed: list[tuple[object, str, object]] = []

    @property
    def current(self) -> str:
        """Name of the innermost open span ("" outside every span)."""
        return self._names[-1]

    def span(self, name: str, fn: Callable, on_result: OnResult | None = None) -> Callable:
        ids, names, spans, clock = self._ids, self._names, self.spans, time.perf_counter
        next_id = self._next_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(next_id)
            parent = ids[-1]
            ids.append(span_id)
            names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ids.pop()
                names.pop()
                spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable, inside: str | None = None) -> Callable:
        """Count calls to `name`; with `inside`, also count calls made within that span."""
        counters, names = self.counters, self._names
        nested = f"{name}@{inside}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            if names[-1] == inside:
                counters[nested] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps({"spans": self.spans, "counters": dict(self.counters)}), encoding="utf-8"
        )


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus the time its children cover.

    Children of one span never overlap (the traced program is
    single-threaded), so the covered time is the sum of their durations.
    """
    spans = list(spans)
    covered: defaultdict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        covered[parent] += end - start
    totals: defaultdict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in spans:
        totals[name] += (end - start) - covered[span_id]
    return dict(totals)
