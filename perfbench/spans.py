"""In-memory spans around calls into the ``rons`` package.

The tracer wraps public entry points of the package from the outside: while a
:meth:`Tracer.installed` block is active, module attributes are replaced by
wrappers that record one span per call and the originals are put back on
exit.  No file of the package changes, and the wrapped functions compute
exactly what the originals compute, so traced outputs are bitwise identical to
untraced ones.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of the
enclosing span (``-1`` at top level) and ``run`` identifies one pass and phase
of a workload, as ``"<pass>/<phase>"``.  The code traced is single-threaded,
so a span's children never overlap and its self time is its duration minus
the summed durations of its children.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """Records spans and per-run counters; written out with :meth:`dump`."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.run = ""
        self._stack: list[tuple[int, str]] = []

    def wrap(self, name, fn, after=None):
        """``fn`` with a span named ``name`` around each call.

        ``after(result, args, kwargs)`` runs once the span has closed, so
        counters it records do not add to the span's duration.
        """
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(open_name == name for _, open_name in self._stack)

    def count(self, key: str, value: float):
        self.counters[self.run][key] += value

    @contextmanager
    def installed(self, patches):
        """Replace ``(module, attribute, make_wrapper)`` entries while active.

        ``make_wrapper(original)`` returns the replacement; every original is
        restored on exit, also when the block raises.
        """
        saved = []
        try:
            for module, attribute, make_wrapper in patches:
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute, make_wrapper(original))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def dump(self, path):
        """Write spans (columnar) and counters as one JSON file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start", "end", "parent", "run"],
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "run": [s[4] for s in self.spans],
            "counters": {run: dict(c) for run, c in self.counters.items()},
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh)


class RunSummary:
    """Per-name totals, self times and call counts over the spans of one run.

    ``within`` restricts a query to spans that have an ancestor (or are
    themselves) named by it; ``outside`` excludes such spans.
    """

    def __init__(self, spans, run: str, counters=None):
        self.counters = dict(counters or {})
        chosen = [i for i, s in enumerate(spans) if s[4] == run]
        position = {i: k for k, i in enumerate(chosen)}
        self.names = [spans[i][0] for i in chosen]
        self.duration = [spans[i][2] - spans[i][1] for i in chosen]
        self.parent = [position.get(spans[i][3], -1) for i in chosen]
        child = [0.0] * len(chosen)
        for k, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.duration[k]
        self.self_time = [d - c for d, c in zip(self.duration, child)]
        self._flags = {}

    def _ancestry(self, name):
        if name not in self._flags:
            # parents precede children in recording order
            flag = [False] * len(self.names)
            for k, p in enumerate(self.parent):
                flag[k] = self.names[k] == name or (p >= 0 and flag[p])
            self._flags[name] = flag
        return self._flags[name]

    def _select(self, name, within, outside):
        keep_in = self._ancestry(within) if within else None
        keep_out = self._ancestry(outside) if outside else None
        for k, n in enumerate(self.names):
            if n != name:
                continue
            if keep_in is not None and not keep_in[k]:
                continue
            if keep_out is not None and keep_out[k]:
                continue
            yield k

    def total(self, name, within=None, outside=None) -> float:
        return sum(self.duration[k] for k in self._select(name, within, outside))

    def self_total(self, name, within=None, outside=None) -> float:
        return sum(self.self_time[k] for k in self._select(name, within, outside))

    def calls(self, name, within=None, outside=None) -> int:
        return sum(1 for _ in self._select(name, within, outside))
