"""Span tracing from outside the package.

A :class:`Tracer` replaces public functions at the module attributes their
callers look up (``cli.verify_pair``, ``theorem.is_well_covered``, ...) with
wrappers that record one span per call, and puts the originals back on
:meth:`Tracer.restore`.  Nothing inside ``src/`` changes.  Spans stay in
memory until the run ends.

A span is ``[name, start, end, parent, item, note]``: ``name`` is
``<layer>.<function>`` with the layer taken from the defining module,
``parent`` is the index of the enclosing span (-1 at top level), ``item``
identifies the request or pair the span belongs to, and ``note`` holds
whatever the target's ``note`` hook extracted from the result.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("corpus", "graphs", "independence", "theorem", "cli")

NAME, START, END, PARENT, ITEM, NOTE = range(6)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._items = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str | None = None, new_item: bool = False, note=None):
        """Return ``fn`` wrapped so that every call records a span."""
        name = name or span_name(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if new_item:
                self._items += 1
                item = self._items
            else:
                item = spans[parent][ITEM] if parent >= 0 else 0
            record = [name, 0.0, 0.0, parent, item, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if note is not None:
                record[NOTE] = note(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_stream(self, fn, name: str | None = None):
        """Return ``fn`` wrapped so that every item of the iterator it
        returns is counted under ``name``.  ``fn`` itself runs eagerly, so
        its argument checks still fire at call time."""
        name = name or span_name(fn)
        counts = self.counts

        def counted(*args, **kwargs):
            stream = fn(*args, **kwargs)

            def items():
                seen = 0
                try:
                    for value in stream:
                        seen += 1
                        yield value
                finally:
                    counts[name] += seen

            return items()

        counted.__wrapped__ = fn
        return counted

    # -- installing --------------------------------------------------------

    def install(self, targets) -> None:
        """Patch every ``(module, attr, options)`` target.  ``options`` may
        hold ``count=True`` (count streamed items instead of recording a
        span), ``new_item`` and ``note``."""
        try:
            for module, attr, options in targets:
                original = getattr(module, attr)
                if options.get("count"):
                    wrapper = self.count_stream(original)
                else:
                    wrapper = self.wrap(original, **options)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans, one JSON array per line, then the counters."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [record[END] - record[START] for record in spans]
    for record in spans:
        if record[PARENT] >= 0:
            own[record[PARENT]] -= record[END] - record[START]
    return own


def layer_self_times(spans: list[list]) -> dict[str, float]:
    totals = dict.fromkeys(LAYERS, 0.0)
    for record, own in zip(spans, self_times(spans)):
        totals[record[NAME].split(".", 1)[0]] += own
    return totals
