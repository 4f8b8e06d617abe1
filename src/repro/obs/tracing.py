"""Span-based tracing with JSON and Chrome trace-event export.

A :class:`Tracer` records a tree of timed spans: compile phases (flatten,
closure lowering, native lowering), scenario executions, worker tasks,
search rounds.  Spans nest through a plain stack -- ``tracer.span(...)``
inside an open span becomes its child -- and serialize two ways:

* :meth:`Tracer.to_json_dict` -- the span *tree*, for programmatic
  consumption and round-tripping (:func:`span_from_json_dict`);
* :meth:`Tracer.to_chrome_trace` -- flat ``"X"`` (complete) events in the
  Chrome trace-event format, loadable in Perfetto / ``chrome://tracing``.

The clock is injectable (``Tracer(clock=...)``): production uses
``time.perf_counter``, tests use a fake monotonic counter, which makes
both exports **byte-stable** -- the serialization tests pin this.  Span
timestamps are whatever the clock returns (seconds); Chrome events
convert to integer microseconds relative to the tracer's first span, so
traces from different hosts align at zero.

A tracer is deliberately not thread-safe: the runner gives each worker
its own telemetry and merges afterwards, mirroring the metrics contract.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    """One timed, attributed region; children are spans opened inside it."""

    __slots__ = ("name", "start", "end", "attributes", "children")

    def __init__(self, name: str, start: float,
                 attributes: Optional[Dict[str, Any]] = None):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.children: List["Span"] = []

    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attributes": {key: self.attributes[key]
                           for key in sorted(self.attributes)},
            "children": [child.to_json_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration():.6f}s)"


def span_from_json_dict(data: Dict[str, Any]) -> Span:
    """Rebuild a span tree from :meth:`Span.to_json_dict` output."""
    span = Span(data["name"], data["start"], data.get("attributes"))
    span.end = data.get("end")
    span.children = [span_from_json_dict(child)
                     for child in data.get("children", ())]
    return span


class _SpanContext:
    """Context manager closing one span on exit (error-annotating)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> bool:
        if exc_type is not None:
            self._span.attributes["error"] = f"{exc_type.__name__}: {exc}"
        self._tracer._close(self._span)  # noqa: SLF001 - own pair
        return False


class Tracer:
    """Records a forest of nested spans against an injectable clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """Open a span; use as ``with tracer.span("compile.flat") as s:``."""
        span = Span(name, self._clock(), attributes)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        # tolerate out-of-order closes (a crashed child left open): pop to
        # and including the span being closed
        while self._stack:
            if self._stack.pop() is span:
                break

    def adopt(self, span: Span) -> None:
        """Attach an externally built (e.g. deserialized) span tree."""
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def walk(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def active_path(self) -> List[str]:
        """Names of the currently open spans, outermost first.

        The "where were we" of a post-mortem bundle: the span stack at the
        moment a scenario error was dumped.
        """
        return [span.name for span in self._stack]

    # -- export ------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {"spans": [root.to_json_dict() for root in self.roots]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    def to_chrome_trace(self, pid: int = 0, tid: int = 0,
                        process_name: str = "repro") -> Dict[str, Any]:
        """The span forest as Chrome trace-event JSON (Perfetto-loadable).

        Spans become ``"X"`` (complete) events with integer-microsecond
        ``ts``/``dur`` relative to the earliest span start.  ``pid``/``tid``
        default to 0 so the export stays byte-stable under a fake clock;
        pass ``os.getpid()`` for real multi-process traces.

        Spans carrying a ``worker`` attribute (trees the sharded runner
        adopted from pool workers) are assigned a distinct ``tid`` per
        worker -- in sorted worker order, so numbering is deterministic --
        and the tid is inherited by their subtrees.  Each worker track is
        named via a ``thread_name`` metadata event, so merged
        multi-process traces render as parallel Perfetto tracks instead
        of collapsing onto one.
        """
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": process_name},
        }]
        workers = sorted({span.attributes["worker"] for span in self.walk()
                          if "worker" in span.attributes})
        worker_tids = {worker: tid + 1 + index
                       for index, worker in enumerate(workers)}
        for worker in workers:
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": worker_tids[worker],
                "args": {"name": f"worker {worker}"},
            })
        epoch = min((span.start for span in self.walk()), default=0.0)
        stack = [(root, tid) for root in reversed(self.roots)]
        while stack:
            span, span_tid = stack.pop()
            worker = span.attributes.get("worker")
            if worker is not None:
                span_tid = worker_tids[worker]
            end = span.end if span.end is not None else span.start
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": int(round((span.start - epoch) * 1_000_000)),
                "dur": int(round((end - span.start) * 1_000_000)),
                "pid": pid,
                "tid": span_tid,
                "args": {key: _json_safe(value)
                         for key, value in sorted(span.attributes.items())},
            })
            stack.extend((child, span_tid)
                         for child in reversed(span.children))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome_json(self, pid: int = 0, tid: int = 0,
                       indent: int = 2) -> str:
        return json.dumps(self.to_chrome_trace(pid=pid, tid=tid),
                          indent=indent, sort_keys=True)

    def save_chrome_trace(self, path: str, pid: int = 0, tid: int = 0) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_chrome_json(pid=pid, tid=tid))
            handle.write("\n")

    def __repr__(self) -> str:
        return (f"Tracer(roots={len(self.roots)}, "
                f"open={len(self._stack)})")


def _json_safe(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)
