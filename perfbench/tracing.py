"""Spans recorded from outside the program.

The benchmark opens a span around each operation it issues and, in a
traced run, wraps the public functions of each layer the operation
passes through (:meth:`Tracer.wrap`), so every nested call records a
child span.  Spans of one operation share the operation's trace id.
Nothing under ``src/`` is edited; the wrappers are removed again by
:meth:`Tracer.restore`.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    trace_id: int
    parent_id: Optional[int]
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    """In-memory span recorder; written out once the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        parent = self._current.get()
        span_id = next(self._ids)
        span = Span(
            span_id=span_id,
            trace_id=parent.trace_id if parent else span_id,
            parent_id=parent.span_id if parent else None,
            name=name,
            thread=threading.get_ident(),
            start=time.perf_counter(),
            attrs=dict(attrs),
        )
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(span)

    # -- wrapping layer functions --------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        pre: Optional[Callable[..., Dict[str, object]]] = None,
        post: Optional[Callable[[object], Dict[str, object]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``pre(*args, **kwargs)`` and ``post(result)`` return span
        attributes read before and after the call.
        """
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = pre(*args, **kwargs) if pre else {}
            with tracer.span(name, **attrs) as span:
                result = fn(*args, **kwargs)
                if post:
                    span.attrs.update(post(result))
            return result

        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------------

    def self_ms(self) -> Dict[int, float]:
        """Span id -> self time: its duration minus its children's."""
        result = {s.span_id: s.ms for s in self.spans}
        for s in self.spans:
            if s.parent_id in result:
                result[s.parent_id] -= s.ms
        return result

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def mean_self_ms(self, name: str) -> float:
        spans = self.by_name(name)
        if not spans:
            return 0.0
        own = self.self_ms()
        return sum(own[s.span_id] for s in spans) / len(spans)

    def export_chrome(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``,
        Perfetto)."""
        own = self.self_ms()
        origin = min((s.start for s in self.spans), default=0.0)
        threads: Dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = threads.setdefault(s.thread, len(threads) + 1)
            events.append({
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": round(1e6 * (s.start - origin), 3),
                "dur": round(1e6 * (s.end - s.start), 3),
                "pid": os.getpid(),
                "tid": tid,
                "args": {
                    "trace_id": s.trace_id,
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "self_ms": round(own[s.span_id], 6),
                    **{k: v for k, v in s.attrs.items()
                       if isinstance(v, (int, float, str, bool))},
                },
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
