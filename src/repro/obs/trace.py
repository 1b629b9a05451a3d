"""Lightweight per-query lifecycle tracing.

The trace layer answers "where did this entangled query spend its
time?" without paying for the answer when nobody asks.  Every span
records :func:`time.perf_counter_ns` offsets — no wall-clock reads in
hot paths — carries the originating query's trace id (engine-level
spans carry none), and lands in a bounded in-memory ring buffer.

Tracing is off by default and zero-cost when off: every
instrumentation site checks the module singleton's ``enabled`` flag
once (one attribute load and branch) and otherwise executes nothing.

Cross-process stitching: each worker shard runs its own tracer (site
``shard<N>``), ships finished spans back to the coordinator
piggybacked on the existing correlation-ID reply frames, and the
coordinator imports them into its buffer — one trace id, spans from
every site.  Span ``start_ns`` values are process-local
(``perf_counter_ns`` has no cross-process epoch), so readers order
spans within a site by start time and across sites by lifecycle
phase, never by comparing raw clocks between sites.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import deque
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterable, List, Optional, Sequence

#: Canonical ordering of the per-query lifecycle phases, used when
#: rendering a stitched trace (cross-site ``start_ns`` values are not
#: comparable, so phase order is the cross-site tiebreak).
PHASE_ORDER = {
    "query.submit": 0,
    "query.rename_apart": 1,
    "query.route": 2,
    "query.prefilter": 3,
    "query.match_attempt": 3,
    "query.settle": 4,
    "query.expire": 4,
}

#: Default ring-buffer capacity (spans).  Old spans fall off the back;
#: tracing is a diagnosis tool, not an audit log.
DEFAULT_CAPACITY = 4096


class Span:
    """One finished span: a named interval with optional trace id."""

    __slots__ = ("name", "trace_id", "site", "start_ns", "duration_ns",
                 "attrs")

    def __init__(self, name: str, trace_id: Optional[str], site: str,
                 start_ns: int, duration_ns: int,
                 attrs: Optional[dict] = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.site = site
        self.start_ns = start_ns
        self.duration_ns = duration_ns
        self.attrs = attrs

    def to_payload(self) -> tuple:
        """Compact wire form (versioned by position, appended fields
        only — see DESIGN.md § Observability)."""
        return (self.name, self.trace_id, self.site, self.start_ns,
                self.duration_ns, self.attrs)

    @classmethod
    def from_payload(cls, payload: Sequence) -> "Span":
        # Tolerate payloads longer than we know about: fields are
        # append-only, so older readers ignore the tail.
        name, trace_id, site, start_ns, duration_ns, attrs = payload[:6]
        return cls(name, trace_id, site, start_ns, duration_ns, attrs)

    def to_json(self) -> dict:
        record = {"name": self.name, "trace_id": self.trace_id,
                  "site": self.site, "start_ns": self.start_ns,
                  "duration_ns": self.duration_ns}
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, trace={self.trace_id!r}, "
                f"site={self.site!r}, {self.duration_ns}ns)")


class Tracer:
    """A ring buffer of spans plus the module-wide enabled flag.

    Instrumentation sites follow one pattern::

        tracer = TRACER
        if tracer.enabled:
            start = perf_counter_ns()
        ...work...
        if tracer.enabled:
            tracer.record("engine.drain", start, components=n)

    When ``enabled`` is False the site costs one attribute load and a
    branch — nothing is allocated, no clock is read.
    """

    def __init__(self, site: str = "coordinator",
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.enabled = False
        self.site = site
        # The buffer holds spans in their compact payload form (the
        # same 6-tuples that cross the wire); Span objects materialize
        # lazily in :meth:`spans`.  Emission is one tuple build and
        # one deque append — no per-span object construction.
        self._spans: deque = deque(maxlen=capacity)
        #: Spans the full ring evicted since creation or :meth:`clear`.
        self.dropped = 0
        self._lock = threading.Lock()
        # Trace ids must be unique across processes without reading a
        # wall clock: a per-process random prefix plus a counter.
        self._prefix = os.urandom(4).hex()
        self._counter = itertools.count(1)

    # -- id generation ------------------------------------------------

    def new_trace_id(self) -> str:
        return f"{self._prefix}-{next(self._counter):x}"

    # -- span emission ------------------------------------------------

    def emit(self, payload: tuple) -> None:
        """Append one payload 6-tuple ``(name, trace_id, site,
        start_ns, duration_ns, attrs)``: the per-query engine sites'
        hot path.  A full ring evicts its oldest span into
        :attr:`dropped`."""
        spans = self._spans
        if len(spans) == spans.maxlen:
            self.dropped += 1
        spans.append(payload)

    def record(self, name: str, start_ns: int,
               trace_id: Optional[str] = None, **attrs) -> None:
        """Finish a span started at *start_ns* (caller read the clock)."""
        self.emit((name, trace_id, self.site, start_ns,
                   perf_counter_ns() - start_ns, attrs or None))

    def record_many(self, name: str, start_ns: int,
                    trace_ids: Iterable[Optional[str]],
                    **attrs) -> None:
        """Finish one span per trace id, all sharing the same interval
        and attrs — the bulk form for per-member fan-out (a matching
        attempt seen from every participating query).  One clock read
        and one attrs dict however many members the component has."""
        duration = perf_counter_ns() - start_ns
        for trace_id in trace_ids:
            self.emit((name, trace_id, self.site, start_ns, duration,
                       attrs or None))

    def event(self, name: str, trace_id: Optional[str] = None,
              **attrs) -> None:
        """A zero-duration marker (settle, expire, submit)."""
        self.emit((name, trace_id, self.site, perf_counter_ns(), 0,
                   attrs or None))

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None, **attrs):
        """Context-manager form for non-hot call sites."""
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.record(name, start, trace_id, **attrs)

    # -- buffer access ------------------------------------------------

    def spans(self) -> List[Span]:
        with self._lock:
            payloads = list(self._spans)
        return [Span(*payload) for payload in payloads]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._spans)

    def drain_payloads(self) -> list:
        """Pop every buffered span as wire payloads (worker -> coord).
        The buffer already holds payload form, so this is a move."""
        with self._lock:
            payloads = list(self._spans)
            self._spans.clear()
        return payloads

    def import_payloads(self, payloads: Iterable[Sequence]) -> None:
        """Adopt spans shipped from another site, preserving their
        originating ``site`` field.  Fields are append-only: a longer
        payload from a newer writer is truncated to the known
        prefix."""
        with self._lock:
            for payload in payloads:
                self.emit(tuple(payload[:6]))

    # -- grouping and export ------------------------------------------

    def traces(self) -> Dict[Optional[str], List[Span]]:
        """Spans grouped by trace id (``None`` holds engine-level
        spans), each group in render order."""
        groups: Dict[Optional[str], List[Span]] = {}
        for span in self.spans():
            groups.setdefault(span.trace_id, []).append(span)
        for spans in groups.values():
            spans.sort(key=_render_key)
        return groups

    def export_jsonl(self, path: str) -> int:
        """Write every buffered span as one JSON object per line;
        returns the number of spans written."""
        spans = self.spans()
        with open(path, "w") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_json(),
                                        sort_keys=True) + "\n")
        return len(spans)


def _render_key(span: Span) -> tuple:
    # Coordinator-side spans first, then phase order, then the local
    # clock (comparable only within one site, which is exactly the
    # residual ambiguity after the first two keys).
    return (span.site != "coordinator", span.site,
            PHASE_ORDER.get(span.name, len(PHASE_ORDER)), span.start_ns)


def format_traces(spans: Iterable[Span]) -> str:
    """Human-readable dump: spans grouped per trace, engine-level
    spans (no trace id) last under ``(engine spans)``."""
    groups: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        groups.setdefault(span.trace_id, []).append(span)
    lines: List[str] = []
    keyed = sorted((key for key in groups if key is not None))
    for trace_id in keyed + ([None] if None in groups else []):
        header = (f"trace {trace_id}" if trace_id is not None
                  else "(engine spans)")
        lines.append(header)
        for span in sorted(groups[trace_id], key=_render_key):
            micros = span.duration_ns / 1000.0
            detail = (f"  {span.site:<12} {span.name:<22} "
                      f"{micros:>10.1f}us")
            if span.attrs:
                rendered = " ".join(f"{key}={value}" for key, value
                                    in sorted(span.attrs.items()))
                detail += f"  {rendered}"
            lines.append(detail)
    return "\n".join(lines)


#: The process-wide tracer.  Worker processes re-point ``site`` at
#: startup (``shard<N>``); everything else shares this instance.
TRACER = Tracer()


def set_tracing(enabled: bool, site: Optional[str] = None) -> None:
    """Flip the module-wide flag (and optionally retag the site)."""
    if site is not None:
        TRACER.site = site
    TRACER.enabled = bool(enabled)
