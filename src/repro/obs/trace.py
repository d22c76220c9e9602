"""Low-overhead span recorder: a thread-safe ring buffer of spans.

The tracing contract:

* ``REPRO_TRACE=1`` enables an ambient process-wide :class:`TraceBuffer`
  at import time; ``enable()``/``disable()`` flip it programmatically.
* Hot paths receive an explicit tracer (``plan.run(trace=buf)``) or read
  :func:`active_tracer` once per run.  Disabled tracing is a single
  ``is None`` check — there is no decorator, context-manager, or dict
  lookup on the per-step path.
* Spans use ``time.monotonic_ns()`` (``CLOCK_MONOTONIC`` on Linux), so
  timestamps recorded in forked workers land on the same axis as the
  parent's and a cross-process trace lines up in Perfetto.

A span is ``(name, category, start_ns, dur_ns, attrs)`` plus identity:
a process-unique ``span_id``, an optional ``parent_id`` (tree edges), an
optional ``request_id`` (serving correlation), and ``proc``/``lane``
used by the Chrome exporter as pid/tid (``lane`` is a worker slot; the
engine executor runs on one thread and always records lane 0).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

TRACE_ENV_VAR = "REPRO_TRACE"

DEFAULT_CAPACITY = 65536

now_ns = time.monotonic_ns


def env_enabled() -> bool:
    """True when ``REPRO_TRACE`` asks for ambient tracing."""
    return os.environ.get(TRACE_ENV_VAR, "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


_id_lock = threading.Lock()
_id_counter = 0


def new_span_id() -> str:
    """Process-unique span id, unique across forked workers too
    (the pid prefix disambiguates ids minted before and after fork)."""
    global _id_counter
    with _id_lock:
        _id_counter += 1
        n = _id_counter
    return f"{os.getpid():x}.{n:x}"


class Span:
    """One recorded interval.  Plain slots object: spans are minted on
    hot paths and serialised over worker pipes, so no dataclass
    machinery."""

    __slots__ = (
        "name",
        "cat",
        "start_ns",
        "dur_ns",
        "attrs",
        "span_id",
        "parent_id",
        "request_id",
        "proc",
        "lane",
    )

    def __init__(
        self,
        name: str,
        cat: str,
        start_ns: int,
        dur_ns: int,
        attrs: Optional[Dict[str, Any]] = None,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        request_id: Optional[str] = None,
        proc: Optional[str] = None,
        lane: int = 0,
    ) -> None:
        self.name = name
        self.cat = cat
        self.start_ns = start_ns
        self.dur_ns = dur_ns
        self.attrs = attrs if attrs is not None else {}
        self.span_id = span_id if span_id is not None else new_span_id()
        self.parent_id = parent_id
        self.request_id = request_id
        self.proc = proc
        self.lane = lane

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.dur_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cat": self.cat,
            "start_ns": self.start_ns,
            "dur_ns": self.dur_ns,
            "attrs": self.attrs,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "request_id": self.request_id,
            "proc": self.proc,
            "lane": self.lane,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Span":
        return cls(
            name=d["name"],
            cat=d["cat"],
            start_ns=d["start_ns"],
            dur_ns=d["dur_ns"],
            attrs=d.get("attrs") or {},
            span_id=d.get("span_id"),
            parent_id=d.get("parent_id"),
            request_id=d.get("request_id"),
            proc=d.get("proc"),
            lane=d.get("lane", 0),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.cat!r}, "
            f"dur={self.dur_ns / 1e6:.3f}ms, id={self.span_id})"
        )


class TraceBuffer:
    """Thread-safe bounded ring of spans.

    ``add`` under contention is one lock acquire + list store; when the
    ring wraps, the oldest spans are overwritten and ``dropped`` counts
    how many were lost.  ``snapshot`` returns spans oldest-first.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: List[Optional[Span]] = [None] * capacity
        self._next = 0
        self._count = 0
        self.dropped = 0

    def add(self, span: Span) -> None:
        with self._lock:
            if self._count == self.capacity:
                self.dropped += 1
            else:
                self._count += 1
            self._ring[self._next] = span
            self._next = (self._next + 1) % self.capacity

    def extend(self, spans: Iterable[Span]) -> None:
        for s in spans:
            self.add(s)

    def record(
        self,
        name: str,
        cat: str,
        start_ns: int,
        end_ns: Optional[int] = None,
        **kwargs: Any,
    ) -> Span:
        """Mint a span ending now (or at ``end_ns``) and add it."""
        if end_ns is None:
            end_ns = now_ns()
        span = Span(name, cat, start_ns, max(0, end_ns - start_ns), **kwargs)
        self.add(span)
        return span

    def snapshot(self) -> List[Span]:
        with self._lock:
            if self._count < self.capacity:
                return [s for s in self._ring[: self._count] if s is not None]
            tail = self._ring[self._next :] + self._ring[: self._next]
            return [s for s in tail if s is not None]

    def clear(self) -> None:
        with self._lock:
            self._ring = [None] * self.capacity
            self._next = 0
            self._count = 0
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return self._count


# --------------------------------------------------------------------------
# Ambient tracer.  ``None`` is the disabled sentinel: callers hold the
# result of ``active_tracer()`` in a local and branch on ``is None``.

_active: Optional[TraceBuffer] = None


def active_tracer() -> Optional[TraceBuffer]:
    return _active


def enable(buffer: Optional[TraceBuffer] = None) -> TraceBuffer:
    """Install ``buffer`` (or a fresh ring) as the ambient tracer."""
    global _active
    if buffer is None:
        buffer = TraceBuffer()
    _active = buffer
    return buffer


def disable() -> None:
    global _active
    _active = None


def _reset_after_fork() -> None:
    # A forked child inherits the parent's ring (and possibly a lock
    # held mid-add by a thread that does not exist in the child).  Give
    # the child a clean buffer iff tracing was ambient-enabled.
    global _active
    if _active is not None:
        _active = TraceBuffer(_active.capacity)


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_reset_after_fork)

if env_enabled():
    enable()


# --------------------------------------------------------------------------
# Span-set utilities shared by the exporter, the /trace endpoint, the
# loadgen slow-request dump, and the tests.


def filter_request(spans: List[Span], request_id: str) -> List[Span]:
    """Spans belonging to one request: direct matches (``request_id`` on
    the span or listed in its ``attrs["request_ids"]``), plus all
    descendants of those matches (batch-scoped kernel spans carry the
    batch's ids only on their root)."""
    keep: Dict[str, Span] = {}
    for s in spans:
        if s.request_id == request_id or request_id in (
            s.attrs.get("request_ids") or ()
        ):
            keep[s.span_id] = s
    grew = True
    while grew:
        grew = False
        for s in spans:
            if s.span_id not in keep and s.parent_id in keep:
                keep[s.span_id] = s
                grew = True
    return [s for s in spans if s.span_id in keep]


def build_span_trees(spans: List[Span]) -> List[Dict[str, Any]]:
    """Nest spans into ``{span..., "children": [...]}`` trees; spans
    whose parent is not in the set become roots."""
    by_id = {s.span_id: dict(s.to_dict(), children=[]) for s in spans}
    roots: List[Dict[str, Any]] = []
    for s in spans:
        node = by_id[s.span_id]
        parent = by_id.get(s.parent_id) if s.parent_id else None
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    for node in by_id.values():
        node["children"].sort(key=lambda c: c["start_ns"])
    roots.sort(key=lambda c: c["start_ns"])
    return roots


def validate_span_tree(
    spans: List[Span], slack_ns: int = 200_000
) -> List[str]:
    """Structural checks used by the tests: every ``parent_id`` resolves
    within the set (no orphans), no parent cycle, and each child lies
    inside its parent's interval up to ``slack_ns`` (clock reads nest,
    but the child's final clock read happens a few microseconds before
    the parent's).  Returns human-readable problems, empty when clean.
    """
    problems: List[str] = []
    by_id = {s.span_id: s for s in spans}
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    for s in spans:
        if s.dur_ns < 0:
            problems.append(f"{s.name}: negative duration")
        if s.parent_id is None:
            continue
        parent = by_id.get(s.parent_id)
        if parent is None:
            problems.append(f"{s.name}: orphan parent_id {s.parent_id}")
            continue
        if parent.span_id == s.span_id:
            problems.append(f"{s.name}: span is its own parent")
        if s.start_ns < parent.start_ns - slack_ns:
            problems.append(f"{s.name}: starts before parent {parent.name}")
        if s.end_ns > parent.end_ns + slack_ns:
            problems.append(f"{s.name}: ends after parent {parent.name}")
        # Cycle check: walk up with a step budget.
        seen = {s.span_id}
        cur = parent
        while cur is not None and cur.parent_id is not None:
            if cur.parent_id in seen:
                problems.append(f"{s.name}: parent cycle via {cur.name}")
                break
            seen.add(cur.span_id)
            cur = by_id.get(cur.parent_id)
    return problems
