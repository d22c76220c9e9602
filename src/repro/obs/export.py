"""Chrome trace-event export: spans -> Perfetto-loadable JSON.

The mapping (documented in docs/observability.md):

* each span becomes one complete ``"X"`` event with ``ts``/``dur`` in
  microseconds (trace-event clock unit) from the span's monotonic
  nanoseconds;
* ``pid`` is assigned per distinct ``span.proc`` label ("frontend",
  "worker-0", ...) with an ``"M"`` ``process_name`` metadata event, so
  Perfetto shows one track group per serving process;
* ``tid`` is the span's ``lane`` (a worker slot),
  named via ``thread_name`` metadata;
* span identity, parentage and request correlation travel in ``args``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.trace import Span

_DEFAULT_PROC = "main"


def to_chrome_trace(
    spans: Sequence[Span], default_proc: str = _DEFAULT_PROC
) -> Dict[str, Any]:
    """Render spans as a ``{"traceEvents": [...]}`` document."""
    procs: List[str] = []
    for s in spans:
        label = s.proc or default_proc
        if label not in procs:
            procs.append(label)
    # Frontend first, workers after, deterministic for a given span set.
    procs.sort(key=lambda p: (p != default_proc, p))
    pid_of = {label: i + 1 for i, label in enumerate(procs)}

    events: List[Dict[str, Any]] = []
    for label, pid in pid_of.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    named_threads = set()
    for s in spans:
        pid = pid_of[s.proc or default_proc]
        if (pid, s.lane) not in named_threads:
            named_threads.add((pid, s.lane))
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": s.lane,
                    "args": {"name": f"lane-{s.lane}"},
                }
            )
    for s in spans:
        args: Dict[str, Any] = dict(s.attrs)
        args["span_id"] = s.span_id
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        if s.request_id is not None:
            args["request_id"] = s.request_id
        events.append(
            {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": s.start_ns / 1000.0,
                "dur": s.dur_ns / 1000.0,
                "pid": pid_of[s.proc or default_proc],
                "tid": s.lane,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema check for trace-event JSON (the subset we emit, which is
    also the subset Perfetto requires to load a trace).  Returns a list
    of problems; empty means the document is loadable."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "B", "E", "i"):
            problems.append(f"{where}: unsupported ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: {key} is not an int")
        if ph == "X":
            ts, dur = ev.get("ts"), ev.get("dur")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where}: ts is not a number")
            if not isinstance(dur, (int, float)) or (
                isinstance(dur, (int, float)) and dur < 0
            ):
                problems.append(f"{where}: dur missing or negative")
            if not isinstance(ev.get("cat"), str):
                problems.append(f"{where}: X event without cat")
        if ph == "M" and not isinstance(ev.get("args"), dict):
            problems.append(f"{where}: metadata event without args")
    return problems


def write_chrome_trace(
    path: str, spans: Sequence[Span], default_proc: str = _DEFAULT_PROC
) -> Dict[str, Any]:
    """Export + validate + write; raises on an invalid document so a CI
    artifact can never be silently unloadable."""
    doc = to_chrome_trace(spans, default_proc=default_proc)
    problems = validate_chrome_trace(doc)
    if problems:
        raise ValueError(
            "refusing to write invalid chrome trace: " + "; ".join(problems)
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return doc


def spans_from_dicts(dicts: Sequence[Dict[str, Any]]) -> List[Span]:
    return [Span.from_dict(d) for d in dicts]
