"""Span and sample arithmetic behind the benchmark's per-layer numbers.

Spans are the dicts of :meth:`repro.obs.trace.Span.to_dict` (``name``,
``cat``, ``start_ns``, ``dur_ns``, ``attrs``, ``span_id``,
``parent_id``): the engine's ``plan_run`` root with one ``kernel`` child
per step (and per-chunk grandchildren under the thread scheduler), the
server's request spans, and the benchmark's own spans around each layer
call.  Everything here is pure so the tests can feed synthetic spans.
"""

from __future__ import annotations

import math
from statistics import median
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

#: Minimum number of samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10

#: Kernel op → the op family a ``kernels.<family>_ms`` metric sums.
OP_FAMILIES = {
    "winograd_conv2d": "winograd",
    "conv2d": "conv2d",
    "add": "add",
    "max_pool": "pool",
    "avg_pool": "pool",
    "global_avg_pool": "pool",
    "linear": "linear",
}
FAMILIES = ("winograd", "conv2d", "add", "pool", "linear")


def covered_ns(start: int, end: int, intervals: Iterable[Sequence[int]]) -> int:
    """Nanoseconds of ``[start, end)`` covered by the union of
    ``intervals`` (each ``(start, end)``), clipped to the window —
    overlapping children are counted once."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0
    cur_s: Optional[int] = None
    cur_e = 0
    for s, e in clipped:
        if cur_s is None or s > cur_e:
            if cur_s is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_s is not None:
        total += cur_e - cur_s
    return total


def children_by_parent(spans: Iterable[Mapping]) -> Dict[str, List[Mapping]]:
    out: Dict[str, List[Mapping]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            out.setdefault(parent, []).append(span)
    return out


def self_time_ns(span: Mapping, children: Sequence[Mapping]) -> int:
    """A span's duration minus the part of its interval its children cover."""
    start = span["start_ns"]
    end = start + span["dur_ns"]
    return span["dur_ns"] - covered_ns(
        start, end, ((c["start_ns"], c["start_ns"] + c["dur_ns"]) for c in children)
    )


def plan_runs(spans: Sequence[Mapping]) -> List[Dict[str, float]]:
    """One breakdown per ``plan_run`` span, in start order.

    * ``run_ms`` — the root span's duration;
    * ``overhead_ms`` — ``run_ms`` minus the summed durations of its step
      (``kernel``) spans: dispatch, register and arena bookkeeping;
    * ``kernel_ms`` — the summed step durations;
    * ``out_bytes`` — the summed step ``out_bytes`` (bytes computed);
    * ``<family>_ms`` — self time of the family's step spans.
    """
    kids = children_by_parent(spans)
    runs = []
    roots = sorted(
        (s for s in spans if s["name"] == "plan_run"), key=lambda s: s["start_ns"]
    )
    for root in roots:
        steps = [s for s in kids.get(root["span_id"], ()) if s.get("cat") == "kernel"]
        step_ns = sum(s["dur_ns"] for s in steps)
        row: Dict[str, float] = {
            "run_ms": root["dur_ns"] / 1e6,
            "kernel_ms": step_ns / 1e6,
            "overhead_ms": (root["dur_ns"] - step_ns) / 1e6,
            "out_bytes": float(sum(s["attrs"].get("out_bytes", 0) for s in steps)),
        }
        for family in FAMILIES:
            row[f"{family}_ms"] = 0.0
        for step in steps:
            family = OP_FAMILIES.get(step["attrs"].get("op"))
            if family is not None:
                own = self_time_ns(step, kids.get(step["span_id"], ()))
                row[f"{family}_ms"] += own / 1e6
        runs.append(row)
    return runs


def median_by_key(rows: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Per-key median over rows sharing the same keys."""
    if not rows:
        return {}
    return {key: float(median(r[key] for r in rows)) for key in rows[0]}


def span_ms(spans: Iterable[Mapping], name: str) -> List[float]:
    """Durations (ms) of every span called ``name``, in start order."""
    picked = sorted((s for s in spans if s["name"] == name), key=lambda s: s["start_ns"])
    return [s["dur_ns"] / 1e6 for s in picked]


# -- samples -----------------------------------------------------------------


def samples_needed(pct: float) -> int:
    """Smallest sample count with at least :data:`TAIL_SAMPLES` samples
    strictly above the ``pct`` percentile's share."""
    tail = 100.0 - pct
    if tail <= 0:
        raise ValueError("percentile must be below 100")
    return math.ceil(TAIL_SAMPLES * 100.0 / tail - 1e-9)


def tail_supported(n: int, pct: float) -> bool:
    return n >= samples_needed(pct)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (NumPy's default method).  Failed
    requests enter as ``inf`` so they miss every latency limit."""
    if not values:
        return math.inf
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi or ordered[hi] == ordered[lo]:
        return float(ordered[lo])
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))
