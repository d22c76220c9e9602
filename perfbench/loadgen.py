"""The benchmark's own load generators: seeded open and closed loops.

Both take one ``send`` callable per worker (a worker owns one connection,
or calls the engine directly) plus a ``check`` that judges each response,
and a ``clock``/``sleep`` pair so the tests can drive them with a fake
clock.  Every request gets exactly one :class:`Outcome`: a raised
exception (transport error, timeout, refusal) or a failed check marks it
failed, and a failed request's latency is ``inf`` so it misses every
limit.

The open loop times each request from its *due* time on the seeded
Poisson schedule (:func:`poisson_schedule`), so a stall shows in the
latency of every request queued behind it; ``wait_ms`` is the client backlog (send − due) and
``late_ms`` how late the generator itself sent once a worker was free.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from perfbench.spans import percentile

Send = Callable[[int], Any]
Check = Callable[[int, Any], bool]


@dataclass
class Outcome:
    index: int
    due: float  # when the request should have been sent (s, clock axis)
    picked: float  # when a worker took it off the schedule
    sent: float
    done: float
    ok: bool
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3 if self.ok else math.inf

    @property
    def wait_ms(self) -> float:
        return (self.sent - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - max(self.due, self.picked)) * 1e3


#: Arrivals per stratum of a :func:`poisson_schedule`.
STRATUM = 4


def poisson_schedule(seed: int, rate_per_s: float, count: int) -> List[float]:
    """Send offsets (s from the start) of Poisson arrivals at ``rate_per_s``,
    ``count`` rounded up to a whole number of strata.

    The schedule is a Poisson process conditioned on exactly
    :data:`STRATUM` arrivals in each consecutive window of
    ``STRATUM / rate_per_s`` seconds — within a window the arrival times
    are independent uniform draws, which is the Poisson law given the
    count.  Every seed therefore offers exactly the stated load, and
    seeds differ only in how arrivals bunch inside each window.  A free
    Poisson draw of a few hundred arrivals varies its realised rate, and
    the length of its worst burst, enough to move the p95 queueing delay
    by 15-25% from seed to seed; small strata bring that near 5%, which
    is what lets a change to the program show.  The same seed always
    gives the same schedule.
    """
    rng = random.Random(seed)
    window = STRATUM / rate_per_s
    offsets: List[float] = []
    for stratum in range(-(-count // STRATUM)):
        start = stratum * window
        offsets.extend(sorted(start + rng.random() * window for _ in range(STRATUM)))
    return offsets


def split_schedule(
    offsets: Sequence[float], rate_per_s: float, parts: int
) -> List[List[float]]:
    """Cut a :func:`poisson_schedule` at stratum boundaries into ``parts``
    consecutive pieces, each rebased to start at 0, so the open loop can
    run in slices interleaved with other phases."""
    window = STRATUM / rate_per_s
    strata = len(offsets) // STRATUM
    if not 1 <= parts <= strata:
        raise ValueError(f"cannot split {strata} strata into {parts} parts")
    pieces = []
    for part in range(parts):
        lo = strata * part // parts
        hi = strata * (part + 1) // parts
        base = lo * window
        pieces.append([t - base for t in offsets[lo * STRATUM : hi * STRATUM]])
    return pieces


def _attempt(send: Send, check: Check, index: int, clock) -> tuple:
    """Send one request; returns ``(sent, done, ok, error)``."""
    sent = clock()
    try:
        response = send(index)
    except Exception as exc:  # noqa: BLE001 — every failure is an outcome
        return sent, clock(), False, f"{type(exc).__name__}: {exc}"
    done = clock()
    try:
        ok = bool(check(index, response))
    except Exception as exc:  # noqa: BLE001
        return sent, done, False, f"check {type(exc).__name__}: {exc}"
    return sent, done, ok, None if ok else "output check failed"


def _run_workers(worker: Callable[[int], None], count: int) -> None:
    """Run ``worker(w)`` for ``w < count``: inline for one worker (exact
    under a fake clock), else one thread each, all joined."""
    if count == 1:
        worker(0)
        return
    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True) for w in range(count)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_open_loop(
    schedule: Sequence[float],
    senders: Sequence[Send],
    check: Check,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    lead_s: float = 0.05,
) -> List[Outcome]:
    """Send request ``i`` at ``start + schedule[i]`` over ``len(senders)``
    workers that share one FIFO of scheduled requests."""
    start = clock() + lead_s
    outcomes: List[Optional[Outcome]] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]

    def worker(w: int) -> None:
        send = senders[w]
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(schedule):
                return
            picked = clock()
            due = start + schedule[index]
            if due > picked:
                sleep(due - picked)
            sent, done, ok, error = _attempt(send, check, index, clock)
            outcomes[index] = Outcome(index, due, picked, sent, done, ok, error)

    _run_workers(worker, len(senders))
    return _account(outcomes)


def run_closed_loop(
    senders: Sequence[Send],
    check: Check,
    seconds: float,
    min_count: int,
    max_seconds: float,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple:
    """Each worker sends its next request when its last one completes,
    until ``seconds`` have passed and ``min_count`` requests were sent (or
    ``max_seconds`` passed).  Returns ``(outcomes, elapsed_s)``."""
    start = clock()
    outcomes: List[Outcome] = []
    lock = threading.Lock()

    def worker(w: int) -> None:
        send = senders[w]
        while True:
            now = clock()
            with lock:
                index = len(outcomes)
                enough = now - start >= seconds and index >= min_count
                if enough or now - start >= max_seconds:
                    return
                outcomes.append(None)  # reserve the slot
            sent, done, ok, error = _attempt(send, check, index, clock)
            outcomes[index] = Outcome(index, sent, sent, sent, done, ok, error)

    _run_workers(worker, len(senders))
    return _account(outcomes), clock() - start


def _account(outcomes: List[Optional[Outcome]]) -> List[Outcome]:
    """Every scheduled request has an outcome; a slot a worker never
    filled (it died) counts as failed."""
    return [
        o if o is not None else Outcome(i, 0.0, 0.0, 0.0, 0.0, False, "never sent")
        for i, o in enumerate(outcomes)
    ]


def summarize(outcomes: Sequence[Outcome], elapsed_s: float, tail_pct: float) -> Dict:
    """Phase statistics: counts, latency median and tail (failures as
    ``inf``), completions per second, client backlog and lateness."""
    lat = [o.latency_ms for o in outcomes]
    ok = sum(o.ok for o in outcomes)
    return {
        "sent": len(outcomes),
        "succeeded": ok,
        "failed": len(outcomes) - ok,
        "p50_ms": percentile(lat, 50),
        f"p{tail_pct:g}_ms": percentile(lat, tail_pct),
        "tail_pct": tail_pct,
        "per_s": ok / elapsed_s if elapsed_s > 0 else 0.0,
        "elapsed_s": elapsed_s,
        "wait_ms_mean": (
            sum(o.wait_ms for o in outcomes) / len(outcomes) if outcomes else 0.0
        ),
        "late_ms_max": max((o.late_ms for o in outcomes), default=0.0),
        "errors": sorted({o.error for o in outcomes if o.error})[:5],
    }
