"""Tests for the benchmark's own logic: synthetic spans and fake clocks,
no wall-clock windows.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import math

import pytest

from perfbench import loadgen, spans


def span(name, start, dur, span_id, parent=None, cat="kernel", **attrs):
    return {
        "name": name,
        "cat": cat,
        "start_ns": start,
        "dur_ns": dur,
        "attrs": attrs,
        "span_id": span_id,
        "parent_id": parent,
    }


class FakeClock:
    """A clock that moves only when the code under test sleeps or when a
    fake request takes time."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


# -- self time and plan arithmetic ---------------------------------------------


def test_self_time_subtracts_overlapping_children_once():
    parent = span("p", 0, 100, "p")
    children = [
        span("a", 10, 20, "a", "p"),  # [10, 30)
        span("b", 20, 30, "b", "p"),  # [20, 50) overlaps a
        span("c", 90, 30, "c", "p"),  # [90, 120) runs past the parent
    ]
    # Covered: [10, 50) + [90, 100) = 50.
    assert spans.self_time_ns(parent, children) == 50


def test_self_time_with_no_children_and_contained_duplicates():
    parent = span("p", 5, 40, "p")
    assert spans.self_time_ns(parent, []) == 40
    twins = [span("a", 10, 10, "a", "p"), span("b", 10, 10, "b", "p")]
    assert spans.self_time_ns(parent, twins) == 30


def test_plan_runs_overhead_bytes_and_family_self_time():
    trace = [
        span("plan_run", 1000, 1_000_000, "r", cat="engine"),
        span("F(4,3)", 1000 + 100_000, 500_000, "w", "r", op="winograd_conv2d", out_bytes=300),
        # Chunk children under the Winograd step: overlapping lanes.
        span("chunk", 1000 + 100_000, 200_000, "w0", "w", cat="chunk"),
        span("chunk", 1000 + 200_000, 200_000, "w1", "w", cat="chunk"),
        span("add", 1000 + 700_000, 100_000, "a", "r", op="add", out_bytes=100),
        span("max_pool", 1000 + 800_000, 50_000, "m", "r", op="max_pool", out_bytes=20),
        # A grandchild is not a step of the plan.
        span("nested", 1000 + 710_000, 10_000, "n", "a", op="add", out_bytes=999),
    ]
    (row,) = spans.plan_runs(trace)
    assert row["run_ms"] == pytest.approx(1.0)
    assert row["kernel_ms"] == pytest.approx(0.65)
    assert row["overhead_ms"] == pytest.approx(1.0 - 0.65)
    assert row["out_bytes"] == 420
    # Winograd step: 0.5 ms minus the [100k, 400k) its chunks cover.
    assert row["winograd_ms"] == pytest.approx(0.2)
    assert row["add_ms"] == pytest.approx(0.09)
    assert row["pool_ms"] == pytest.approx(0.05)
    assert row["conv2d_ms"] == 0.0 and row["linear_ms"] == 0.0


def test_plan_runs_one_row_per_root_and_median():
    trace = []
    for i, (total, step) in enumerate([(10, 4), (30, 10), (20, 8)]):
        trace.append(span("plan_run", i * 100, total, f"r{i}", cat="engine"))
        trace.append(span("linear", i * 100 + 1, step, f"s{i}", f"r{i}", op="linear"))
    rows = spans.plan_runs(trace)
    assert [r["overhead_ms"] * 1e6 for r in rows] == pytest.approx([6, 20, 12])
    assert spans.median_by_key(rows)["overhead_ms"] == pytest.approx(12e-6)


# -- percentiles and the ten-beyond rule ---------------------------------------


@pytest.mark.parametrize("pct,needed", [(50, 20), (90, 100), (95, 200), (99, 1000)])
def test_samples_needed_leaves_ten_beyond(pct, needed):
    assert spans.samples_needed(pct) == needed
    assert spans.tail_supported(needed, pct)
    assert not spans.tail_supported(needed - 1, pct)
    # At the threshold, at least ten samples lie above the percentile.
    values = list(range(needed))
    cut = spans.percentile(values, pct)
    assert sum(v > cut for v in values) >= 10


def test_samples_needed_rejects_p100():
    with pytest.raises(ValueError):
        spans.samples_needed(100)


def test_percentile_interpolates_and_failures_miss_limits():
    assert spans.percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert spans.percentile([5], 95) == 5
    assert spans.percentile([1, 2, math.inf, math.inf], 95) == math.inf
    assert spans.percentile([], 50) == math.inf


# -- the Poisson schedule ------------------------------------------------------


def test_poisson_schedule_is_deterministic_per_seed():
    a = loadgen.poisson_schedule(7, 60.0, 200)
    assert a == loadgen.poisson_schedule(7, 60.0, 200)
    assert a != loadgen.poisson_schedule(8, 60.0, 200)
    assert a == sorted(a) and len(a) == 200


def test_poisson_schedule_offers_exactly_the_rate():
    rate, k = 50.0, loadgen.STRATUM
    offsets = loadgen.poisson_schedule(3, rate, 10 * k + 1)
    assert len(offsets) == 11 * k  # rounded up to whole strata
    window = k / rate
    for stratum in range(11):
        inside = [t for t in offsets if stratum * window <= t < (stratum + 1) * window]
        assert len(inside) == k


def test_split_schedule_rebases_each_piece():
    rate = 20.0
    offsets = loadgen.poisson_schedule(1, rate, 40)
    pieces = loadgen.split_schedule(offsets, rate, 3)
    assert sum(len(p) for p in pieces) == len(offsets)
    window = loadgen.STRATUM / rate
    assert all(0 <= t < len(p) // loadgen.STRATUM * window for p in pieces for t in p)
    first, second = pieces[0], pieces[1]
    assert second[0] == pytest.approx(offsets[len(first)] - len(first) // loadgen.STRATUM * window)
    with pytest.raises(ValueError):
        loadgen.split_schedule(offsets, rate, 11)


# -- generators: due-time latency and failure accounting ----------------------


def test_open_loop_times_from_due_time_and_counts_backlog():
    clock = FakeClock()

    def send(index):
        clock.now += 1.5  # each request takes 1.5 s; arrivals every 1 s
        return index

    outcomes = loadgen.run_open_loop(
        [1.0, 2.0, 3.0], [send], lambda i, r: r == i, clock=clock, sleep=clock.sleep, lead_s=0.0
    )
    assert [o.ok for o in outcomes] == [True, True, True]
    # Request 1 is due at 2.0 but sent at 2.5; request 2 due 3.0, sent 4.0.
    assert [o.latency_ms for o in outcomes] == pytest.approx([1500, 2000, 2500])
    assert [o.wait_ms for o in outcomes] == pytest.approx([0, 500, 1000])
    assert max(o.late_ms for o in outcomes) == pytest.approx(0)
    summary = loadgen.summarize(outcomes, 3.0, 95)
    assert summary["wait_ms_mean"] == pytest.approx(500)
    assert summary["p50_ms"] == pytest.approx(2000)


def test_open_loop_accounts_every_request_and_its_failure():
    clock = FakeClock()

    def send(index):
        clock.now += 0.01
        if index == 1:
            raise ConnectionError("reset by peer")
        if index == 2:
            raise TimeoutError("read timed out")
        return index

    def check(index, response):
        return index != 3  # a wrong answer

    schedule = [0.1 * i for i in range(6)]
    outcomes = loadgen.run_open_loop(
        schedule, [send], check, clock=clock, sleep=clock.sleep
    )
    summary = loadgen.summarize(outcomes, 1.0, 95)
    assert summary["sent"] == len(schedule) == len(outcomes)
    assert summary["succeeded"] + summary["failed"] == summary["sent"]
    assert summary["failed"] == 3
    failed = {o.index for o in outcomes if not o.ok}
    assert failed == {1, 2, 3}
    assert all(math.isinf(o.latency_ms) for o in outcomes if not o.ok)
    assert summary["p95_ms"] == math.inf  # failures miss every limit
    assert any("ConnectionError" in e for e in summary["errors"])


def test_open_loop_with_two_workers_accounts_everything():
    schedule = [0.0] * 40
    outcomes = loadgen.run_open_loop(
        schedule, [lambda i: i, lambda i: -1], lambda i, r: r == i, lead_s=0.0
    )
    assert len(outcomes) == 40
    assert sorted(o.index for o in outcomes) == list(range(40))
    assert sum(o.ok for o in outcomes) + sum(not o.ok for o in outcomes) == 40


def test_closed_loop_stops_at_time_and_minimum_count():
    clock = FakeClock()

    def send(index):
        clock.now += 0.25
        return index

    outcomes, elapsed = loadgen.run_closed_loop(
        [send], lambda i, r: True, seconds=1.0, min_count=10, max_seconds=100.0, clock=clock
    )
    assert len(outcomes) == 10  # 1 s passed after 4, the minimum ruled
    assert elapsed == pytest.approx(2.5)
    summary = loadgen.summarize(outcomes, elapsed, 95)
    assert summary["per_s"] == pytest.approx(4.0)
    assert summary["wait_ms_mean"] == 0.0

    clock = FakeClock()
    outcomes, _ = loadgen.run_closed_loop(
        [send], lambda i, r: True, seconds=1.0, min_count=10_000, max_seconds=3.0, clock=clock
    )
    assert len(outcomes) == 12  # the cap ends it


def test_closed_loop_counts_raised_and_rejected():
    clock = FakeClock()

    def send(index):
        clock.now += 0.1
        if index % 3 == 0:
            raise OSError("refused")
        return index

    outcomes, elapsed = loadgen.run_closed_loop(
        [send], lambda i, r: i % 3 != 1, seconds=0.0, min_count=9, max_seconds=10.0, clock=clock
    )
    summary = loadgen.summarize(outcomes, elapsed, 95)
    assert summary["sent"] == 9
    assert summary["failed"] == 6
    assert summary["per_s"] == pytest.approx(3 / 0.9)


# -- the declared benchmark ----------------------------------------------------


def test_benchmark_json_declares_what_run_prints():
    import json
    import os

    from perfbench import run

    root = os.path.dirname(os.path.dirname(os.path.abspath(run.__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)
    for key, printed in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in declared[key]} == printed
    assert any(m["name"] == "setup_s" for m in declared["end_to_end"])
    # Every phase's sample floor leaves ten samples beyond the tail.
    assert run.SLICE_MIN * run.SLICES >= spans.samples_needed(run.TAIL_PCT)
    assert run.MIN_SAMPLES >= spans.samples_needed(run.TAIL_PCT)
