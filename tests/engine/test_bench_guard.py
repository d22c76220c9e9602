"""The benchmark-regression guard's engine-report rules.

``check_bench_regression.py`` gates CI on the committed
``BENCH_engine.json``: a workload's engine-vs-eager speedup may not drop
more than the tolerance below the baseline, and the zero-allocation
contract holds unconditionally.
"""

import importlib.util
import pathlib

_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "check_bench_regression.py",
)
guard = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(guard)


def _report(speedup=3.0, ssa=0):
    return {
        "cpu_count": 4,
        "results": [{"workload": "w", "speedup_fast": speedup}],
        "memory": {"workload": "w@fast", "steady_state_allocations": ssa},
    }


def test_same_thread_count_regression_detected():
    # Rows of reports from before the thread scheduler's removal still
    # carry a "threads" key; it is ignored and the speedups compare.
    baseline = _report(speedup=3.0)
    fresh = _report(speedup=2.0)
    for report in (baseline, fresh):
        report["threads"] = 1
        report["results"][0]["threads"] = 1
    failures = guard.check(baseline, fresh, 0.25)
    assert any("speedup_fast regressed" in f for f in failures)


def test_pre_executor_baseline_without_threads_keys_still_compares():
    baseline = {"results": [{"workload": "w", "speedup_fast": 3.0}]}
    failures = guard.check(baseline, _report(speedup=2.0), 0.25)
    assert any("speedup_fast regressed" in f for f in failures)
    assert not guard.check(baseline, _report(speedup=2.9), 0.25)


def test_steady_state_allocations_fail_unconditionally():
    failures = guard.check(_report(), _report(ssa=3), 0.25)
    assert any("memory planner regressed" in f for f in failures)
