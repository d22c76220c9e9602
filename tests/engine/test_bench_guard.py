"""The benchmark-regression guard's like-for-like thread comparison.

``check_bench_regression.py`` gates CI on the committed
``BENCH_engine.json``; with the parallel executor the rule is: speedups
only compare between reports measured at the same engine thread count
(and threaded speedups additionally need enough cores on the fresh
host), while the zero-allocation contract holds unconditionally.
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


def _report(threads=1, speedup=3.0, cpu=4, t_speedup=2.0, t_threads=4, ssa=0):
    return {
        "threads": threads,
        "cpu_count": cpu,
        "results": [
            {"workload": "w", "threads": threads, "speedup_fast": speedup}
        ],
        "threaded_speedup": {
            "threads": t_threads,
            "workloads": {"w@fast": {"speedup": t_speedup}},
        },
        "memory": {"workload": "w@fast", "steady_state_allocations": ssa},
    }


def test_same_thread_count_regression_detected():
    failures = guard.check(_report(speedup=3.0), _report(speedup=2.0), 0.25)
    assert any("speedup_fast regressed" in f for f in failures)


def test_mismatched_thread_counts_are_skipped(capsys):
    failures = guard.check(
        _report(threads=1, speedup=3.0), _report(threads=2, speedup=1.0), 0.25
    )
    assert failures == []
    assert "skipping speedup comparison" in capsys.readouterr().out


def test_threaded_speedup_regression_detected():
    failures = guard.check(
        _report(t_speedup=2.0), _report(t_speedup=1.0), 0.25
    )
    assert any("threaded_speedup" in f for f in failures)


def test_threaded_entry_disappearing_on_capable_host_fails():
    fresh = _report()
    fresh["threaded_speedup"] = None  # bench thread resolution broke
    failures = guard.check(_report(), fresh, 0.25)
    assert any("disappeared" in f for f in failures)


def test_threaded_entry_absent_on_single_core_host_is_skipped(capsys):
    fresh = _report(cpu=1)
    fresh["threaded_speedup"] = None  # 1-core host: legitimately omitted
    assert guard.check(_report(), fresh, 0.25) == []
    assert "skipping threaded_speedup" in capsys.readouterr().out


def test_threaded_speedup_skipped_on_small_host(capsys):
    failures = guard.check(
        _report(t_speedup=2.0), _report(t_speedup=1.0, cpu=1), 0.25
    )
    assert failures == []
    assert "skipping threaded_speedup" in capsys.readouterr().out


def test_pre_executor_baseline_without_threads_keys_still_compares():
    baseline = {"results": [{"workload": "w", "speedup_fast": 3.0}]}
    failures = guard.check(baseline, _report(speedup=2.0), 0.25)
    assert any("speedup_fast regressed" in f for f in failures)
    assert not guard.check(baseline, _report(speedup=2.9), 0.25)


def test_steady_state_allocations_fail_unconditionally():
    failures = guard.check(_report(), _report(ssa=3), 0.25)
    assert any("memory planner regressed" in f for f in failures)
