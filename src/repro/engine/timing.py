"""Wall-clock measurement helpers shared by the CLI, wiNAS and benchmarks."""

from __future__ import annotations

import time
from statistics import median
from typing import Callable, List

import numpy as np


def measure_callable_ms(
    fn: Callable, *args, repeats: int = 5, warmup: int = 2
) -> float:
    """Median wall-clock of ``fn(*args)`` over ``repeats`` runs, in ms."""
    for _ in range(max(warmup, 0)):
        fn(*args)
    times: List[float] = []
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        fn(*args)
        times.append((time.perf_counter() - start) * 1e3)
    return float(median(times))


def measure_plan_ms(
    plan, x: np.ndarray, repeats: int = 5, warmup: int = 2
) -> float:
    """Median wall-clock of one compiled-plan execution, in ms."""
    return measure_callable_ms(plan.run, x, repeats=repeats, warmup=warmup)
