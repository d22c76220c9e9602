"""Served-latency probe: per-request latency under concurrent load.

WiNAS's ``latency_source="measured"`` times isolated single-sample plan
runs; a deployed model instead sees its latency shaped by queueing and
micro-batching.  :func:`served_latency_ms` reproduces that regime without
HTTP: it spins a private event loop, runs the candidate's plan behind a
:class:`~repro.serve.batcher.DynamicBatcher`, drives it with
``concurrency`` closed-loop clients, and reports the mean end-to-end
(enqueue → response) latency per request.
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional

import numpy as np

from repro.serve.batcher import BatchPolicy, DynamicBatcher


def served_latency_ms(
    plan,
    x: np.ndarray,
    concurrency: int = 8,
    requests_per_client: int = 4,
    policy: Optional[BatchPolicy] = None,
    workers: int = 0,
) -> float:
    """Mean per-request latency (ms) of ``plan`` under concurrent load.

    ``x`` is one sample ``(1, C, H, W)``.  Must be called from a thread
    with no running event loop (it owns a private one).  ``workers``
    mirrors ``repro serve --workers``:
    batches then execute in forked worker processes (the plan object is
    inherited through fork — no registry round trip), so the probe sees
    the per-request latency of the *sharded* deployment, IPC included.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
    if policy is None:
        policy = BatchPolicy(
            max_batch_size=max(1, concurrency),
            max_wait_ms=1.0,
            max_queue=max(64, 4 * concurrency),
            default_deadline_ms=0,  # probes never expire
        )

    router = None
    run_plan = plan
    if workers and workers > 0:
        from repro.serve.router import WorkerPlanProxy, WorkerRouter

        router = WorkerRouter(
            model_names=["probe"],
            sample_shapes=[tuple(x.shape[1:])],
            workers=workers,
            replicas=workers,  # one candidate: use every worker
            max_batch_size=policy.max_batch_size,
            plans={"probe": plan},
        ).start()
        run_plan = WorkerPlanProxy(router, "probe")

    async def main() -> float:
        batcher = DynamicBatcher(
            run_plan, policy=policy, name="probe",
            max_inflight=max(2, workers or 1),
        )
        await batcher.start()
        latencies: List[float] = []
        try:
            await batcher.submit(x)  # warmup: first run pays page-in costs

            async def client() -> None:
                for _ in range(requests_per_client):
                    start = time.perf_counter()
                    await batcher.submit(x)
                    latencies.append((time.perf_counter() - start) * 1e3)

            await asyncio.gather(*(client() for _ in range(concurrency)))
        finally:
            await batcher.stop()
        return float(np.mean(latencies))

    try:
        return asyncio.run(main())
    finally:
        if router is not None:
            router.stop()
