"""The execution plan IR and its zero-allocation executor.

A compiled plan is a flat list of :class:`Step`s over a register file:
each step reads input registers, calls its kernel, and writes one output
register.  No autograd graph is built; every array is a plain
``np.ndarray`` and parameters were frozen (and pre-transformed) at
compile time.

The executor walks the steps in order on the calling thread, every step
over the whole batch.  A **memory plan** (see :mod:`repro.engine.memplan`)
assigns registers liveness-disjoint arena slots at compile time, and
kernels route their temporaries through a per-run arena, so
steady-state inference allocates nothing.  Concurrent runs of one shared
plan each check out their own arena; parallelism across cores comes
from worker processes (``repro serve --workers``), not from the
executor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import memplan
from repro.obs import trace as obs_trace

@dataclass
class Step:
    """One kernel invocation in a compiled plan."""

    op: str
    inputs: Tuple[int, ...]
    output: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    fn: Optional[Callable] = None  # resolved kernel, bound at compile time
    frees: Tuple[int, ...] = ()  # registers whose last use is this step
    #: Execution domain: "float", or "int8" when the step carries native
    #: integer-arithmetic buffers (quantized weights as integer codes,
    #: requant multipliers) prepared by repro.engine.int8.
    domain: str = "float"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" [{self.label}]" if self.label else ""
        return f"Step({self.op}{label}: r{self.inputs} -> r{self.output})"


class CompiledPlan:
    """A flat, autograd-free inference program.

    Built by :func:`repro.engine.compile.compile_model`; run with
    :meth:`run` on one NCHW batch.

    ``planning`` (on for every backend but ``reference``) controls the
    arena executor.
    """

    def __init__(
        self,
        steps: List[Step],
        num_regs: int,
        input_reg: int,
        output_reg: int,
        backend: str,
        signature: str,
        source: str = "",
    ):
        self.steps = steps
        self.num_regs = num_regs
        self.input_reg = input_reg
        self.output_reg = output_reg
        self.backend = backend
        self.signature = signature
        self.source = source  # class name of the compiled module
        # The reference backend is the fidelity oracle: it keeps the
        # original allocate-per-step execution (its kernels ignore the
        # arena anyway, so planning would only burn memory).
        self.planning = backend != "reference"
        self._mem_lock = threading.Lock()
        self._mem_pools: Dict[tuple, Optional[memplan.ArenaPool]] = {}
        self._finalize()

    # -- liveness ----------------------------------------------------------
    def _finalize(self) -> None:
        """Compute per-step register death so the executor frees memory."""
        last_use: Dict[int, int] = {self.input_reg: -1}
        for i, step in enumerate(self.steps):
            for reg in step.inputs:
                last_use[reg] = i
        # The plan output must survive the whole run.
        last_use[self.output_reg] = len(self.steps)
        for i, step in enumerate(self.steps):
            step.frees = tuple(
                reg for reg in set(step.inputs) if last_use.get(reg) == i
            )

    # -- memory planning ---------------------------------------------------
    def _memory(self, sample_shape: tuple) -> Optional[memplan.ArenaPool]:
        """The arena pool for one per-sample input shape (lazily planned)."""
        if not self.planning:
            return None
        key = tuple(sample_shape)
        with self._mem_lock:
            pool = self._mem_pools.get(key, False)
            if pool is False:
                layout = memplan.plan_layout(
                    self.steps, self.input_reg, self.output_reg, key
                )
                pool = memplan.ArenaPool(layout) if layout is not None else None
                self._mem_pools[key] = pool
            return pool

    def prepare(self, input_shape: Sequence[int]) -> "CompiledPlan":
        """Build the memory plan for ``input_shape`` ahead of traffic
        (called by :func:`repro.engine.cache.get_cached_plan`, which knows
        the input shape at compile time)."""
        if len(input_shape) >= 2:
            self._memory(tuple(input_shape[1:]))
        return self

    # -- execution ------------------------------------------------------------
    def run(
        self,
        x: np.ndarray,
        threads: int = 1,
        trace: Optional["obs_trace.TraceBuffer"] = None,
    ) -> np.ndarray:
        """Execute the plan on one input batch (NCHW ``np.ndarray``).

        ``trace`` records one span per step into the given
        :class:`repro.obs.TraceBuffer` (``None`` falls back to the ambient
        ``REPRO_TRACE`` tracer; tracing never changes results — the
        instrumented loop walks the same steps with the same arena
        bindings).  With tracing disabled this is a single ``is None``
        branch in front of the untouched hot loop.  ``threads`` accepts
        only ``1``: the executor runs every step whole, on the calling
        thread.
        """
        if threads != 1:
            raise ValueError(
                f"threads={threads!r}: the executor runs on one thread; "
                "scale across cores with worker processes instead"
            )
        tracer = trace if trace is not None else obs_trace.active_tracer()
        if tracer is not None:
            return self._run_traced(x, tracer)
        return self._run_untraced(x)

    def _run_untraced(self, x: np.ndarray) -> np.ndarray:
        """The pristine executor loop (no instrumentation on this path;
        ``repro bench engine`` measures it against :meth:`run` to pin the
        tracing-disabled overhead ≤ 1%)."""
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
        n = x.shape[0]
        pool = self._memory(x.shape[1:])
        arena = pool.checkout() if pool is not None else None
        prev = memplan.activate(arena)
        try:
            if arena is not None:
                arena.begin_run(n)
            regs: List[Optional[np.ndarray]] = [None] * self.num_regs
            regs[self.input_reg] = x
            for step_index, step in enumerate(self.steps):
                args = tuple(regs[i] for i in step.inputs)
                if arena is not None:
                    arena.enter_step(step_index, step.output)
                regs[step.output] = step.fn(args, step.attrs)
                for reg in step.frees:
                    if reg != step.output:
                        regs[reg] = None
            out = regs[self.output_reg]
            assert out is not None, "plan produced no output"
            if arena is not None and arena.owns(out):
                # The caller keeps the result; arena buffers go back to
                # the pool and will be overwritten by the next run.
                out = out.copy()
            return out
        finally:
            memplan.activate(prev)
            if arena is not None:
                pool.checkin(arena)

    def _run_traced(
        self, x: np.ndarray, tracer: "obs_trace.TraceBuffer"
    ) -> np.ndarray:
        """The instrumented twin of :meth:`_run_untraced`: the same steps
        and arena bindings with one ``kernel`` span per step and a
        ``plan_run`` root span.  Kept as a separate loop so the untraced
        path carries zero per-step tracing branches."""
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
        n = x.shape[0]
        pool = self._memory(x.shape[1:])
        arena = pool.checkout() if pool is not None else None
        prev = memplan.activate(arena)
        root_id = obs_trace.new_span_id()
        t_run = obs_trace.now_ns()
        try:
            if arena is not None:
                arena.begin_run(n)
            regs: List[Optional[np.ndarray]] = [None] * self.num_regs
            regs[self.input_reg] = x
            for step_index, step in enumerate(self.steps):
                args = tuple(regs[i] for i in step.inputs)
                out_view = None
                if arena is not None:
                    out_view = arena.enter_step(step_index, step.output)
                t_step = obs_trace.now_ns()
                result = regs[step.output] = step.fn(args, step.attrs)
                if step.domain == "int8":
                    domain = (
                        "int8-wino" if step.op == "winograd_conv2d" else "int8"
                    )
                else:
                    domain = (
                        "winograd" if step.op == "winograd_conv2d" else "fp32"
                    )
                tracer.record(
                    step.label or step.op,
                    "kernel",
                    t_step,
                    attrs={
                        "step": step_index,
                        "op": step.op,
                        "backend": self.backend,
                        "domain": domain,
                        "batch": n,
                        "out_bytes": int(result.nbytes),
                        "slot_bytes": (
                            int(out_view.nbytes) if out_view is not None else None
                        ),
                    },
                    parent_id=root_id,
                )
                for reg in step.frees:
                    if reg != step.output:
                        regs[reg] = None
            out = regs[self.output_reg]
            assert out is not None, "plan produced no output"
            if arena is not None and arena.owns(out):
                out = out.copy()
            return out
        finally:
            tracer.record(
                "plan_run",
                "engine",
                t_run,
                attrs={
                    "backend": self.backend,
                    "source": self.source,
                    "batch": n,
                    "steps": len(self.steps),
                },
                span_id=root_id,
            )
            memplan.activate(prev)
            if arena is not None:
                pool.checkin(arena)

    def __call__(self, x) -> np.ndarray:
        data = x.data if hasattr(x, "data") else x
        return self.run(data)

    # -- introspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.steps)

    def ops_used(self) -> Tuple[str, ...]:
        return tuple(sorted({s.op for s in self.steps}))

    def int8_report(self) -> Dict[str, int]:
        """Counts of native-int8 steps, integer-code handoffs, absorbed
        BatchNorms and NCHW↔NHWC layout conversions (the compile-time
        work the ``int8`` backend performed)."""
        native = [s for s in self.steps if s.domain == "int8"]
        return {
            "layout_conversions": sum(1 for s in self.steps if s.op == "transpose"),
            "native_int8_steps": len(native),
            "int_handoffs": sum(
                1 for s in native if s.attrs.get("i8", {}).get("emit_q") is not None
            ),
            "absorbed_affines": sum(
                1 for s in native if s.attrs.get("i8", {}).get("post") is not None
            ),
        }

    def residency_report(self) -> List[Dict[str, Any]]:
        """Always empty: no step keeps its output in the transform domain."""
        return []

    def memory_report(self, batch: Optional[int] = None) -> Dict[str, Any]:
        """The memory planner's static layout plus runtime arena counters.

        Static (per planned input shape): registers, arena slots,
        ``buffers_reused`` (registers sharing a slot thanks to disjoint
        liveness) and peak arena bytes.  Runtime (aggregated over the
        plan's arena pools): arenas built, resident bytes, and
        ``steady_state_allocations`` — arena buffer allocations during
        the *most recent* run, which drops to zero once warm (the
        zero-allocation contract) — next to ``allocations_eliminated``,
        the number of buffer requests that hit an existing workspace.
        """
        with self._mem_lock:
            pools = dict(self._mem_pools)
        report: Dict[str, Any] = {
            "planning": self.planning,
            "registers": self.num_regs,
            "planned_shapes": [],
            "arenas_built": 0,
            "arena_bytes": 0,
            "scratch_bytes": 0,
            "steady_state_allocations": 0,
            "allocations_eliminated": 0,
            "shape_misses": 0,
        }
        for key, pool in sorted(pools.items(), key=lambda kv: str(kv[0])):
            entry: Dict[str, Any] = {"sample_shape": list(key)}
            if pool is None:
                entry["planned"] = False
                report["planned_shapes"].append(entry)
                continue
            entry["planned"] = True
            entry.update(pool.layout.summary())
            if batch is not None:
                entry["arena_bytes_at_batch"] = (
                    pool.layout.bytes_per_sample * int(batch)
                )
            stats = pool.stats()
            entry["arenas_built"] = stats["arenas_built"]
            report["planned_shapes"].append(entry)
            report["arenas_built"] += stats["arenas_built"]
            report["arena_bytes"] += stats["arena_bytes"]
            report["scratch_bytes"] += stats["scratch_bytes"]
            report["steady_state_allocations"] += stats["last_run_allocs"]
            report["allocations_eliminated"] += stats["last_run_reuse_hits"]
            report["shape_misses"] += stats["shape_misses"]
        return report

    def describe(self) -> List[str]:
        """Human-readable step listing (used by ``repro infer --describe``)."""
        lines = [f"CompiledPlan({self.source}, backend={self.backend}, {len(self.steps)} steps)"]
        for i, step in enumerate(self.steps):
            tag = " +relu" if step.attrs.get("fuse_relu") else ""
            if step.domain != "float":
                tag += f" <{step.domain}>"
            if "layout" in step.attrs:
                tag += f" <{step.attrs['layout']}>"
            label = f" [{step.label}]" if step.label else ""
            ins = ",".join(f"r{r}" for r in step.inputs)
            lines.append(f"  {i:3d}: {step.op}{tag}{label} ({ins}) -> r{step.output}")
        with self._mem_lock:
            pools = [p for p in self._mem_pools.values() if p is not None]
        for pool in pools:
            s = pool.layout.summary()
            lines.append(
                f"  memory: {s['planned_registers']} registers in {s['slots']} "
                f"slots ({s['buffers_reused']} reused), "
                f"{s['arena_bytes_per_sample']} arena bytes/sample"
            )
        return lines

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledPlan(source={self.source!r}, backend={self.backend!r}, "
            f"steps={len(self.steps)})"
        )
