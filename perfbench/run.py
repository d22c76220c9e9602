#!/usr/bin/env python3
"""Run one workload of the benchmark of record and print its result.

    python3 perfbench/run.py --workload infer-int8 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` makes the same untraced run, then a traced one, and
reports the per-layer metrics.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the spans and
phase statistics are written to ``.perfbench_out/`` when the run ends.
Workloads, metrics and which end-to-end number each layer moves are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import loadgen, spans  # noqa: E402
from perfbench.host import PIN_ENV, fingerprint, pin_blas_threads, speed_probe_ms  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BATCH = 8
#: The tail each phase summary reports.  A closed-loop phase has at least
#: :data:`MIN_SAMPLES`, twice the floor that leaves ten samples beyond it:
#: on a host whose speed drifts, a tail resting on ten samples moves with
#: a single hiccup.  The open loop, which no gated metric reads, keeps
#: only the floor so that most of the run goes to the gated phases.
TAIL_PCT = 90.0
MIN_SAMPLES = 2 * spans.samples_needed(TAIL_PCT)
#: Distinct samples a serve run cycles through (each with its direct
#: ``plan.run`` output precomputed as the expected response).
SAMPLE_POOL = 32
INFER_SETUP_REPEATS = 7
SERVE_SETUP_REPEATS = 3
SERVE_LOAD_CONNECTIONS = 2
#: Each timed phase runs in this many slices, round-robin with the other
#: phases, so every phase samples the whole run: the host's speed drifts
#: by ±20% over tens of seconds, and back-to-back phases would each see a
#: different part of that drift.
SLICES = 10
SLICE_MIN = -(-MIN_SAMPLES // SLICES)

#: name → (kind, variant).
WORKLOADS = {
    "infer-fp32": ("infer", "resnet18-w0.25-F4-fp32@fast"),
    "infer-int8": ("infer", "resnet18-w0.25-F4-int8@int8"),
    "infer-im2row": ("infer", "resnet18-w0.25-im2row-fp32@fast"),
    "serve-int8": ("serve", "resnet18-w0.25-F4-int8@int8"),
}
#: Each open loop sends at this share of the capacity the run measured in
#: a short closed loop just before it: ~55% for serve (60 requests/s on
#: a 2-core x86-64 host), 40% for the infer loops.
#: Queueing delay grows as 1/(1 - utilisation).  At a fixed rate, the
#: host's ±20% speed drift moved the open-loop tail by 25-40% between
#: runs; at a fixed utilisation it follows the program as solo latency
#: does.
LOAD_UTILISATION = {"infer": 0.4, "serve": 0.55}
#: Closed-loop requests that measure that capacity.
RATE_CALIBRATION = {"infer": 20, "serve": 100}

END_TO_END_UNITS = {
    "setup_s": "s",
    "success_rate": "ratio",
    "images_per_s": "1/s",
    "solo_p50_ms": "ms",
}

PER_LAYER_UNITS = {
    "compile.ms": "ms",
    "compile.steps": "count",
    "compile.residency_edges": "count",
    "memplan.prepare_ms": "ms",
    "memplan.arena_bytes": "bytes",
    "memplan.steady_state_allocations": "count",
    "plan.overhead_ms": "ms",
    "plan.out_bytes": "bytes",
    **{f"kernels.{family}_ms": "ms" for family in spans.FAMILIES},
    "int8.native_steps": "count",
    "int8.int_handoffs": "count",
    "artifact.save_ms": "ms",
    "artifact.load_ms": "ms",
    "artifact.bytes": "bytes",
    "serve.frontend_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.run_ms": "ms",
    "serve.batch_size": "count",
    "serve.plan_run_ms": "ms",
    "serve.kernel_ms": "ms",
    "loadgen.wait_ms": "ms",
    "loadgen.late_ms_max": "ms",
    "trace.overhead_pct": "%",
}


class Run:
    """State of one benchmark invocation: the seed, the benchmark's own
    span buffer (spans around each call into a layer), failure counts,
    and the phase statistics written out at the end."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        from repro.obs import TraceBuffer

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.spans = TraceBuffer(capacity=1 << 20)
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.phases = {}
        self.outcomes = {}
        self.notes = {}
        self.layer = {name: 0.0 for name in PER_LAYER_UNITS}
        self.e2e = {}

    def rng(self, stream: int):
        import numpy as np

        return np.random.default_rng([self.seed, stream])

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a benchmark span named ``name``."""
        from repro.obs import now_ns

        t0 = now_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.record(name, "bench", t0)

    def span_ms(self, name: str):
        return spans.span_ms([s.to_dict() for s in self.spans.snapshot()], name)

    def check(self, name: str, ok: bool, weight: int = 1) -> bool:
        """Record one output check; a failed check fails ``weight`` ops.
        A check made repeatedly under one name passes only if all pass."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        self.attempted += weight
        if not ok:
            self.failed += weight
        return ok

    def phase(self, name: str, outcomes, elapsed_s: float) -> dict:
        summary = loadgen.summarize(outcomes, elapsed_s, TAIL_PCT)
        summary["tail_supported"] = spans.tail_supported(len(outcomes), TAIL_PCT)
        self.attempted += summary["sent"]
        self.failed += summary["failed"]
        self.phases[name] = summary
        self.outcomes[name] = outcomes
        print(json.dumps({"phase": name, **summary}), flush=True)
        return summary


def run_slices(run: Run, phases) -> dict:
    """Run ``phases`` (``(name, fn)`` pairs; ``fn(k)`` runs slice ``k`` and
    returns ``(outcomes, elapsed_s)``) in :data:`SLICES` round-robin
    slices; returns the phase summaries by name."""
    outcomes = {name: [] for name, _ in phases}
    elapsed = dict.fromkeys(outcomes, 0.0)
    for k in range(SLICES):
        for name, fn in phases:
            got, seconds = fn(k)
            outcomes[name].extend(got)
            elapsed[name] += seconds
    return {name: run.phase(name, outcomes[name], elapsed[name]) for name in outcomes}


def open_loop_schedule(run: Run, kind: str, senders, check):
    """The seeded Poisson schedule of a workload's open loop, cut into
    :data:`SLICES`, at :data:`LOAD_UTILISATION` of the capacity measured
    by a closed loop over ``senders`` right before.  Returns
    ``(pieces, rate_per_s)``."""
    calibration = run.phase("rate_calibration", *loadgen.run_closed_loop(
        senders, check, 0.0, RATE_CALIBRATION[kind], 30.0
    ))
    rate = LOAD_UTILISATION[kind] * calibration["sent"] / calibration["elapsed_s"]
    count = max(spans.samples_needed(TAIL_PCT), round(rate * 0.3 * run.seconds))
    schedule = loadgen.poisson_schedule(run.seed, rate, count)
    return loadgen.split_schedule(schedule, rate, SLICES), rate


def _finite(value: float, fallback: float) -> float:
    """Failures enter percentiles as ``inf``; report the phase length
    instead so the result stays valid JSON (the run is failed anyway)."""
    return value if value != float("inf") else fallback


def solo_latency(run: Run, solo: dict) -> None:
    """The gated latency metric is the solo median.  The solo tail and the
    open loop's latencies stay in the phase summaries: the host's speed
    drifts by 20-40% over minutes, and over ten runs in a row their
    spreads reached 0.23-0.26 of their medians (queueing amplifies the
    drift), at or above the 0.25 a bound may not exceed."""
    run.e2e["solo_p50_ms"] = _finite(solo["p50_ms"], solo["elapsed_s"] * 1e3)


def build_plan(run: Run, spec, batch: int):
    """Model build, calibration, ``compile_model`` and ``prepare`` — the
    path ``repro.serve.registry.compile_served`` takes, through the
    engine's public calls so each layer is timed on its own."""
    from repro.autograd import Tensor, no_grad
    from repro.engine import compile_model
    from repro.serve.registry import build_model

    model, (channels, size) = run.timed("build", build_model, spec)
    calib = run.rng(1).standard_normal((4, channels, size, size)).astype("float32")
    if spec.backend == "int8":
        # Freeze every observer eagerly so the plan comes up fully native.
        with no_grad():
            run.timed("calibrate", model, Tensor(calib))
    plan = run.timed("compile", compile_model, model, backend=spec.backend)
    run.timed("prepare", plan.prepare, (batch, channels, size, size))
    run.timed("calibrate_run", plan.run, calib, threads=1)
    return model, plan, (channels, size)


def warm(run: Run, plan, x) -> None:
    """Run until the arena reaches its zero-allocation steady state."""
    for i in range(50):
        run.timed("warmup", plan.run, x, threads=1)
        if i >= 2 and plan.memory_report()["steady_state_allocations"] == 0:
            return


def engine_layers(run: Run, plan) -> None:
    """Per-layer numbers read from the plan's own reports."""
    memory = plan.memory_report()
    int8 = plan.int8_report()
    run.layer.update(
        {
            "compile.ms": median(run.span_ms("compile")),
            "compile.steps": len(plan.steps),
            "compile.residency_edges": len(plan.residency_report()),
            "memplan.prepare_ms": median(run.span_ms("prepare")),
            "memplan.arena_bytes": memory["arena_bytes"],
            "memplan.steady_state_allocations": memory["steady_state_allocations"],
            "int8.native_steps": int8["native_int8_steps"],
            "int8.int_handoffs": int8["int_handoffs"],
        }
    )


def plan_layers(run: Run, plan_spans) -> dict:
    rows = spans.median_by_key(spans.plan_runs(plan_spans))
    run.layer["plan.overhead_ms"] = rows["overhead_ms"]
    run.layer["plan.out_bytes"] = rows["out_bytes"]
    for family in spans.FAMILIES:
        run.layer[f"kernels.{family}_ms"] = rows[f"{family}_ms"]
    return rows


# -- infer-* -------------------------------------------------------------------


def oracle_check(run: Run, spec, model, x, out) -> bool:
    """fp32: within the fast backend's documented tolerance of the
    ``reference`` backend; int8: bit-identical to the int64-GEMM oracle."""
    import numpy as np
    from types import SimpleNamespace

    if spec.backend == "int8":
        from repro.testing.oracle import int8_oracle_output

        return run.check("int8_oracle", np.array_equal(int8_oracle_output(model, x), out))
    from repro.engine import compile_model
    from repro.testing.diffcheck import _assert_fast_tolerance

    expected = compile_model(model, backend="reference").run(x)
    case = SimpleNamespace(quantized=False, seed=run.seed, description=spec.name)
    try:
        _assert_fast_tolerance(case, out, expected, "fast vs reference")
        ok = True
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        ok = False
    return run.check("fast_tolerance", ok)


def run_infer(run: Run, model_name: str) -> None:
    import numpy as np
    from repro.serve.registry import ModelSpec

    spec = dataclasses.replace(ModelSpec.parse(model_name), seed=run.seed)
    setups = []
    for _ in range(INFER_SETUP_REPEATS):
        t0 = time.perf_counter()
        model, plan, (channels, size) = build_plan(run, spec, BATCH)
        x = run.rng(2).standard_normal((BATCH, channels, size, size)).astype(np.float32)
        warm(run, plan, x)
        setups.append(time.perf_counter() - t0)
    run.e2e["setup_s"] = median(setups)

    first = plan.run(x, threads=1)
    good = oracle_check(run, spec, model, x, first)

    def send(_index):
        return plan.run(x, threads=1)

    def check(_index, out):
        return good and np.array_equal(out, first)

    pieces, rate = open_loop_schedule(run, "infer", [send], check)
    phases = run_slices(run, [
        ("solo", lambda k: loadgen.run_closed_loop(
            [send], check, 0.5 * run.seconds / SLICES, SLICE_MIN, 30.0
        )),
        ("load", lambda k: (loadgen.run_open_loop(pieces[k], [send], check), pieces[k][-1])),
    ])
    solo, load = phases["solo"], phases["load"]
    load["rate_per_s"] = rate
    run.e2e["images_per_s"] = BATCH * solo["per_s"]
    solo_latency(run, solo)
    run.layer["loadgen.wait_ms"] = load["wait_ms_mean"]
    run.layer["loadgen.late_ms_max"] = load["late_ms_max"]
    if not run.trace:
        return

    # Traced run: interleave untraced and traced calls so the overhead is
    # a paired ratio, and keep the engine's spans for the layer numbers.
    from repro.obs import TraceBuffer

    buffer = TraceBuffer(capacity=1 << 20)
    plain, traced = [], []
    pairs = max(50, round(0.1 * run.seconds * solo["per_s"]))
    for _ in range(pairs):
        t0 = time.perf_counter()
        a = plan.run(x, threads=1)
        t1 = time.perf_counter()
        b = plan.run(x, threads=1, trace=buffer)
        t2 = time.perf_counter()
        plain.append(t1 - t0)
        traced.append(t2 - t1)
        run.check("traced_run", good and np.array_equal(a, first) and np.array_equal(b, first), 2)
    engine_layers(run, plan)
    plan_layers(run, [s.to_dict() for s in buffer.snapshot()])
    run.layer["trace.overhead_pct"] = 100.0 * (median(traced) / median(plain) - 1.0)
    run.spans.extend(buffer.snapshot())


# -- serve-int8 ----------------------------------------------------------------


class Server:
    """``repro serve`` in a subprocess of its own session, pinned like the
    benchmark; ``stop`` drains it with SIGTERM and reaps it."""

    BANNER = re.compile(r"serving on (http://[\d.]+:\d+)")

    def __init__(self, artifact: str, traced: bool):
        env = dict(os.environ, **PIN_ENV)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env.pop("REPRO_THREADS", None)
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--model", artifact, "--host", "127.0.0.1", "--port", "0",
            "--threads", "1", "--trace-rate", "1" if traced else "0",
        ]
        self.log = []
        self.url = None
        self._ready = threading.Event()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        self._drain = threading.Thread(target=self._read, daemon=True)
        self._drain.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.log.append(line)
            match = self.BANNER.search(line)
            if match and self.url is None:
                self.url = match.group(1)
                self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout: float = 60.0) -> str:
        self._ready.wait(timeout)
        if self.url is None:
            self.stop()
            raise RuntimeError("server never came up:\n" + "".join(self.log)[-2000:])
        return self.url

    def stop(self) -> None:
        import signal

        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=20)
        self._drain.join(timeout=20)


def boot(artifact: str, sample, traced: bool):
    """Spawn a server and poll ``/predict`` until the first success."""
    from repro.serve.client import ServeClient, ServeClientError

    server = Server(artifact, traced)
    try:
        url = server.wait_ready()
        deadline = time.monotonic() + 60.0
        with ServeClient(url, timeout=10.0) as client:
            while True:
                try:
                    client.predict_raw(sample, encoding="b64")
                    break
                except ServeClientError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
        return server, url
    except BaseException:
        server.stop()
        raise


def run_serve(run: Run, model_name: str) -> None:
    import numpy as np
    from repro.engine.artifact import load_plan, save_plan
    from repro.obs import Span
    from repro.serve.client import ServeClient
    from repro.serve.registry import ModelSpec

    spec = dataclasses.replace(ModelSpec.parse(model_name), seed=run.seed)
    model, plan, (channels, size) = build_plan(run, spec, 1)
    pool = run.rng(3).standard_normal((SAMPLE_POOL, channels, size, size)).astype(np.float32)
    warm(run, plan, pool[:1])
    expected = [plan.run(pool[i : i + 1], threads=1)[0] for i in range(SAMPLE_POOL)]
    os.makedirs(OUT_DIR, exist_ok=True)
    artifact = os.path.join(OUT_DIR, f"{run.workload}-s{run.seed}.rpln")
    extra = {"model": spec.name, "seed": run.seed}

    #: phase -> (queue_ms, run_ms, batch_size) the server reported for
    #: each answered request: the same clocks ``/metrics`` aggregates,
    #: without its window of the last 4096 observations.
    served = {}

    def check_in(phase):
        def check(i, response):
            served.setdefault(phase, []).append(
                (response["queue_ms"], response["run_ms"], response["batch_size"])
            )
            got = ServeClient.decode_output(response["output"], response)
            return np.array_equal(got, expected[i % SAMPLE_POOL])

        return check

    def mean_served(phases, field):
        values = [row[field] for phase in phases for row in served.get(phase, ())]
        return float(np.mean(values)) if values else 0.0

    def connect(url):
        client = stack.enter_context(ServeClient(url, timeout=10.0))
        client.connect()
        send = lambda i: client.predict_raw(pool[i % SAMPLE_POOL], encoding="b64")  # noqa: E731
        for i in range(2 * SAMPLE_POOL):  # warm the server, unscored
            send(i)
        return client, send

    with contextlib.ExitStack() as stack:
        # Runs last: the servers mapping the artifact have stopped by then.
        stack.callback(lambda: os.path.exists(artifact) and os.remove(artifact))
        setups = []
        for _ in range(SERVE_SETUP_REPEATS):
            t0 = time.perf_counter()
            saved = run.timed(
                "save_plan", save_plan, plan, artifact, (1, channels, size, size), extra
            )
            server, url = run.timed("boot", boot, artifact, pool[0], False)
            setups.append(time.perf_counter() - t0)
            if len(setups) < SERVE_SETUP_REPEATS:
                server.stop()
        stack.callback(server.stop)
        run.e2e["setup_s"] = median(setups)

        loaded = run.timed("load_plan", load_plan, artifact)
        run.check("artifact_identity", all(
            np.array_equal(loaded.run(pool[i : i + 1], threads=1)[0], expected[i])
            for i in range(SAMPLE_POOL)
        ))
        clients, senders = zip(*(connect(url) for _ in range(SERVE_LOAD_CONNECTIONS)))
        pieces, rate = open_loop_schedule(run, "serve", senders, check_in("calibration"))
        phases = run_slices(run, [
            ("solo", lambda k: loadgen.run_closed_loop(
                senders[:1], check_in("solo"), 0.3 * run.seconds / SLICES, SLICE_MIN, 30.0
            )),
            ("load", lambda k: (
                loadgen.run_open_loop(pieces[k], senders, check_in("load")), pieces[k][-1]
            )),
            ("sat", lambda k: loadgen.run_closed_loop(
                senders, check_in("sat"), 0.3 * run.seconds / SLICES, SLICE_MIN, 30.0
            )),
        ])
        solo, load, sat = phases["solo"], phases["load"], phases["sat"]
        load["rate_per_s"] = rate
        run.notes["server_metrics"] = clients[0].metrics()
        run.e2e["images_per_s"] = sat["per_s"]
        solo_latency(run, solo)
        if not run.trace:
            return

        # Traced run: a second server recording every request's span
        # tree, its solo slices interleaved with solo slices on the
        # untraced server so the overhead compares like with like.
        traced_server, traced_url = boot(artifact, pool[0], True)
        stack.callback(traced_server.stop)
        traced_client, traced_send = connect(traced_url)
        start_ns = time.monotonic_ns()
        pair = run_slices(run, [
            ("untraced_solo", lambda k: loadgen.run_closed_loop(
                senders[:1], check_in("untraced_solo"), 0.1 * run.seconds / SLICES,
                SLICE_MIN // 2, 30.0,
            )),
            ("traced_solo", lambda k: loadgen.run_closed_loop(
                [traced_send], check_in("traced_solo"), 0.1 * run.seconds / SLICES,
                SLICE_MIN // 2, 30.0,
            )),
        ])
        server_spans = [
            s for s in traced_client.trace(format="spans")["spans"] if s["start_ns"] >= start_ns
        ]

    client_ms = np.mean([o.latency_ms for o in run.outcomes["solo"]])
    server_ms = mean_served(["solo"], 0) + mean_served(["solo"], 1)
    run.layer.update(
        {
            "artifact.save_ms": median(run.span_ms("save_plan")),
            "artifact.load_ms": median(run.span_ms("load_plan")),
            "artifact.bytes": saved["file_size"],
            "serve.frontend_ms": client_ms - server_ms,
            "serve.queue_ms": mean_served(["load"], 0),
            "serve.run_ms": mean_served(["solo", "load", "sat"], 1),
            "serve.batch_size": mean_served(["sat"], 2),
            "loadgen.wait_ms": load["wait_ms_mean"],
            "loadgen.late_ms_max": load["late_ms_max"],
            "trace.overhead_pct": 100.0 * (
                pair["traced_solo"]["p50_ms"] / pair["untraced_solo"]["p50_ms"] - 1.0
            ),
        }
    )
    engine_layers(run, plan)
    rows = plan_layers(run, server_spans)
    run.layer["serve.plan_run_ms"] = rows["run_ms"]
    run.layer["serve.kernel_ms"] = rows["kernel_ms"]
    run.spans.extend(Span.from_dict(s) for s in server_spans)


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Before NumPy loads (every NumPy import here is deferred to this
    # point): OpenBLAS sizes its pool when the library loads.  Ambient
    # tracing would trace the untraced runs.
    pin_blas_threads()
    os.environ.pop("REPRO_TRACE", None)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    host = fingerprint(ROOT)
    host["loadavg_start"] = os.getloadavg()
    host["speed_probe_ms_start"] = speed_probe_ms()
    print(json.dumps({"host": host}), flush=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    kind, model_name = WORKLOADS[args.workload]
    (run_infer if kind == "infer" else run_serve)(run, model_name)
    host["loadavg_end"] = os.getloadavg()
    host["speed_probe_ms_end"] = speed_probe_ms()

    names = PER_LAYER_UNITS if run.trace else END_TO_END_UNITS
    values = dict(run.layer) if run.trace else dict(run.e2e)
    if not run.trace:
        values["success_rate"] = 1.0 - run.failed / max(1, run.attempted)
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in names.items()}
    write_report(run, host, args, metrics)
    print(json.dumps({
        "correct": run.failed == 0 and all(run.checks.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def write_report(run: Run, host: dict, args, metrics: dict) -> None:
    """Spans and phase statistics, written once the measuring is over."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    report = {
        "host": host,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "checks": run.checks,
        "phases": run.phases,
        "notes": run.notes,
        "latencies_ms": {
            name: [o.latency_ms if o.ok else None for o in outcomes]
            for name, outcomes in run.outcomes.items()
        },
        "metrics": metrics,
        "spans": [s.to_dict() for s in run.spans.snapshot()],
    }
    with open(path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
