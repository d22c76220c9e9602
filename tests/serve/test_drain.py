"""Graceful lifecycle (ISSUE 8): SIGTERM drain must stop intake, finish
every accepted request, optionally flush the span buffer, and exit 0 —
zero accepted requests dropped, even with live load at ``--workers 2``.

Two layers:

* :class:`ServerHandle.drain` in-process: intake flips to a typed 503
  (``Retry-After`` set, ``/healthz`` degraded with a ``draining``
  reason) while health/metrics stay readable and in-flight work lands;
* the real ``repro serve`` subprocess: SIGTERM under concurrent client
  load → stdout narrates the drain, the ``--drain-trace-out`` file is a
  valid Chrome trace, and the process exits 0.

The drop oracle for the subprocess test: a client-side transport error
is only a *real* drop if the server was still accepting afterwards —
i.e. a later request on the same thread succeeded.  Errors at the tail
(connection torn down because the server exited) are the documented,
typed way a drain ends.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (
    BatchPolicy,
    ModelRegistry,
    ServeClient,
    ServeClientError,
    ServeError,
    start_in_background,
)

MODEL = "lenet-F2-fp32@reference"

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="SIGTERM drain path is POSIX-only"
)


def _sample():
    return np.zeros((1, 28, 28), dtype=np.float32)


class TestHandleDrain:
    def test_drain_stops_intake_finishes_inflight(self):
        registry = ModelRegistry()
        registry.load(MODEL)
        with start_in_background(
            registry, policy=BatchPolicy(max_batch_size=4, max_queue=256)
        ) as handle:
            outcomes = []
            lock = threading.Lock()
            stop = threading.Event()

            def hammer():
                with ServeClient(handle.base_url, timeout=30.0) as client:
                    while not stop.is_set():
                        try:
                            client.predict(_sample(), model=MODEL)
                            tag = "ok"
                        except ServeError as exc:
                            assert exc.status == 503, exc
                            assert "draining" in exc.message
                            assert exc.retry_after is not None
                            tag = "shed-draining"
                        except ServeClientError:
                            tag = "transport"
                        with lock:
                            outcomes.append(tag)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            # Let load build up, then drain mid-flight.
            time.sleep(0.2)
            assert handle.drain(timeout=30.0) is True
            stop.set()
            for t in threads:
                t.join(timeout=30.0)

            assert outcomes.count("ok") > 0
            # Every non-2xx during the run was the typed drain refusal;
            # an accepted request never vanished into a transport error.
            assert outcomes.count("transport") == 0, outcomes
            # Intake is closed now, with operator-facing visibility.
            with ServeClient(handle.base_url) as client:
                with pytest.raises(ServeError) as info:
                    client.predict(_sample(), model=MODEL)
                assert info.value.status == 503
                assert info.value.retry_after is not None
                health = client.healthz()
                assert health["status"] == "degraded"
                assert "draining" in health["reasons"]
                # The operator can still watch the drain.
                assert client.metrics()["draining"] is True

    def test_drain_is_instant_when_idle(self):
        registry = ModelRegistry()
        registry.load(MODEL)
        with start_in_background(registry) as handle:
            with ServeClient(handle.base_url) as client:
                client.predict(_sample(), model=MODEL)
            start = time.monotonic()
            assert handle.drain(timeout=30.0) is True
            assert time.monotonic() - start < 5.0


def _spawn_serve(tmp_path, extra_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env.pop("REPRO_CHAOS", None)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--model", MODEL, "--port", "0", *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    lines = []
    lines_lock = threading.Lock()

    def pump():
        for line in proc.stdout:
            with lines_lock:
                lines.append(line.rstrip("\n"))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()

    base_url = None
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline and base_url is None:
        with lines_lock:
            for line in lines:
                if "serving on http://" in line:
                    base_url = line.split("serving on ", 1)[1].split()[0]
                    break
        if proc.poll() is not None:
            with lines_lock:
                raise AssertionError(
                    f"serve exited early ({proc.returncode}):\n"
                    + "\n".join(lines)
                )
        time.sleep(0.05)
    assert base_url is not None, "never saw 'serving on http://' banner"
    return proc, reader, lines, lines_lock, base_url


class TestSigtermSubprocess:
    def test_sigterm_drains_flushes_trace_and_exits_zero(self, tmp_path):
        """The full runbook procedure, against the real CLI process with
        two forked workers and clients still sending when SIGTERM lands."""
        if not hasattr(os, "register_at_fork"):
            pytest.skip("fork-based workers are POSIX-only")
        trace_out = tmp_path / "drain-trace.json"
        proc, reader, lines, lines_lock, base_url = _spawn_serve(
            tmp_path,
            extra_args=(
                "--workers", "2", "--trace-rate", "1.0",
                "--drain-trace-out", str(trace_out),
            ),
        )
        per_thread = []
        stop = threading.Event()

        def hammer(record):
            with ServeClient(base_url, timeout=30.0) as client:
                while not stop.is_set():
                    try:
                        client.predict(_sample(), model=MODEL)
                        record.append("ok")
                    except ServeError:
                        record.append("typed")
                    except ServeClientError:
                        record.append("transport")

        try:
            threads = []
            for _ in range(3):
                record = []
                per_thread.append(record)
                threads.append(
                    threading.Thread(target=hammer, args=(record,))
                )
            for t in threads:
                t.start()
            # Ensure real traffic is in flight before the signal.
            deadline = time.monotonic() + 60.0
            while (
                sum(r.count("ok") for r in per_thread) < 10
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert sum(r.count("ok") for r in per_thread) >= 10

            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=120.0)
            stop.set()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            stop.set()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)
        reader.join(timeout=10.0)

        assert returncode == 0
        with lines_lock:
            text = "\n".join(lines)
        assert "SIGTERM: draining in-flight requests" in text
        assert "drained cleanly" in text, text
        assert "flushed" in text and str(trace_out) in text
        # A clean exit logs no teardown noise (cancelled keep-alive
        # connection handlers used to traceback per open connection).
        assert "Traceback" not in text, text

        # Zero real drops: a transport error only counts as a drop if
        # that thread later got served again (server was still alive).
        for record in per_thread:
            if "transport" in record:
                first_transport = record.index("transport")
                assert "ok" not in record[first_transport:], record

        # The flushed artifact is a loadable Chrome trace with spans.
        doc = json.loads(trace_out.read_text())
        assert doc["traceEvents"], "drain flushed an empty trace"

    def test_sigterm_without_trace_out_still_exits_zero(self, tmp_path):
        proc, reader, lines, lines_lock, base_url = _spawn_serve(tmp_path)
        try:
            with ServeClient(base_url, timeout=30.0) as client:
                client.predict(_sample(), model=MODEL)
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)
        reader.join(timeout=10.0)
        assert returncode == 0
        with lines_lock:
            text = "\n".join(lines)
        assert "drained cleanly" in text, text
        assert "flushed" not in text
        assert "Traceback" not in text, text
