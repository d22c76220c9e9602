"""The parallel step scheduler (ISSUE 4).

Contract:

* **Reference bit-identity** — on the ``reference`` backend, threaded
  execution is bit-identical to serial on every parity model (fp32 and
  int8): the oracle backend never splits a step, so every BLAS call
  matches the serial run.
* **Integer exactness** — native ``int8`` steps are exact at any GEMM
  blocking, so threaded int8 execution is bit-identical to serial too.
* **Concurrency safety** — many threads hammering one shared plan (each
  run checking an arena out of the pool) all get the right answer.
"""

import threading

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.engine import compile_model
from repro.engine.pool import default_threads, resolve_threads
from repro.models.common import ConvSpec
from repro.models.lenet import lenet
from repro.models.resnet import resnet18
from repro.models.resnext import resnext20
from repro.models.squeezenet import squeezenet
from repro.quant.qconfig import fp32, int8


def _parity_models(rng):
    return [
        ("lenet-F2-fp32", lenet(spec=ConvSpec("F2")),
         rng.standard_normal((8, 1, 28, 28)).astype(np.float32)),
        ("lenet-F2-int8", lenet(spec=ConvSpec("F2", int8())),
         rng.standard_normal((8, 1, 28, 28)).astype(np.float32)),
        ("resnet-F4-fp32", resnet18(width_multiplier=0.125, spec=ConvSpec("F4")),
         rng.standard_normal((8, 3, 32, 32)).astype(np.float32)),
        ("resnet-F4-int8", resnet18(width_multiplier=0.125, spec=ConvSpec("F4", int8())),
         rng.standard_normal((8, 3, 32, 32)).astype(np.float32)),
        ("squeezenet-F2-int8", squeezenet(width_multiplier=0.25, spec=ConvSpec("F2", int8())),
         rng.standard_normal((8, 3, 32, 32)).astype(np.float32)),
        ("resnext-F2-fp32", resnext20(width_multiplier=0.5, spec=ConvSpec("F2")),
         rng.standard_normal((4, 3, 32, 32)).astype(np.float32)),
    ]


def _calibrated(model, x):
    model.eval()
    with no_grad():
        model(Tensor(x))
    return model


class TestReferenceBitIdentity:
    def test_threaded_equals_serial_on_parity_models(self, rng):
        """The acceptance gate: serial vs threaded reference execution is
        bit-identical on every parity model, fp32 and int8 alike."""
        for name, model, x in _parity_models(rng):
            _calibrated(model, x)
            plan = compile_model(model, backend="reference")
            serial = plan.run(x, threads=1)
            for threads in (2, 4):
                threaded = plan.run(x, threads=threads)
                np.testing.assert_array_equal(
                    threaded, serial, err_msg=f"{name}: threads={threads}"
                )


class TestInt8Exactness:
    def test_threaded_int8_bit_identical(self, rng):
        """Integer GEMMs are exact at any blocking, so thread-splitting
        native int8 steps cannot move a single bit."""
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        model = _calibrated(
            resnet18(width_multiplier=0.125, spec=ConvSpec("F4", int8())), x
        )
        plan = compile_model(model, backend="int8")
        serial = plan.run(x, threads=1)
        np.testing.assert_array_equal(plan.run(x, threads=4), serial)


class TestFastTolerance:
    def test_threaded_fast_within_float_tolerance(self, rng):
        """fast-backend GEMMs may round differently per chunk shape; the
        contract there is the same float tolerance chunking already has."""
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        model = _calibrated(resnet18(width_multiplier=0.125, spec=ConvSpec("F4")), x)
        plan = compile_model(model, backend="fast")
        serial = plan.run(x, threads=1)
        np.testing.assert_allclose(
            plan.run(x, threads=4), serial, rtol=1e-4, atol=1e-4
        )


class TestConcurrency:
    def test_thread_hammer_concurrent_runs_with_arena(self, rng):
        """Many threads × many runs on one shared plan: every run checks
        its own arena out of the pool, so results must match the serial
        answer bit for bit (fast backend, planned execution)."""
        x = rng.standard_normal((4, 1, 28, 28)).astype(np.float32)
        model = _calibrated(lenet(spec=ConvSpec("F2", int8())), x)
        plan = compile_model(model, backend="fast")
        expected = plan.run(x)
        errors = []

        def hammer():
            try:
                for _ in range(10):
                    np.testing.assert_array_equal(plan.run(x), expected)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=hammer) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert not errors, errors
        report = plan.memory_report()
        assert report["arenas_built"] >= 1
        assert report["shape_misses"] == 0

    def test_worker_error_propagates(self, rng):
        x = rng.standard_normal((8, 1, 28, 28)).astype(np.float32)
        model = _calibrated(lenet(spec=ConvSpec("F2")), x)
        plan = compile_model(model, backend="fast")
        plan.run(x)
        broken = plan.steps[0]
        original = broken.fn
        broken.fn = lambda inputs, attrs: (_ for _ in ()).throw(RuntimeError("boom"))
        try:
            with pytest.raises(RuntimeError, match="boom"):
                plan.run(x, threads=4)
        finally:
            broken.fn = original


class TestThreadResolution:
    def test_env_var_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        assert default_threads() == 1
        monkeypatch.setenv("REPRO_THREADS", "3")
        assert default_threads() == 3
        assert resolve_threads(None) == 3
        assert resolve_threads(2) == 2
        monkeypatch.setenv("REPRO_THREADS", "auto")
        assert default_threads() >= 1
        monkeypatch.setenv("REPRO_THREADS", "not-a-number")
        assert default_threads() == 1

    def test_zero_means_all_cores(self):
        import os

        assert resolve_threads(0) == (os.cpu_count() or 1)
