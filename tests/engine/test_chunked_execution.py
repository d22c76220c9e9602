"""Splitting a step into batch chunks must be invisible in the results.

Every chunkable op computes batch rows independently, so the thread
scheduler executing a step in sub-batches preserves per-sample results.
The ``fast`` backend's large fused GEMMs are row-independent only up to
BLAS blocking (different M can round differently at the last ulp), so
there the contract is float tolerance; the ``reference`` backend never
splits a step, and on it batch composition is *bit-exact* — the backend
the serving bit-identity guarantee is stated for.
"""

import numpy as np

from repro.engine import compile_model
from repro.models.common import ConvSpec
from repro.models.lenet import lenet
from repro.models.resnet import resnet18
from repro.quant.qconfig import int8


def test_cold_observer_step_is_never_chunked(rng):
    """A fake-quant stage that has not frozen its range takes it from the
    first array it sees — splitting that step would freeze a sub-batch's
    range and make every later result depend on the thread count.  The
    first large-batch run of an uncalibrated plan must therefore match
    the serial execution."""
    from repro.nn import init

    x = rng.standard_normal((16, 3, 32, 32)).astype(np.float32)
    outs = []
    for threads in (1, 4):
        init.set_default_rng(0)  # identical weights for both plans
        model = resnet18(width_multiplier=0.25, spec=ConvSpec("F4", int8()))
        model.eval()
        plan = compile_model(model, backend="fast")
        outs.append(plan.run(x, threads=threads))  # observers are still cold
    np.testing.assert_allclose(outs[1], outs[0], rtol=1e-4, atol=1e-4)


def test_batch_composition_is_invisible_reference(rng):
    """run([a;b]) sliced == run(a) ++ run(b) on the reference backend:
    the guarantee the dynamic batcher relies on for bit-identical
    single-sample responses."""
    model = lenet(spec=ConvSpec("F2", int8()))
    model.eval()
    plan = compile_model(model, backend="reference")
    x = rng.standard_normal((6, 1, 28, 28)).astype(np.float32)
    plan.run(x[:1])  # calibration
    full = plan.run(x)
    singles = np.concatenate([plan.run(x[i : i + 1]) for i in range(6)], axis=0)
    np.testing.assert_array_equal(full, singles)
