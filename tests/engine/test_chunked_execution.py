"""Batch composition must be invisible in the results.

The dynamic batcher stacks single-sample requests into one batch, so a
sample's output must not depend on which other samples share its batch.
On the ``reference`` backend this is *bit-exact* — the backend the
serving bit-identity guarantee is stated for.
"""

import numpy as np

from repro.engine import compile_model
from repro.models.common import ConvSpec
from repro.models.lenet import lenet
from repro.quant.qconfig import int8


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
