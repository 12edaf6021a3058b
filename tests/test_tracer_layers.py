"""The benchmark's tracer maps each conv and pool kernel call to a layer.

perfbench/tracing.py reads the layer from the NHWC (h, w) of a call's
first argument and the batch from its first axis. This test loads the
tracer from its file, so a change of the kernels' arguments that would
leave the benchmark's per-layer metrics reading 0 fails here. It also
checks the package names perfbench/run.py reads besides the traced ones.
"""

import importlib.util
from pathlib import Path

import numpy as np

from parasnet import batched, evaluation
from parasnet import model as pm

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_kernel_span_has_its_layer_and_batch():
    tracer = _load_tracing().Tracer()
    net = pm.build_model(2, seed=5)
    rng = np.random.default_rng(5)
    x = rng.random((2, pm.INPUT_HEIGHT, pm.INPUT_WIDTH, 1), dtype=np.float32)
    tracer.install()
    try:
        probs, _, cache = pm.forward_batch(net, x, mode="train", rng=rng, want_cache=True)
        pm.backward_batch(net, cache, np.full_like(probs, 0.5))
        pm.forward_batch(net, x[:1])
    finally:
        tracer.uninstall()

    spans = [
        (s.name, s.attrs["layer"], s.attrs["batch"])
        for s in tracer.spans
        if s.name.startswith(("batched.conv_", "batched.maxpool_"))
    ]
    by_kernel = {
        "batched.conv_forward": (2, 1),
        "batched.maxpool_forward": (2,),
        "batched.conv_backward": (2,),
        "batched.maxpool_backward": (2,),
        "batched.maxpool_infer": (1,),
    }
    # the B=1 inference forward runs layers 1 and 2, and the B=2 training
    # pass layer 1, as one untraced batched.conv_pool_relu each, and
    # training's layer-1 backward is one untraced conv_pool_relu_backward
    inference = {("batched.conv_forward", 1), ("batched.maxpool_infer", 1)}
    expected = [
        (name, layer, batch)
        for name, batches in by_kernel.items()
        for batch in batches
        for layer in range(3 if (name, batch) in inference else 2, 6)
    ]
    assert sorted(spans) == sorted(expected)


def test_what_the_benchmark_runner_reads_exists():
    # run.py --trace 1 reports the inference batch and the scratch pool
    assert evaluation.CnnClassifier(None).batch_size == pm.CHUNK_IMAGES
    assert batched._scratch == {}
