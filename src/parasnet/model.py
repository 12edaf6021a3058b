"""ParasNet model: five conv/pool stages feeding a small dense head.

Every stage is a valid 3x3 convolution (no padding), ReLU, then 2x2
max pooling with stride 2. The head flattens, applies a 128-unit dense
layer with ReLU and dropout, then a 3-way dense layer with softmax.
The number of filters per conv layer is the single width knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import INPUT_HEIGHT, INPUT_WIDTH, NUM_CLASSES, batched, container, shards

HIDDEN_UNITS = 128
DROPOUT_RATE = 0.5

# inference runs stages 1 and 2 as batched.conv_pool_relu, training only
# stage 1; stage 3 ran slower fused, 0.27 against 0.16 ms an image at
# B = 8 and F = 8
FUSED_STAGES = 2

# forward_images' images per forward_batch call: 300 images at F = 8 ran
# at 635 /s in chunks of 8, 628 /s in chunks of 4 and 551 /s one by one
# (one CPU, one BLAS thread)
CHUNK_IMAGES = 8

CHECKPOINT_MAGIC = b"PNET"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Base class for unreadable checkpoint files."""


class CheckpointMagicError(CheckpointError):
    """File does not start with the expected magic bytes."""


class CheckpointVersionError(CheckpointError):
    """File uses a format version this code does not understand."""


class CheckpointTruncatedError(CheckpointError):
    """File ends before all declared content was read."""


@dataclass
class ParasNetModel:
    filters: int
    conv_kernels: list[np.ndarray]
    conv_biases: list[np.ndarray]
    dense1_weights: np.ndarray
    dense1_bias: np.ndarray
    dense2_weights: np.ndarray
    dense2_bias: np.ndarray
    init_seed: int
    meta: dict[str, str] = field(default_factory=dict)


@dataclass
class ForwardCache:
    """Everything the backward pass needs, captured during forward.

    backward_batch consumes the cache: from stage 2 on, it writes each
    stage's gradient over that stage's conv output and then drops it from
    conv_grid, so a second backward_batch on the same cache raises
    ValueError.
    """

    # per stage: the conv input (the batch, then the rectified pooled maps)
    inputs: list[np.ndarray]
    # stage 1 keeps no conv output, only batched.conv_pool_relu's record:
    # per value of pooled[0], the index 0..3 of the window cell its
    # gradient goes to, or 4 where the ReLU passes none
    winners: np.ndarray
    # per stage from 2 on: the conv output before ReLU on its input's
    # grid, as batched.conv_forward returns it, from which backward
    # recomputes the pooling winners
    conv_grid: list[np.ndarray]
    # per stage: relu(maxpool(conv output))
    pooled: list[np.ndarray]
    flat: np.ndarray
    dense1_pre: np.ndarray
    drop_mask: np.ndarray | None
    dropped: np.ndarray
    probs: np.ndarray
    consumed: bool = False

    @property
    def conv_pre(self) -> list[np.ndarray]:
        """Per stage from 2 on, the valid region of the conv output (see
        batched.py)."""
        return [g[:, :-2, :-2] for g in self.conv_grid]


def glorot_bound(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def layer_shapes(
    filters: int, height: int = INPUT_HEIGHT, width: int = INPUT_WIDTH
) -> list[tuple[int, ...]]:
    """Output shape of each layer in order, ending with the dense head.

    Convolutions shrink each spatial side by 2; pooling halves with
    floor. Raises if the input is too small to survive all five stages.
    """
    if filters < 1:
        raise ValueError(f"filters must be positive, got {filters}")
    shapes: list[tuple[int, ...]] = []
    h, w = height, width
    for stage in range(5):
        h, w = h - 2, w - 2
        if h < 1 or w < 1:
            raise ValueError(
                f"input {height}x{width} too small: conv stage {stage + 1} "
                f"would produce {h}x{w}"
            )
        shapes.append((h, w, filters))
        h, w = h // 2, w // 2
        if h < 1 or w < 1:
            raise ValueError(
                f"input {height}x{width} too small: pool stage {stage + 1} "
                f"would produce {h}x{w}"
            )
        shapes.append((h, w, filters))
    shapes.append((HIDDEN_UNITS,))
    shapes.append((NUM_CLASSES,))
    return shapes


def flatten_dim(filters: int, height: int = INPUT_HEIGHT, width: int = INPUT_WIDTH) -> int:
    h, w, f = layer_shapes(filters, height, width)[9]
    return h * w * f


def parameter_shapes(
    filters: int, height: int = INPUT_HEIGHT, width: int = INPUT_WIDTH
) -> list[tuple[int, ...]]:
    """Shape of each parameters() array, in checkpoint order."""
    shapes: list[tuple[int, ...]] = []
    c_in = 1
    for _ in range(5):
        shapes += [(3, 3, c_in, filters), (filters,)]
        c_in = filters
    flat = flatten_dim(filters, height, width)
    return shapes + [
        (flat, HIDDEN_UNITS), (HIDDEN_UNITS,), (HIDDEN_UNITS, NUM_CLASSES), (NUM_CLASSES,)
    ]


def _from_parameters(
    filters: int, arrays: list[np.ndarray], init_seed: int, meta: dict[str, str]
) -> ParasNetModel:
    """The inverse of parameters()."""
    return ParasNetModel(
        filters=filters,
        conv_kernels=arrays[0:10:2],
        conv_biases=arrays[1:10:2],
        dense1_weights=arrays[10],
        dense1_bias=arrays[11],
        dense2_weights=arrays[12],
        dense2_bias=arrays[13],
        init_seed=init_seed,
        meta=meta,
    )


def build_model(
    filters: int,
    seed: int,
    dtype: np.dtype = np.float32,
    height: int = INPUT_HEIGHT,
    width: int = INPUT_WIDTH,
) -> ParasNetModel:
    """Glorot-uniform weights, zero biases, all drawn from one seeded stream.

    Draw order is fixed (conv1..conv5, dense1, dense2) so a seed pins
    the full parameter vector regardless of dtype.
    """
    rng = np.random.default_rng(seed)
    arrays = []
    for shape in parameter_shapes(filters, height, width):
        if len(shape) == 1:
            arrays.append(np.zeros(shape, dtype=dtype))
            continue
        # a conv kernel's fans span its 3x3 window
        fan_in, fan_out = (9 * shape[2], 9 * shape[3]) if len(shape) == 4 else shape
        bound = glorot_bound(fan_in, fan_out)
        arrays.append(rng.uniform(-bound, bound, size=shape).astype(dtype))
    return _from_parameters(filters, arrays, seed, {})


def parameters(model: ParasNetModel) -> list[np.ndarray]:
    """All trainable arrays in checkpoint order."""
    out: list[np.ndarray] = []
    for k, b in zip(model.conv_kernels, model.conv_biases):
        out.append(k)
        out.append(b)
    out.extend(
        [model.dense1_weights, model.dense1_bias, model.dense2_weights, model.dense2_bias]
    )
    return out


def layer_param_counts(model: ParasNetModel) -> list[int]:
    """Parameter count per layer: five conv stages, then the two dense layers."""
    counts = [
        int(k.size + b.size) for k, b in zip(model.conv_kernels, model.conv_biases)
    ]
    counts.append(int(model.dense1_weights.size + model.dense1_bias.size))
    counts.append(int(model.dense2_weights.size + model.dense2_bias.size))
    return counts


def param_count(model: ParasNetModel) -> int:
    return sum(p.size for p in parameters(model))


def dropout(
    x: np.ndarray, rate: float, mode: str, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout.

    Train mode keeps each element with probability (1 - rate) and rescales
    by 1/(1 - rate); inference is the identity. Returns (output, mask);
    the mask (None in inference mode) scales the gradient in backward.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if mode == "infer":
        return x, None
    if mode != "train":
        raise ValueError(f"dropout mode must be 'train' or 'infer', got {mode!r}")
    if rng is None:
        raise ValueError("train-mode dropout needs an RNG")
    keep = rng.random(x.shape) >= rate
    mask = keep.astype(x.dtype) / x.dtype.type(1.0 - rate)
    return x * mask, mask


def _head(model: ParasNetModel, flat: np.ndarray, mode: str,
          rng: np.random.Generator | None, dropout_rate: float):
    """The dense head of flattened maps: (dense1_pre, hidden, dropped,
    drop mask, probs)."""
    dense1_pre = batched.dense_forward(flat, model.dense1_weights, model.dense1_bias)
    hidden = np.maximum(dense1_pre, 0)
    dropped, mask = dropout(hidden, dropout_rate, mode, rng)
    logits = batched.dense_forward(dropped, model.dense2_weights, model.dense2_bias)
    return dense1_pre, hidden, dropped, mask, batched.softmax_rows(logits)


def forward_batch(
    model: ParasNetModel,
    x: np.ndarray,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
    dropout_rate: float = DROPOUT_RATE,
    want_cache: bool = False,
):
    """Run a batch through the network.

    Returns (probs, hidden) where probs is (B, 3) and hidden is the
    (B, 128) post-ReLU representation. With want_cache=True a third
    element carries intermediates for backward_batch.

    Stage 1 runs as one batched.conv_pool_relu, which with want_cache
    also records its pooling winners. Without want_cache, stages 2 to
    FUSED_STAGES run fused too, and the dense head takes one image at a
    time, so that no image's head outputs depend on the batch around it.
    """
    if x.ndim != 4 or x.shape[3] != 1:
        raise ValueError(f"expected input of shape (B, h, w, 1), got {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("empty batch: forward_batch needs at least one image")
    layer_shapes(model.filters, *x.shape[1:3])  # raises for an input too small
    pool = batched.maxpool_forward if want_cache else batched.maxpool_infer
    conv_grid = []
    pooled = []
    # with one channel, x is already a channel-major map
    h = x
    for stage, (k, b) in enumerate(zip(model.conv_kernels, model.conv_biases)):
        if stage == 0 and want_cache:
            h, winners = batched.conv_pool_relu(h, k, b, record=True)
        elif stage < FUSED_STAGES and not want_cache:
            h = batched.conv_pool_relu(h, k, b)
        else:
            g = batched.conv_forward(h, k, b)
            # pool, then ReLU on the 4x smaller map: ReLU is monotone, so
            # both orders give exactly the same values
            h = pool(g[:, : h.shape[1] - 2, : h.shape[2] - 2])
            np.maximum(h, 0, out=h)
            conv_grid.append(g)
        pooled.append(h)
    # the (batch, h, w, c) view flattens in NHWC order, as the dense
    # weights expect
    flat = h.reshape(h.shape[0], -1)
    if flat.shape[1] != model.dense1_weights.shape[0]:
        raise ValueError(
            f"flattened size {flat.shape[1]} does not match dense layer "
            f"input {model.dense1_weights.shape[0]}; wrong input resolution?"
        )
    if not want_cache:
        outputs = []
        for row in flat:
            _, hidden, _, _, probs = _head(model, row[None], mode, rng, dropout_rate)
            outputs.append((probs, hidden))
        return _concat(outputs)
    dense1_pre, hidden, dropped, mask, probs = _head(model, flat, mode, rng, dropout_rate)
    cache = ForwardCache(
        inputs=[x, *pooled[:-1]],
        winners=winners,
        conv_grid=conv_grid,
        pooled=pooled,
        flat=flat,
        dense1_pre=dense1_pre,
        drop_mask=mask,
        dropped=dropped,
        probs=probs,
    )
    return probs, hidden, cache


def backward_batch(
    model: ParasNetModel,
    cache: ForwardCache,
    d_probs: np.ndarray,
) -> list[np.ndarray]:
    """Gradients with respect to every parameter, in parameters() order.

    d_probs is the loss gradient with respect to the softmax output,
    already carrying any 1/batch scaling the loss applies. It writes
    gradients over the cache's conv outputs and drops them, so a consumed
    cache raises ValueError rather than pass gradients off as activations.
    """
    if cache.consumed:
        raise ValueError(
            "backward_batch already ran on this cache and wrote gradients over its conv "
            "outputs; run forward_batch again for a fresh cache"
        )
    cache.consumed = True
    d_logits = batched.softmax_rows_backward(cache.probs, d_probs)
    d_dropped, d_w2, d_b2 = batched.dense_backward(
        cache.dropped, model.dense2_weights, d_logits
    )
    if cache.drop_mask is not None:
        d_hidden = d_dropped * cache.drop_mask
    else:
        d_hidden = d_dropped
    d_dense1_pre = d_hidden * (cache.dense1_pre > 0)
    d_flat, d_w1, d_b1 = batched.dense_backward(
        cache.flat, model.dense1_weights, d_dense1_pre
    )
    grads: list[np.ndarray] = [d_w1, d_b1, d_w2, d_b2]
    d_pool = d_flat.reshape(cache.pooled[-1].shape)
    for i in range(4, 0, -1):
        x = cache.inputs[i]
        # the conv output's last use, as its gradient: popped from the
        # cache, it is freed before stage 1's backward runs
        valid = cache.conv_pre[-1].shape
        d_pool, d_kernels, d_bias = batched.conv_backward(
            x.shape, x, model.conv_kernels[i],
            batched.maxpool_backward(valid, cache.conv_grid.pop(), cache.pooled[i], d_pool),
        )
        grads[:0] = [d_kernels, d_bias]
    grads[:0] = batched.conv_pool_relu_backward(
        cache.inputs[0], model.conv_kernels[0], cache.winners, d_pool
    )
    return grads


def _forward_range(
    model: ParasNetModel, images: np.ndarray, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Inference-mode (probs, hidden) of images[start:stop], one
    forward_batch call per chunk of CHUNK_IMAGES images; start is a
    multiple of CHUNK_IMAGES."""
    chunks = [forward_batch(model, images[i : min(i + CHUNK_IMAGES, stop)])
              for i in range(start, stop, CHUNK_IMAGES)]
    if not chunks:
        return (
            np.zeros((0, NUM_CLASSES), dtype=model.dense2_weights.dtype),
            np.zeros((0, HIDDEN_UNITS), dtype=model.dense1_weights.dtype),
        )
    return _concat(chunks)


def _concat(outputs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """(probs, hidden) pairs joined in order along the image axis."""
    probs, hidden = zip(*outputs)
    return np.concatenate(probs), np.concatenate(hidden)


def forward_images(model: ParasNetModel, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inference-mode (probs, hidden) for a stack of images: an array or
    any stack whose slices are arrays, such as a pgmio.ImageStack.

    The images go through forward_batch in chunks of CHUNK_IMAGES that
    start at multiples of CHUNK_IMAGES, whatever the split, so the
    output is bit-identical however the stack is split. shards.map_ranges
    cuts the stack into contiguous index ranges on chunk bounds, run by
    this process and by forked children that inherit the model and the
    images and send back only their range's outputs, concatenated here
    in order.
    """
    return _concat(shards.map_ranges(_forward_range, (model, images), len(images),
                                     CHUNK_IMAGES))


def check_savable(model: ParasNetModel) -> None:
    """Raise ValueError unless a checkpoint can hold the model: the file
    records only the filter count, so load_checkpoint rebuilds the shapes
    for the default input size."""
    shapes = [p.shape for p in parameters(model)]
    if shapes != parameter_shapes(model.filters):
        raise ValueError(
            f"checkpoints hold models for {INPUT_HEIGHT}x{INPUT_WIDTH} input only; "
            f"this model's dense layer takes {model.dense1_weights.shape[0]} inputs, "
            f"not {flatten_dim(model.filters)}"
        )


def save_checkpoint(model: ParasNetModel, path: str) -> None:
    """Write the model as a container (see container.py): the filter
    count, parameters() as float32, then metadata led by seed=<init_seed>,
    so "seed" cannot be a model.meta key. Raises ValueError, before the
    file is opened, for a model check_savable rejects."""
    check_savable(model)
    container.write(
        path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, model.filters, parameters(model),
        "<f4", [("seed", str(model.init_seed)), *sorted(model.meta.items())],
    )


def _tensor_layout(filters: int) -> list[tuple[str, tuple[int, ...]]]:
    return [(f"parameter tensor {i}", s) for i, s in enumerate(parameter_shapes(filters))]


def load_checkpoint(path: str) -> ParasNetModel:
    filters, arrays, meta = container.read(
        path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "filter count", _tensor_layout, "<f4",
        (CheckpointError, CheckpointMagicError, CheckpointVersionError, CheckpointTruncatedError),
    )
    seed_text = meta.pop("seed", "-1")
    try:
        seed = int(seed_text)
    except ValueError:
        raise CheckpointError(f"seed {seed_text!r} is not an integer") from None
    return _from_parameters(filters, list(arrays.values()), seed, meta)
