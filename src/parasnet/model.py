"""ParasNet model: five conv/pool stages feeding a small dense head.

Every stage is a valid 3x3 convolution (no padding), ReLU, then 2x2
max pooling with stride 2. The head flattens, applies a 128-unit dense
layer with ReLU and dropout, then a 3-way dense layer with softmax.
The number of filters per conv layer is the single width knob.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import batched, ops

INPUT_HEIGHT = 244
INPUT_WIDTH = 324
HIDDEN_UNITS = 128
NUM_CLASSES = 3
DROPOUT_RATE = 0.5

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
    """Everything the backward pass needs, captured during forward."""

    input_shapes: list[tuple]
    cols: list[np.ndarray]
    # per stage: the conv output before ReLU, and relu(maxpool(conv_pre)),
    # from which backward recomputes the pooling winners
    conv_pre: list[np.ndarray]
    pooled: list[np.ndarray]
    flat: np.ndarray
    dense1_pre: np.ndarray
    hidden: np.ndarray
    drop_mask: np.ndarray | None
    dropped: np.ndarray
    probs: np.ndarray


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


def expected_param_count(filters: int) -> int:
    """Closed form for the default input size."""
    conv1 = 9 * filters + filters
    conv_rest = 4 * (9 * filters * filters + filters)
    dense1 = flatten_dim(filters) * HIDDEN_UNITS + HIDDEN_UNITS
    dense2 = HIDDEN_UNITS * NUM_CLASSES + NUM_CLASSES
    return conv1 + conv_rest + dense1 + dense2


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
    element carries intermediates for backward_batch; the window
    matrices and conv outputs among them live in batched's scratch
    pool, so such calls must not run in two threads at once. Calls
    without want_cache share no buffers.
    """
    if x.ndim != 4 or x.shape[3] != 1:
        raise ValueError(f"expected input of shape (B, h, w, 1), got {x.shape}")
    input_shapes = []
    cols_list = []
    conv_pre = []
    pooled = []
    h = x
    for k, b in zip(model.conv_kernels, model.conv_biases):
        input_shapes.append(h.shape)
        # pool, then ReLU on the 4x smaller map: ReLU is monotone, so
        # both orders give exactly the same values
        if want_cache:
            a, cols = batched.conv_forward(h, k, b, want_cols=True)
            h = batched.maxpool_forward(a)
            cols_list.append(cols)
            conv_pre.append(a)
            pooled.append(h)
        else:
            h = batched.maxpool_infer(batched.conv_forward(h, k, b))
        np.maximum(h, 0, out=h)
    flat = h.reshape(h.shape[0], -1)
    if flat.shape[1] != model.dense1_weights.shape[0]:
        raise ValueError(
            f"flattened size {flat.shape[1]} does not match dense layer "
            f"input {model.dense1_weights.shape[0]}; wrong input resolution?"
        )
    dense1_pre = batched.dense_forward(flat, model.dense1_weights, model.dense1_bias)
    hidden = np.maximum(dense1_pre, 0)
    dropped, mask = ops.dropout(hidden, dropout_rate, mode, rng)
    logits = batched.dense_forward(dropped, model.dense2_weights, model.dense2_bias)
    probs = batched.softmax_rows(logits)
    if not want_cache:
        return probs, hidden
    cache = ForwardCache(
        input_shapes=input_shapes,
        cols=cols_list,
        conv_pre=conv_pre,
        pooled=pooled,
        flat=flat,
        dense1_pre=dense1_pre,
        hidden=hidden,
        drop_mask=mask,
        dropped=dropped,
        probs=probs,
    )
    return probs, hidden, cache


def backward_batch(
    model: ParasNetModel, cache: ForwardCache, d_probs: np.ndarray
) -> list[np.ndarray]:
    """Gradients with respect to every parameter, in parameters() order.

    d_probs is the loss gradient with respect to the softmax output,
    already carrying any 1/batch scaling the loss applies.
    """
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
    pool_out_shape = (
        cache.flat.shape[0],
        *layer_shapes(model.filters, *cache.input_shapes[0][1:3])[9],
    )
    d_pool = d_flat.reshape(pool_out_shape)
    for i in range(4, -1, -1):
        conv_pre = cache.conv_pre[i]
        d_conv = batched.maxpool_backward(
            conv_pre.shape, conv_pre, cache.pooled[i], d_pool
        )
        d_pool, d_kernels, d_bias = batched.conv_backward(
            cache.input_shapes[i],
            cache.cols[i],
            model.conv_kernels[i],
            d_conv,
            need_input_grad=(i > 0),
        )
        grads.insert(0, d_bias)
        grads.insert(0, d_kernels)
    return grads


def forward_images(
    model: ParasNetModel, images: np.ndarray, batch_size: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Inference-mode (probs, hidden) for a stack of images, batch_size
    images per forward_batch call.

    One image per call is the default because it is the fastest: the
    inference kernels' cost per image grows with the batch.
    """
    chunks = [
        forward_batch(model, images[start : start + batch_size])
        for start in range(0, len(images), batch_size)
    ]
    if not chunks:
        return np.zeros((0, NUM_CLASSES)), np.zeros((0, HIDDEN_UNITS))
    return (
        np.concatenate([probs for probs, _ in chunks]),
        np.concatenate([hidden for _, hidden in chunks]),
    )


def forward(
    model: ParasNetModel,
    image: np.ndarray,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-image forward pass. Returns (probs, hidden)."""
    if image.ndim != 3:
        raise ValueError(f"expected image of shape (h, w, 1), got {image.shape}")
    probs, hidden = forward_batch(model, image[None], mode=mode, rng=rng)
    return probs[0], hidden[0]


def _format_meta(model: ParasNetModel) -> bytes:
    lines = [f"seed={model.init_seed}"]
    for key in sorted(model.meta):
        value = model.meta[key]
        if "=" in key or "\n" in key or "\n" in value:
            raise ValueError(f"metadata key/value not encodable: {key!r}")
        lines.append(f"{key}={value}")
    return "\n".join(lines).encode("utf-8")


def save_checkpoint(model: ParasNetModel, path: str) -> None:
    """Write the model to disk.

    Layout: magic, u32 version, u32 filter count, every parameter
    tensor as little-endian float32 in a fixed order, then a
    length-prefixed UTF-8 metadata block. Integers are little-endian.
    """
    meta = _format_meta(model)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, model.filters))
        for p in parameters(model):
            fh.write(np.ascontiguousarray(p, dtype="<f4").tobytes())
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)


def _take(blob: bytes, offset: int, count: int, what: str) -> tuple[bytes, int]:
    if offset + count > len(blob):
        missing = offset + count - len(blob)
        raise CheckpointTruncatedError(
            f"file truncated while reading {what}: {missing} bytes missing"
        )
    return blob[offset : offset + count], offset + count


def load_checkpoint(path: str) -> ParasNetModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, offset = _take(blob, 0, 4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointMagicError(
            f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    header, offset = _take(blob, offset, 8, "header")
    version, filters = struct.unpack("<II", header)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    if filters < 1 or filters > 65536:
        raise CheckpointError(f"implausible filter count {filters}")

    shapes = parameter_shapes(filters)
    # the header alone fixes the parameter byte count: check it against
    # the file before allocating, since a doctored header can declare
    # hundreds of GB
    raw, offset = _take(
        blob, offset, 4 * sum(math.prod(s) for s in shapes), "parameter tensors"
    )
    arrays = []
    start = 0
    for shape in shapes:
        size = math.prod(shape)
        arrays.append(np.frombuffer(raw, "<f4", size, start).reshape(shape).copy())
        start += 4 * size
    raw_len, offset = _take(blob, offset, 4, "metadata length")
    (meta_len,) = struct.unpack("<I", raw_len)
    raw_meta, offset = _take(blob, offset, meta_len, "metadata")
    if offset != len(blob):
        raise CheckpointError(f"{len(blob) - offset} trailing bytes after metadata")

    try:
        text = raw_meta.decode("utf-8")
    except UnicodeDecodeError as err:
        raise CheckpointError(f"metadata is not UTF-8: {err}") from None
    meta: dict[str, str] = {}
    for line in text.splitlines():
        if line:
            key, _, value = line.partition("=")
            meta[key] = value
    seed_text = meta.pop("seed", "-1")
    try:
        seed = int(seed_text)
    except ValueError:
        raise CheckpointError(f"seed {seed_text!r} is not an integer") from None
    return _from_parameters(filters, arrays, seed, meta)
