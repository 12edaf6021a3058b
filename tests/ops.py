"""Single-image reference layers with hand-written forward and backward passes.

The package's batched kernels (parasnet.batched) are tested against
these, and these against finite differences. Feature maps are (height,
width, channels) arrays, vectors are 1-d arrays. Convolution kernels
are (3, 3, in_channels, out_channels). Every operation is a pure
function of its inputs.

The convolution accumulates in a fixed order (kernel row, kernel column,
input channel) so its float64 output is bit-identical to a sequentially
accumulated scalar reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LayerGradients:
    """Gradients of one layer: d_input mirrors the forward input shape,
    d_params mirrors the parameter tensors (empty for parameter-free layers)."""

    d_input: np.ndarray
    d_params: list[np.ndarray] = field(default_factory=list)


def _check_conv_shapes(image: np.ndarray, kernels: np.ndarray, bias: np.ndarray | None) -> None:
    if image.ndim != 3:
        raise ValueError(f"conv input must be (h, w, c), got shape {image.shape}")
    h, w, c_in = image.shape
    if h < 3 or w < 3:
        raise ValueError(f"conv input spatial extents must be >= 3, got {h}x{w}")
    if kernels.ndim != 4 or kernels.shape[0] != 3 or kernels.shape[1] != 3:
        raise ValueError(f"kernels must be (3, 3, c_in, filters), got shape {kernels.shape}")
    if kernels.shape[2] != c_in:
        raise ValueError(
            f"kernel channel count {kernels.shape[2]} does not match input channels {c_in}"
        )
    if bias is not None and bias.shape != (kernels.shape[3],):
        raise ValueError(f"bias shape {bias.shape} does not match filter count {kernels.shape[3]}")


def conv2d_valid(image: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid (unpadded) 3x3 convolution with stride 1.

    out[i, j, f] = bias[f] + sum over the 3x3xC window anchored at (i, j)
    of image * kernels[..., f]. Output is (h-2, w-2, filters).
    """
    _check_conv_shapes(image, kernels, bias)
    h, w, c_in = image.shape
    n_filters = kernels.shape[3]
    h_out, w_out = h - 2, w - 2
    out = np.empty((h_out, w_out, n_filters), dtype=image.dtype)
    out[:] = bias
    # Ordered accumulation: one fused multiply-add pass per (ki, kj, c).
    for ki in range(3):
        for kj in range(3):
            for c in range(c_in):
                out += image[ki:ki + h_out, kj:kj + w_out, c, None] * kernels[ki, kj, c, :]
    return out


def conv2d_backward(image: np.ndarray, kernels: np.ndarray, upstream: np.ndarray) -> LayerGradients:
    """Exact gradients of conv2d_valid w.r.t. input, kernels, and bias."""
    _check_conv_shapes(image, kernels, None)
    h, w, c_in = image.shape
    h_out, w_out = h - 2, w - 2
    n_filters = kernels.shape[3]
    if upstream.shape != (h_out, w_out, n_filters):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match conv output "
            f"({h_out}, {w_out}, {n_filters})"
        )

    d_bias = upstream.sum(axis=(0, 1))

    d_kernels = np.empty_like(kernels)
    for ki in range(3):
        for kj in range(3):
            # Correlation of the shifted input with the upstream gradient.
            patch = image[ki:ki + h_out, kj:kj + w_out, :]
            d_kernels[ki, kj] = np.tensordot(patch, upstream, axes=((0, 1), (0, 1)))

    # d_input is the full correlation of the zero-padded upstream with the
    # spatially flipped kernels.
    padded = np.zeros((h + 2, w + 2, n_filters), dtype=upstream.dtype)
    padded[2:2 + h_out, 2:2 + w_out, :] = upstream
    d_input = np.zeros_like(image)
    for ki in range(3):
        for kj in range(3):
            d_input += padded[ki:ki + h, kj:kj + w, :] @ kernels[2 - ki, 2 - kj].T
    return LayerGradients(d_input=d_input, d_params=[d_kernels, d_bias])


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, x.dtype.type(0))


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> LayerGradients:
    """Routes upstream where x > 0; the subgradient at exactly 0 is 0."""
    if upstream.shape != x.shape:
        raise ValueError(f"upstream shape {upstream.shape} does not match input {x.shape}")
    return LayerGradients(d_input=upstream * (x > 0))


def maxpool_2x2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2; an odd trailing row/column is dropped."""
    if x.ndim != 3:
        raise ValueError(f"pool input must be (h, w, c), got shape {x.shape}")
    h, w, c = x.shape
    if h < 2 or w < 2:
        raise ValueError(f"pool input spatial extents must be >= 2, got {h}x{w}")
    h_out, w_out = h // 2, w // 2
    windows = x[:2 * h_out, :2 * w_out, :].reshape(h_out, 2, w_out, 2, c)
    return windows.max(axis=(1, 3))


def maxpool_2x2_backward(x: np.ndarray, upstream: np.ndarray) -> LayerGradients:
    """Routes the upstream gradient to the argmax cell of each 2x2 window
    (first cell in row-major order on ties)."""
    h, w, c = x.shape
    h_out, w_out = h // 2, w // 2
    if upstream.shape != (h_out, w_out, c):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match pooled shape ({h_out}, {w_out}, {c})"
        )
    windows = x[:2 * h_out, :2 * w_out, :].reshape(h_out, 2, w_out, 2, c)
    flat = windows.transpose(0, 2, 4, 1, 3).reshape(h_out, w_out, c, 4)
    winner = flat.argmax(axis=3)

    d_flat = np.zeros_like(flat)
    np.put_along_axis(d_flat, winner[..., None], upstream[..., None], axis=3)
    d_input = np.zeros_like(x)
    d_input[:2 * h_out, :2 * w_out, :] = (
        d_flat.reshape(h_out, w_out, c, 2, 2).transpose(0, 3, 1, 4, 2).reshape(2 * h_out, 2 * w_out, c)
    )
    return LayerGradients(d_input=d_input)


def dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map: out = x @ weights + bias for a length-n input vector."""
    if x.ndim != 1:
        raise ValueError(f"dense input must be a vector, got shape {x.shape}")
    if weights.ndim != 2 or weights.shape[0] != x.shape[0]:
        raise ValueError(
            f"weight shape {weights.shape} does not match input length {x.shape[0]}"
        )
    if bias.shape != (weights.shape[1],):
        raise ValueError(f"bias shape {bias.shape} does not match output width {weights.shape[1]}")
    return x @ weights + bias


def dense_backward(x: np.ndarray, weights: np.ndarray, upstream: np.ndarray) -> LayerGradients:
    if upstream.shape != (weights.shape[1],):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match output width {weights.shape[1]}"
        )
    d_input = weights @ upstream
    d_weights = np.outer(x, upstream)
    d_bias = upstream.copy()
    return LayerGradients(d_input=d_input, d_params=[d_weights, d_bias])


def dropout_backward(mask: np.ndarray | None, upstream: np.ndarray) -> LayerGradients:
    if mask is None:
        return LayerGradients(d_input=upstream)
    return LayerGradients(d_input=upstream * mask)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable exponential normalization of a score vector."""
    if logits.ndim != 1 or logits.shape[0] < 1:
        raise ValueError(f"softmax input must be a non-empty vector, got shape {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise ValueError("softmax input contains non-finite values")
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def softmax_backward(probs: np.ndarray, upstream: np.ndarray) -> LayerGradients:
    """Jacobian-vector product of softmax, expressed through its output."""
    if upstream.shape != probs.shape:
        raise ValueError(f"upstream shape {upstream.shape} does not match probs {probs.shape}")
    return LayerGradients(d_input=probs * (upstream - np.dot(upstream, probs)))
