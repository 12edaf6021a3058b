"""Batched layer kernels used by the training and evaluation hot paths.

Inputs carry a leading batch axis: feature maps are (batch, h, w, c),
vectors are (batch, n). Agreement with the single-image kernels in
ops.py is enforced by tests.

One convolution serves training and inference. With C > 1 input
channels it accumulates the nine kernel taps, each a window view of the
input times a (C, filters) matrix, so no window matrix is ever built.
With one channel (the first layer) nine K=1 products would be bound by
copying, so it gathers a tap-major (9, batch*h_out*w_out) window matrix
for one K=9 GEMM. conv_backward reads the layer's input tap by tap in
the same way, so training keeps nothing from the forward convolution
but its output.

Both paths pool before the ReLU, on the pre-activation conv output, and
rectify the 4x smaller pooled map; ReLU is monotone, so this equals
pooling the rectified map. Training keeps no record of the pooling
winners: maxpool_backward recomputes them from the conv output and the
pooled map, trading a few comparisons for the stored index map.

Every kernel allocates its outputs fresh and keeps no state between
calls, so callers in different threads share no buffers.
"""

from __future__ import annotations

import numpy as np

# always empty; perfbench/run.py --trace 1 still reports its size
_scratch: dict = {}


def conv_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid 3x3 convolution over a batch; returns the freshly allocated
    (batch, h-2, w-2, filters) output."""
    b, h, w, c_in = x.shape
    h_out, w_out = h - 2, w - 2
    if c_in == 1:
        taps = np.empty((9, b, h_out, w_out), x.dtype)
        for ki in range(3):
            for kj in range(3):
                taps[ki * 3 + kj] = x[:, ki:ki + h_out, kj:kj + w_out, 0]
        out = taps.reshape(9, -1).T @ kernels.reshape(9, -1)
        out += bias
        return out.reshape(b, h_out, w_out, -1)
    out = x[:, :h_out, :w_out, :] @ kernels[0, 0]
    for ki in range(3):
        for kj in range(3):
            if ki or kj:
                out += x[:, ki:ki + h_out, kj:kj + w_out, :] @ kernels[ki, kj]
    out += bias
    return out


def conv_backward(
    x_shape: tuple[int, ...],
    x: np.ndarray,
    kernels: np.ndarray,
    upstream: np.ndarray,
    need_input_grad: bool = True,
):
    """Gradients of conv_forward; x is the layer's input, of shape x_shape.
    d_input is skipped (None) for the first layer of a network."""
    b, h, w, c_in = x_shape
    h_out, w_out = h - 2, w - 2
    n_filters = kernels.shape[3]
    up_flat = upstream.reshape(b * h_out * w_out, n_filters)

    d_bias = up_flat.sum(axis=0)
    d_kernels = np.stack([
        x[:, ki:ki + h_out, kj:kj + w_out, :].reshape(-1, c_in).T @ up_flat
        for ki in range(3)
        for kj in range(3)
    ]).reshape(kernels.shape)

    d_input = None
    if need_input_grad:
        # scatter each kernel tap back onto the input footprint it read
        d_input = np.zeros(x_shape, upstream.dtype)
        for ki in range(3):
            for kj in range(3):
                tap = upstream @ kernels[ki, kj].T
                d_input[:, ki:ki + h_out, kj:kj + w_out, :] += tap
    return d_input, d_kernels, d_bias


def _pool_cells(x: np.ndarray):
    h_out, w_out = x.shape[1] // 2, x.shape[2] // 2
    grid = x[:, : 2 * h_out, : 2 * w_out, :]
    return (
        grid[:, 0::2, 0::2, :],
        grid[:, 0::2, 1::2, :],
        grid[:, 1::2, 0::2, :],
        grid[:, 1::2, 1::2, :],
    )


def _pool_max(x: np.ndarray) -> np.ndarray:
    a, b_, c_, d = _pool_cells(x)
    out = np.maximum(a, b_)
    np.maximum(out, c_, out=out)
    np.maximum(out, d, out=out)
    return out


def maxpool_infer(x: np.ndarray) -> np.ndarray:
    """2x2/stride-2 max pooling for inference; the output is freshly
    allocated."""
    return _pool_max(x)


def maxpool_forward(x: np.ndarray) -> np.ndarray:
    """2x2/stride-2 max pooling for training; the output is freshly
    allocated.

    The same values as maxpool_infer, kept as its own function so that
    profiles tell training's pooling from inference's. It records no
    winners: maxpool_backward recomputes them from x and the output.
    """
    return _pool_max(x)


def maxpool_backward(
    x_shape: tuple[int, ...], x: np.ndarray, pooled: np.ndarray, upstream: np.ndarray
) -> np.ndarray:
    """Gradient of relu(maxpool_forward(x)) with respect to x.

    pooled is that rectified output. Each window's upstream gradient
    goes to its first cell, in row-major window order, whose value
    equals pooled, and only where pooled > 0: ReLU blocks it elsewhere.
    A trailing row or column the windows do not cover gets zero.
    """
    _, h, w, _ = x_shape
    d_input = np.empty(x_shape, upstream.dtype)
    d_input[:, 2 * (h // 2):] = 0
    d_input[:, :, 2 * (w // 2):] = 0
    # rest holds what no earlier cell took; a winner's value is
    # subtracted exactly, leaving 0
    rest = upstream * (pooled > 0)
    hit = np.empty(pooled.shape, bool)
    cells, d_cells = _pool_cells(x), _pool_cells(d_input)
    for cell, d_cell in zip(cells[:3], d_cells[:3]):
        np.equal(cell, pooled, out=hit)
        np.multiply(rest, hit, out=d_cell)
        rest -= d_cell
    # any gradient still left belongs to the last cell
    d_cells[3][...] = rest
    return d_input


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return x @ weights + bias


def dense_backward(
    x: np.ndarray, weights: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d_input = upstream @ weights.T
    d_weights = x.T @ upstream
    d_bias = upstream.sum(axis=0)
    return d_input, d_weights, d_bias


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for a (batch, k) score matrix."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_backward(probs: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    dots = (upstream * probs).sum(axis=1, keepdims=True)
    return probs * (upstream - dots)
