"""Batched layer kernels used by the training and evaluation hot paths.

Inputs carry a leading batch axis: feature maps are (batch, h, w, c),
vectors are (batch, n). Agreement with the single-image kernels in
ops.py is enforced by tests.

Training (conv_forward with want_cols) lowers each batch to one matrix
multiply: window extraction (im2col), then GEMM. conv_backward needs
that window matrix for the kernel gradient. The window matrices and
pre-activations of this path live in a module-level scratch pool and
are reused across calls, because repeated fresh allocations of
50-100MB arrays dominate the runtime otherwise. An array handed out for
one geometry stays valid until the next call with the same geometry,
which holds for the forward / backward / next-batch cadence of training.
The pool is process-global, so the training path is unsafe to run from
more than one thread at a time.

Inference (conv_forward without want_cols, maxpool_infer) never builds
the 9*C-wide window matrix and never touches the pool: it convolves by
accumulating the nine kernel taps, and its outputs are allocated fresh.
At one image per call those outputs are small enough that allocating
them costs less than the memory traffic of a window matrix, and callers
in different threads share no buffers.
"""

from __future__ import annotations

import numpy as np

_scratch: dict = {}


def _buf(tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    key = (tag, shape, np.dtype(dtype))
    arr = _scratch.get(key)
    if arr is None:
        arr = np.empty(shape, dtype)
        _scratch[key] = arr
    return arr


def clear_scratch() -> None:
    """Drop the buffer pool (mostly for memory-sensitive callers)."""
    _scratch.clear()


def _im2col(x: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
    """(batch * h_out * w_out, 9 * c) window matrix, built by nine wide
    slice copies rather than one strided gather; the copies run at close
    to memory bandwidth, the gather does not."""
    b, _, _, c = x.shape
    cols = _buf("cols", (b, h_out, w_out, 9 * c), x.dtype)
    for ki in range(3):
        for kj in range(3):
            s = (ki * 3 + kj) * c
            cols[..., s:s + c] = x[:, ki:ki + h_out, kj:kj + w_out, :]
    return cols.reshape(b * h_out * w_out, 9 * c)


def conv_forward(
    x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, want_cols: bool = False
):
    """Valid 3x3 convolution over a batch.

    Returns the (batch, h-2, w-2, filters) output, plus the flattened
    window matrix when want_cols is set (the backward pass reuses it).
    Without want_cols the output is freshly allocated; with it, both
    arrays are scratch buffers.
    """
    b, h, w, c_in = x.shape
    h_out, w_out = h - 2, w - 2
    n_filters = kernels.shape[3]
    if want_cols:
        cols = _im2col(x, h_out, w_out)
        out = _buf("conv_out", (b * h_out * w_out, n_filters), x.dtype)
        np.matmul(cols, kernels.reshape(9 * c_in, n_filters), out=out)
        out += bias
        return out.reshape(b, h_out, w_out, n_filters), cols
    if c_in == 1:
        # one input channel: nine K=1 products would be bound by copying,
        # so gather a nine-row tap-major window matrix for one K=9 GEMM
        taps = np.empty((9, b, h_out, w_out), x.dtype)
        for ki in range(3):
            for kj in range(3):
                taps[ki * 3 + kj] = x[:, ki:ki + h_out, kj:kj + w_out, 0]
        out = taps.reshape(9, -1).T @ kernels.reshape(9, n_filters)
        out += bias
        return out.reshape(b, h_out, w_out, n_filters)
    out = x[:, :h_out, :w_out, :] @ kernels[0, 0]
    for ki in range(3):
        for kj in range(3):
            if ki or kj:
                out += x[:, ki:ki + h_out, kj:kj + w_out, :] @ kernels[ki, kj]
    out += bias
    return out


def conv_backward(
    x_shape: tuple[int, ...],
    cols: np.ndarray,
    kernels: np.ndarray,
    upstream: np.ndarray,
    need_input_grad: bool = True,
):
    """Gradients of conv_forward; cols is the window matrix from the forward
    pass. d_input is skipped (None) for the first layer of a network."""
    b, h, w, c_in = x_shape
    h_out, w_out = h - 2, w - 2
    n_filters = kernels.shape[3]
    up_flat = upstream.reshape(b * h_out * w_out, n_filters)

    d_bias = up_flat.sum(axis=0)
    d_kernels = (cols.T @ up_flat).reshape(kernels.shape)

    d_input = None
    if need_input_grad:
        # scatter each kernel tap back onto the input footprint it read
        d_input = _buf("conv_dinp", (b, h, w, c_in), upstream.dtype)
        d_input[...] = 0
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


def maxpool_infer(x: np.ndarray) -> np.ndarray:
    """2x2/stride-2 max pooling without bookkeeping for a backward pass.

    The output is freshly allocated.
    """
    a, b_, c_, d = _pool_cells(x)
    out = np.maximum(a, b_)
    np.maximum(out, c_, out=out)
    np.maximum(out, d, out=out)
    return out


def maxpool_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched 2x2/stride-2 max pooling; returns (pooled, argmax indices).

    Ties go to the first cell in row-major window order.
    """
    a, b_, c_, d = _pool_cells(x)
    # pairwise where-chains keep the first-cell-wins tie rule of argmax
    top_is_b = b_ > a
    top_val = np.where(top_is_b, b_, a)
    bot_is_d = d > c_
    bot_val = np.where(bot_is_d, d, c_)
    bot_wins = bot_val > top_val
    pooled = np.where(bot_wins, bot_val, top_val)
    winner = np.where(
        bot_wins,
        np.where(bot_is_d, 3, 2),
        np.where(top_is_b, 1, 0),
    ).astype(np.int64)
    return pooled, winner


def maxpool_backward(
    x_shape: tuple[int, ...], winner: np.ndarray, upstream: np.ndarray
) -> np.ndarray:
    b, h, w, c = x_shape
    h_out, w_out = h // 2, w // 2
    d_flat = np.zeros((b, h_out, w_out, c, 4), dtype=upstream.dtype)
    np.put_along_axis(d_flat, winner[..., None], upstream[..., None], axis=4)
    d_input = np.zeros((b, h, w, c), dtype=upstream.dtype)
    d_input[:, :2 * h_out, :2 * w_out, :] = (
        d_flat.reshape(b, h_out, w_out, c, 2, 2)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(b, 2 * h_out, 2 * w_out, c)
    )
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
