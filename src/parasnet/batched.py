"""Batched layer kernels used by the training and evaluation hot paths.

Inputs carry a leading batch axis: feature maps are (batch, h, w, c),
vectors are (batch, n). Agreement with the single-image kernels in
ops.py is enforced by tests.

Training (conv_forward with want_cols) lowers each batch to one matrix
multiply: window extraction, then GEMM. conv_backward needs that window
matrix for the kernel gradient. With C input channels it is the
(batch*h*w, 9*C) im2col matrix; with one channel (the first layer) it is
a tap-major (9, batch*h*w) matrix, since im2col's rows of nine scattered
floats would make the extraction mostly copying. The window matrices and
pre-activations of this path live in a module-level scratch pool and
are reused across calls, because repeated fresh allocations of
50-100MB arrays dominate the runtime otherwise. An array handed out for
one geometry stays valid until the next call with the same geometry,
which holds for the forward / backward / next-batch cadence of training.
The pool is process-global, so the training path is unsafe to run from
more than one thread at a time.

Both paths pool before the ReLU, on the pre-activation conv output, and
rectify the 4x smaller pooled map; ReLU is monotone, so this equals
pooling the rectified map. Training keeps no record of the pooling
winners: maxpool_backward recomputes them from the conv output and the
pooled map, trading a few comparisons for the stored index map.

Inference (conv_forward without want_cols, maxpool_infer) never touches
the pool: with C > 1 it convolves by accumulating the nine kernel taps,
with one channel it gathers the tap-major window matrix, and its
outputs are allocated fresh. At one image per call those outputs are
small enough that allocating them costs less than the memory traffic of
an im2col matrix, and callers in different threads share no buffers.
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


def _fresh(tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """_buf's signature, without the pool."""
    return np.empty(shape, dtype)


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

    Returns the (batch, h-2, w-2, filters) output, plus the window matrix
    when want_cols is set (the backward pass reuses it): (9, batch*h_out*
    w_out), tap-major, for one input channel, else the im2col matrix.
    Without want_cols the output is freshly allocated; with it, both
    arrays are scratch buffers.
    """
    b, h, w, c_in = x.shape
    h_out, w_out = h - 2, w - 2
    n_filters = kernels.shape[3]
    if c_in > 1 and not want_cols:
        out = x[:, :h_out, :w_out, :] @ kernels[0, 0]
        for ki in range(3):
            for kj in range(3):
                if ki or kj:
                    out += x[:, ki:ki + h_out, kj:kj + w_out, :] @ kernels[ki, kj]
        out += bias
        return out
    alloc = _buf if want_cols else _fresh
    if c_in == 1:
        # one input channel: nine K=1 products would be bound by copying,
        # and so would im2col's nine scattered floats per pixel, so gather
        # a nine-row tap-major window matrix for one K=9 GEMM
        taps = alloc("taps", (9, b, h_out, w_out), x.dtype)
        for ki in range(3):
            for kj in range(3):
                taps[ki * 3 + kj] = x[:, ki:ki + h_out, kj:kj + w_out, 0]
        cols = taps.reshape(9, -1)
        windows = cols.T
    else:
        cols = windows = _im2col(x, h_out, w_out)
    out = alloc("conv_out", (b * h_out * w_out, n_filters), x.dtype)
    np.matmul(windows, kernels.reshape(9 * c_in, n_filters), out=out)
    out += bias
    out = out.reshape(b, h_out, w_out, n_filters)
    return (out, cols) if want_cols else out


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
    # one input channel's tap-major window matrix is already (9, n)
    cols_t = cols if c_in == 1 else cols.T
    d_kernels = (cols_t @ up_flat).reshape(kernels.shape)

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
