"""Batched layer kernels used by the training and evaluation hot paths.

Vectors are (batch, n). Feature maps are indexed (batch, h, w, c), but
the conv stage stores them channel-major: each map is a C-contiguous
(c, batch, h, w) buffer, that is a (c, batch*h*w) matrix or a stack of
c*batch image planes, and the kernels take and return its
(batch, h, w, c) transposed view. They accept any (batch, h, w, c) array,
at the cost of a copy; tests check them against the single-image
reference layers in tests/ops.py.

A convolution's output, and its gradient, lie on the input's h x w grid:
output (i, j) sits where its window's top-left input pixel does, so the
valid (h-2) x (w-2) region is out[:, :h-2, :w-2] and the last two rows
and columns of each image are unused. Tap (ki, kj) then reads the input
matrix's columns shifted by s = ki*w + kj; with n = batch*h*w - 2w - 2,
    forward    out[:, :n] += k[ki, kj].T @ x[:, s:s+n]
    d_kernels  d_k[ki, kj] = x[:, s:s+n] @ up[:, :n].T
    d_input    d_x[:, s:s+n] += k[ki, kj] @ up[:, :n]
    d_bias     the row sums of up
so every tap is a GEMM on a plain column slice, and nothing is gathered.
At the unused positions the output holds values that nothing may read,
and the upstream gradient must be exactly zero there: pooling reads only
the valid region, and maxpool_backward writes zeros around it.

The first layer has one input channel, where nine K=1 products would be
bound by copying. It gathers a tap-major (9, columns) window matrix
instead, each row a contiguous slice of the input, for one K=9 GEMM;
its backward gathers the same matrix for d_kernels.

The conv kernels walk the output columns, and the pooling kernels the
image planes, in blocks of about _BLOCK_VALUES output values, so that a
block's nine tap products, or its pooling passes, find their operands
in cache: at batch 8 this halves layer 2's convolution time against
nine products over whole matrices.

Both paths pool before the ReLU, on the pre-activation conv output, and
rectify the 4x smaller pooled map; ReLU is monotone, so this equals
pooling the rectified map. Training keeps no record of the pooling
winners: maxpool_backward recomputes them from the conv output and the
pooled map, trading a few comparisons for the stored index map. Each
pooling pass runs along image rows, w/2 elements at a time.

Every kernel allocates its outputs fresh and keeps no state between
calls, so callers in different threads share no buffers.
"""

from __future__ import annotations

import numpy as np

# always empty; perfbench/run.py --trace 1 still reports its size
_scratch: dict = {}

# 2**15 float32 values are 128 KB: a block's few operands fit in L2
_BLOCK_VALUES = 1 << 15


def _blocks(n: int, size: int) -> list[tuple[int, int]]:
    """(start, stop) ranges that split n items of size values each into
    blocks of at most _BLOCK_VALUES values, or of one item."""
    step = max(_BLOCK_VALUES // max(size, 1), 1)
    return [(a, min(a + step, n)) for a in range(0, n, step)]


def _as_map(buf: np.ndarray, b: int, h: int, w: int) -> np.ndarray:
    """The (b, h, w, c) view of a channel-major buffer."""
    return buf.reshape(-1, b, h, w).transpose(1, 2, 3, 0)


def _matrix(x: np.ndarray) -> np.ndarray:
    """The C-contiguous (c, b*h*w) matrix of a (b, h, w, c) map; a view
    of a channel-major map, a copy of any other."""
    return np.ascontiguousarray(x.transpose(3, 0, 1, 2)).reshape(x.shape[3], -1)


def _planes(x: np.ndarray) -> np.ndarray:
    """The (c*b, h, w) image planes of a (b, h, w, c) map; a view of a
    channel-major map or of its valid region, a copy of any other."""
    return x.transpose(3, 0, 1, 2).reshape(-1, *x.shape[1:3])


def _shifts(w: int) -> list[int]:
    """The column offset of each kernel tap, in (ki, kj) order."""
    return [ki * w + kj for ki in range(3) for kj in range(3)]


def _windows(x_row: np.ndarray, shifts: list[int], a: int, e: int) -> np.ndarray:
    """The tap-major (9, e-a) window matrix of output columns a..e of a
    one-channel map."""
    windows = np.empty((9, e - a), x_row.dtype)
    for t, s in enumerate(shifts):
        windows[t] = x_row[s + a:s + e]
    return windows


def conv_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid 3x3 convolution over a batch. Returns a fresh channel-major
    (batch, h, w, filters) map on x's grid, whose valid output is
    [:, :h-2, :w-2]."""
    b, h, w, c_in = x.shape
    taps = kernels.reshape(9, c_in, -1)
    shifts = _shifts(w)
    xm = _matrix(x)
    n = xm.shape[1] - shifts[-1]
    om = np.empty((taps.shape[2], xm.shape[1]), np.result_type(x, kernels))
    for a, e in _blocks(n, max(taps.shape[1:])):
        block = om[:, a:e]
        if c_in == 1:
            np.matmul(taps[:, 0].T, _windows(xm[0], shifts, a, e), out=block)
        else:
            np.matmul(taps[0].T, xm[:, a:e], out=block)
            for t in range(1, 9):
                block += taps[t].T @ xm[:, shifts[t] + a:shifts[t] + e]
        block += bias[:, None]
    om[:, n:] = 0
    return _as_map(om, b, h, w)


def conv_backward(
    x_shape: tuple[int, ...],
    x: np.ndarray,
    kernels: np.ndarray,
    upstream: np.ndarray,
    need_input_grad: bool = True,
):
    """Gradients of conv_forward; x is the layer's input, of shape x_shape,
    and upstream the output's gradient on x's grid, zero outside its valid
    region. d_input, channel-major, is skipped (None) for the first layer
    of a network."""
    b, h, w, c_in = x_shape
    taps = kernels.reshape(9, c_in, -1)
    shifts = _shifts(w)
    xm = _matrix(x)
    up = _matrix(upstream)
    n = xm.shape[1] - shifts[-1]

    d_bias = up.sum(axis=1)
    d_taps = np.zeros(taps.shape, np.result_type(x, upstream))
    dm = np.zeros(xm.shape, upstream.dtype) if need_input_grad else None
    for a, e in _blocks(n, max(taps.shape[1:])):
        u = up[:, a:e]
        if c_in == 1:
            d_taps[:, 0] += _windows(xm[0], shifts, a, e) @ u.T
        else:
            for t, s in enumerate(shifts):
                d_taps[t] += xm[:, s + a:s + e] @ u.T
        if dm is not None:
            # scatter each tap back onto the input columns it read
            for t, s in enumerate(shifts):
                dm[:, s + a:s + e] += taps[t] @ u
    d_input = None if dm is None else _as_map(dm, b, h, w)
    return d_input, d_taps.reshape(kernels.shape), d_bias


def _pool_cells(planes: np.ndarray):
    h_out, w_out = planes.shape[1] // 2, planes.shape[2] // 2
    grid = planes[:, : 2 * h_out, : 2 * w_out]
    return grid[:, 0::2, 0::2], grid[:, 0::2, 1::2], grid[:, 1::2, 0::2], grid[:, 1::2, 1::2]


def _pool_max(x: np.ndarray) -> np.ndarray:
    b, h, w, c = x.shape
    xp = _planes(x)
    op = np.empty((c * b, h // 2, w // 2), x.dtype)
    for a, e in _blocks(len(op), op[0].size):
        cells, block = _pool_cells(xp[a:e]), op[a:e]
        np.maximum(cells[0], cells[1], out=block)
        np.maximum(block, cells[2], out=block)
        np.maximum(block, cells[3], out=block)
    return _as_map(op, b, h // 2, w // 2)


def maxpool_infer(x: np.ndarray) -> np.ndarray:
    """2x2/stride-2 max pooling for inference; the output is a fresh
    channel-major map."""
    return _pool_max(x)


def maxpool_forward(x: np.ndarray) -> np.ndarray:
    """2x2/stride-2 max pooling for training; the output is a fresh
    channel-major map.

    The same values as maxpool_infer, kept as its own function so that
    profiles tell training's pooling from inference's. It records no
    winners: maxpool_backward recomputes them from x and the output.
    """
    return _pool_max(x)


def maxpool_backward(
    x_shape: tuple[int, ...],
    x: np.ndarray,
    pooled: np.ndarray,
    upstream: np.ndarray,
    grid: tuple[int, int],
) -> np.ndarray:
    """Gradient of relu(maxpool_forward(x)) with respect to x, of shape
    x_shape, placed on a grid of (rows, cols) = grid at least as large as
    x's (h, w): the result is a fresh channel-major (batch, rows, cols, c)
    map whose [:, :h, :w] is the gradient and whose rest is zero. A conv
    output lies on its input's grid, so this is the upstream gradient
    conv_backward takes.

    pooled is the rectified pool output. Each window's upstream gradient
    goes to its first cell, in row-major window order, whose value equals
    pooled, and only where pooled > 0: ReLU blocks it elsewhere. A
    trailing row or column the windows do not cover gets zero.
    """
    b, h, w, c = x_shape
    dp = np.empty((c * b, *grid), upstream.dtype)
    dp[:, 2 * (h // 2):] = 0
    dp[:, :, 2 * (w // 2):] = 0
    xp, pp, up = _planes(x), _planes(pooled), _planes(upstream)
    for a, e in _blocks(len(pp), pp[0].size):
        # rest holds what no earlier cell took; a winner's value is
        # subtracted exactly, leaving 0
        rest = up[a:e] * (pp[a:e] > 0)
        hit = np.empty(rest.shape, bool)
        cells, d_cells = _pool_cells(xp[a:e]), _pool_cells(dp[a:e, :h, :w])
        for cell, d_cell in zip(cells[:3], d_cells[:3]):
            np.equal(cell, pp[a:e], out=hit)
            np.multiply(rest, hit, out=d_cell)
            rest -= d_cell
        # any gradient still left belongs to the last cell
        d_cells[3][...] = rest
    return _as_map(dp, b, *grid)


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
