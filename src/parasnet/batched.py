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

Inference runs stages 1 and 2 as one fused kernel, conv_pool_relu. It
splits each image of the stage input into its four 2x2 polyphase
components (space-to-depth: phase 2p + q holds pixels (2i + p, 2j + q)
at (i, j)), each a (c, hp*wp) matrix on a half-size grid of hp x wp =
ceil(h/2) x ceil(w/2), zero-padded. The conv output at (2i + di,
2j + dj), one of the four cells of pool window (i, j), is then a sum of
nine tap products on column slices of the phase matrices, as in
conv_forward but at (i, j) of the half-size grid. Block by block, the
kernel sums each output phase in conv_forward's tap order, keeps the max
of the four, adds the bias and rectifies: no full-size conv output is
written, and no pooling pass reads one through stride-2 views. Training
keeps the layered kernels, whose outputs backward needs.

Every kernel allocates its outputs fresh and keeps no state between
calls, so callers in different threads share no buffers.

Given a shards.Helper, as training.fit's steps are, a kernel allocates
its outputs in the helper's arena and, when they hold at least
_SHARED_VALUES values, shares its work with the helper: the conv and
pool kernels give it the later half of their blocks, and conv_backward
its d_kernels and d_bias while this process computes d_input. Every
block keeps its bounds and every sum its order, so each value comes
from the same numpy or BLAS call on the same operands as without a
helper, and the outputs are byte-identical.
"""

from __future__ import annotations

import numpy as np

from . import shards

# always empty; perfbench/run.py --trace 1 still reports its size
_scratch: dict = {}

# 2**15 float32 values are 128 KB: a block's few operands fit in L2
_BLOCK_VALUES = 1 << 15


# a kernel shares its blocks with a helper only when its output holds at
# least this many values: at 244x324 and batch 8, layers 1-3 do, while
# layers 4 and 5 ran slower shared, the round trip costing more than half
# their work
_SHARED_VALUES = 1 << 17


def _sharing(helper: shards.Helper | None, values: int) -> shards.Helper | None:
    """helper, to share a kernel's work with, if the kernel's output holds
    at least _SHARED_VALUES values."""
    return helper if values >= _SHARED_VALUES else None


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


def _windows(reads: list[tuple[np.ndarray, int]], a: int, e: int) -> np.ndarray:
    """The tap-major (9, e-a) window matrix of output columns a..e of a
    one-channel map, where tap t reads the (1, columns) matrix reads[t][0]
    shifted by reads[t][1] columns."""
    windows = np.empty((9, e - a), reads[0][0].dtype)
    for t, (m, s) in enumerate(reads):
        windows[t] = m[0, s + a:s + e]
    return windows


def _tap_sum(taps, reads, a, e, out) -> None:
    """The nine tap products of output columns a..e, summed in tap order
    into out; tap t reads the matrix reads[t][0] shifted by reads[t][1]
    columns."""
    if taps.shape[1] == 1:
        np.matmul(taps[:, 0].T, _windows(reads, a, e), out=out)
        return
    m, s = reads[0]
    np.matmul(taps[0].T, m[:, s + a:s + e], out=out)
    for t in range(1, 9):
        m, s = reads[t]
        out += taps[t].T @ m[:, s + a:s + e]


def train_stage_bytes(b: int, h: int, w: int, c_in: int, c_out: int, itemsize: int) -> int:
    """The arena bytes that one conv/pool stage of a training step, input
    (b, h, w, c_in), lends from a helper: conv_forward's output and
    maxpool_backward's on the input grid, the pooled map, and
    conv_backward's d_input, d_kernels, d_bias and d_kernels terms."""
    grid = b * h * w
    pooled = b * (max(h - 2, 0) // 2) * (max(w - 2, 0) // 2)
    blocks = grid // max(_BLOCK_VALUES // max(c_in, c_out), 1) + 1
    values = [c_out * grid, c_out * pooled, c_out * grid, c_in * grid, 9 * c_in * c_out, c_out,
              blocks * 9 * c_in * c_out]
    return sum(shards.aligned(v * itemsize) for v in values)


def _conv_blocks(xm, taps, bias, om, shifts, blocks) -> None:
    """conv_forward's output columns, block by block."""
    reads = [(xm, s) for s in shifts]
    for a, e in blocks:
        block = om[:, a:e]
        _tap_sum(taps, reads, a, e, block)
        block += bias[:, None]


def conv_forward(
    x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, helper: shards.Helper | None = None
) -> np.ndarray:
    """Valid 3x3 convolution over a batch. Returns a fresh channel-major
    (batch, h, w, filters) map on x's grid, whose valid output is
    [:, :h-2, :w-2]. A helper takes half the column blocks."""
    b, h, w, c_in = x.shape
    taps = kernels.reshape(9, c_in, -1)
    shifts = _shifts(w)
    xm = _matrix(x)
    n = xm.shape[1] - shifts[-1]
    om = shards.empty(helper, (taps.shape[2], xm.shape[1]), np.result_type(x, kernels))
    blocks = _blocks(n, max(taps.shape[1:]))
    shards.split(_sharing(helper, om.size), _conv_blocks, (xm, taps, bias, om, shifts), blocks,
                 (om,))
    om[:, n:] = 0
    return _as_map(om, b, h, w)


def _tap_grads(xm, up, shifts, a, e) -> np.ndarray:
    """The d_kernels term of output columns a..e, in taps' (9, c_in, c_out) shape."""
    u = up[:, a:e]
    if xm.shape[0] == 1:
        return (_windows([(xm, s) for s in shifts], a, e) @ u.T)[:, None]
    return np.stack([xm[:, s + a:s + e] @ u.T for s in shifts])


def _kernel_grads(xm, up, d_taps, d_bias, shifts, blocks) -> None:
    """conv_backward's d_bias, and its d_kernels summed over the blocks in order."""
    np.sum(up, axis=1, out=d_bias)
    for a, e in blocks:
        d_taps += _tap_grads(xm, up, shifts, a, e)


def _tap_terms(xm, up, terms, shifts, blocks, items) -> None:
    """The d_kernels terms of the blocks numbered in items, into terms."""
    for k in items:
        terms[k] = _tap_grads(xm, up, shifts, *blocks[k])


def _input_grad(taps, up, dm, shifts, blocks) -> None:
    """conv_backward's d_input: each tap scattered back onto the input
    columns it read, block by block and tap by tap."""
    for a, e in blocks:
        u = up[:, a:e]
        for t, s in enumerate(shifts):
            dm[:, s + a:s + e] += taps[t] @ u


def conv_backward(
    x_shape: tuple[int, ...],
    x: np.ndarray,
    kernels: np.ndarray,
    upstream: np.ndarray,
    need_input_grad: bool = True,
    helper: shards.Helper | None = None,
):
    """Gradients of conv_forward; x is the layer's input, of shape x_shape,
    and upstream the output's gradient on x's grid, zero outside its valid
    region. d_input, channel-major, is skipped (None) for the first layer
    of a network. A helper computes d_kernels and d_bias while this
    process computes d_input; with no d_input, the two share out the
    blocks' d_kernels terms, which this process then adds up. Each sum
    keeps its order."""
    b, h, w, c_in = x_shape
    taps = kernels.reshape(9, c_in, -1)
    shifts = _shifts(w)
    xm = _matrix(x)
    up = _matrix(upstream)
    n = xm.shape[1] - shifts[-1]
    blocks = _blocks(n, max(taps.shape[1:]))

    d_taps = shards.zeros(helper, taps.shape, np.result_type(x, upstream))
    d_bias = shards.empty(helper, up.shape[:1], up.dtype)
    if need_input_grad:
        dm = shards.zeros(helper, xm.shape, upstream.dtype)
        shards.beside(
            _sharing(helper, up.size),
            (_kernel_grads, (xm, up, d_taps, d_bias, shifts, blocks), (d_taps, d_bias)),
            (_input_grad, (taps, up, dm, shifts, blocks)),
        )
        return _as_map(dm, b, h, w), d_taps.reshape(kernels.shape), d_bias
    terms = shards.empty(helper, (len(blocks), *taps.shape), d_taps.dtype)
    shards.split(_sharing(helper, up.size), _tap_terms, (xm, up, terms, shifts, blocks),
                 range(len(blocks)), (terms,))
    np.sum(up, axis=1, out=d_bias)
    for term in terms:
        d_taps += term
    return None, d_taps.reshape(kernels.shape), d_bias


def _pool_cells(planes: np.ndarray):
    h_out, w_out = planes.shape[1] // 2, planes.shape[2] // 2
    grid = planes[:, : 2 * h_out, : 2 * w_out]
    return grid[:, 0::2, 0::2], grid[:, 0::2, 1::2], grid[:, 1::2, 0::2], grid[:, 1::2, 1::2]


def _pool_blocks(xp, op, blocks) -> None:
    for a, e in blocks:
        cells, block = _pool_cells(xp[a:e]), op[a:e]
        np.maximum(cells[0], cells[1], out=block)
        np.maximum(block, cells[2], out=block)
        np.maximum(block, cells[3], out=block)


def maxpool_forward(x: np.ndarray, helper: shards.Helper | None = None) -> np.ndarray:
    """2x2/stride-2 max pooling; the output is a fresh channel-major map.

    It records no winners: maxpool_backward recomputes them from x and
    the output. A helper takes half the plane blocks.
    """
    b, h, w, c = x.shape
    xp = _planes(x)
    op = shards.empty(helper, (c * b, h // 2, w // 2), x.dtype)
    shards.split(_sharing(helper, x.size), _pool_blocks, (xp, op), _blocks(len(op), op[0].size),
                 (op,))
    return _as_map(op, b, h // 2, w // 2)


# inference pools with the same function under its own name: the
# benchmark's tracer wraps each name separately, so train and inference
# pooling still get their own spans
maxpool_infer = maxpool_forward


# the output columns of one conv_pool_relu block: at F = 8, its phase sum
# and its running max take 256 KB each. Nine K = 8 tap products and their
# sums ran at 17 ns a column in blocks of 8,192, against 21 at 4,096 and
# 36 at 16,384 (one BLAS thread, 2-core Xeon)
_STAGE_COLUMNS = 1 << 13


def _phases(image: np.ndarray, out: np.ndarray) -> None:
    """The 2x2 polyphase components of an (h, w, c) image, into out, of
    shape (4, c, hp, wp): phase 2p + q holds image[p::2, q::2],
    zero-padded at the bottom and right."""
    planes = image.transpose(2, 0, 1)
    for p in range(2):
        for q in range(2):
            part = planes[:, p::2, q::2]
            dst = out[2 * p + q]
            dst[:, :part.shape[1], :part.shape[2]] = part
            dst[:, part.shape[1]:] = 0
            dst[:, :, part.shape[2]:] = 0


def conv_pool_relu(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """relu(maxpool_infer(conv_forward(x, kernels, bias)'s valid region)),
    for inference, as one fresh channel-major (batch, (h-2)//2, (w-2)//2,
    filters) map.

    It runs one image at a time, so an image's values do not depend on
    the batch around it, and the working set is one image's: over a whole
    batch of 8 it held 13 MB at once, and perfbench's train workload,
    whose test pass runs it, peaked 6.5 MB higher, at the same speed.

    Tap (ki, kj) of output phase (di, dj) reads input phase
    ((di + ki) % 2, (dj + kj) % 2) at row and column offsets (di + ki) // 2
    and (dj + kj) // 2, a shift of its matrix's columns. Rounding is
    monotone, so max(u) + b equals max(u + b) bit for bit, and each value
    equals the layered kernels' wherever a GEMM's elements do not depend
    on their column: with OpenBLAS's SkylakeX kernel, not its Haswell one.
    """
    b, h, w, c_in = x.shape
    taps = kernels.reshape(9, c_in, -1)
    f = taps.shape[2]
    hp, wp = -(-h // 2), -(-w // 2)
    cols = hp * wp
    # output columns from n on would read past the phase matrices' end;
    # they lie outside the valid region
    n = cols - wp - 1
    s = min(_STAGE_COLUMNS, n)
    # one allocation for an image's grid of maxima, phase sum and phases:
    # at B = 1 the largest of a forward, it lifts glibc's dynamic mmap
    # threshold above the rest, whose heap then stays mapped between
    # calls; in three separate arrays, a fresh process's B = 1 forward
    # took about 380 page faults a call
    work = np.empty(f * (cols + s) + 4 * c_in * cols, np.result_type(x, kernels))
    grid = work[:f * cols].reshape(f, cols)
    phase_sum = work[f * cols:f * (cols + s)].reshape(f, s)
    phases = work[f * (cols + s):].reshape(4, c_in, cols)
    reads = [
        [(phases[(di + ki) % 2 * 2 + (dj + kj) % 2], (di + ki) // 2 * wp + (dj + kj) // 2)
         for ki in range(3) for kj in range(3)]
        for di in range(2) for dj in range(2)
    ]
    grid[:, n:] = 0
    out = np.empty((f, b, (h - 2) // 2, (w - 2) // 2), grid.dtype)
    for i in range(b):
        _phases(x[i], phases.reshape(4, c_in, hp, wp))
        for a in range(0, n, _STAGE_COLUMNS):
            e = min(a + _STAGE_COLUMNS, n)
            block, other = grid[:, a:e], phase_sum[:, :e - a]
            _tap_sum(taps, reads[0], a, e, block)
            for phase_reads in reads[1:]:
                _tap_sum(taps, phase_reads, a, e, other)
                np.maximum(block, other, out=block)
            block += bias[:, None]
            np.maximum(block, 0, out=block)
        out[:, i] = grid.reshape(f, hp, wp)[:, :out.shape[2], :out.shape[3]]
    return _as_map(out, b, *out.shape[2:])


def _unpool_blocks(xp, pp, up, dp, h, w, blocks) -> None:
    """maxpool_backward's planes, block by block."""
    for a, e in blocks:
        dp[a:e, 2 * (h // 2):] = 0
        dp[a:e, :, 2 * (w // 2):] = 0
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


def maxpool_backward(
    x_shape: tuple[int, ...],
    x: np.ndarray,
    pooled: np.ndarray,
    upstream: np.ndarray,
    grid: tuple[int, int],
    helper: shards.Helper | None = None,
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
    trailing row or column the windows do not cover gets zero. A helper
    takes half the plane blocks.
    """
    b, h, w, c = x_shape
    dp = shards.empty(helper, (c * b, *grid), upstream.dtype)
    xp, pp, up = _planes(x), _planes(pooled), _planes(upstream)
    blocks = _blocks(len(pp), pp[0].size)
    shards.split(_sharing(helper, dp.size), _unpool_blocks, (xp, pp, up, dp, h, w), blocks, (dp,))
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
