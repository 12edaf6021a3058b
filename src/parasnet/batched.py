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

A one-channel input, the first layer's, would make nine K=1 products,
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
pooling the rectified map. From stage 2 on, training keeps no record of
the pooling winners: maxpool_backward recomputes them from the conv
output and the pooled map, trading a few comparisons for the stored
index map. It writes the gradient over the conv output it compares,
cell by cell, since backward reads that output nowhere else: a training
step then holds one full-size map per stage, not two. Each pooling pass
runs along image rows, w/2 elements at a time.

Inference runs stages 1 and 2, and training stage 1, as one fused
kernel, conv_pool_relu. It splits each image of the stage input into its
four 2x2 polyphase components (space-to-depth: phase 2p + q holds pixels
(2i + p, 2j + q) at (i, j)), each a (c, hp*wp) matrix on a half-size
grid of hp x wp = ceil(h/2) x ceil(w/2), zero-padded. The conv output at
(2i + di, 2j + dj), one of the four cells of pool window (i, j), is then
a sum of nine tap products on column slices of the phase matrices, as in
conv_forward but at (i, j) of the half-size grid. Block by block, the
kernel sums each output phase in conv_forward's tap order, keeps the max
of the four, adds the bias and rectifies: no full-size conv output is
written, and no pooling pass reads one through stride-2 views.

For training, conv_pool_relu also records each window's winner, one
uint8 per pooled value: stage 1's is the largest map of a training step,
and backward then needs neither it nor stride-2 comparisons over it.
conv_pool_relu_backward rebuilds, a run of rows at a time, the gradient
map maxpool_backward would have written, for conv_backward's GEMMs over
the same column blocks: where the fused and layered forwards agree, so
do the gradients' bytes, and no full-size map is written. Training's
stages 2 to 5, whose maps are 4x smaller or more, keep the layered
kernels.

Every kernel but maxpool_backward, which writes over its conv output
map, allocates its outputs fresh, and none keeps state between calls,
so callers in different threads share no buffers.

Every kernel runs in the calling process alone: training.fit spreads a
step over two CPUs by running each half of the batch, whole, in its own
process, not by sharing out a kernel's blocks.
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


def _tap_grads(reads, a, e, u) -> np.ndarray:
    """The (9, c_in, f) d_kernels term of output columns a..e, whose
    upstream gradient is the (f, e-a) matrix u; tap t reads the input
    matrix reads[t][0] shifted by reads[t][1] columns. A one-channel
    input takes one K=9 window product, as _tap_sum does."""
    if reads[0][0].shape[0] == 1:
        return (_windows(reads, a, e) @ u.T)[:, None]
    return np.stack([m[:, s + a:s + e] @ u.T for m, s in reads])


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
    reads = [(xm, s) for s in shifts]
    for a, e in _blocks(n, max(taps.shape[1:])):
        block = om[:, a:e]
        _tap_sum(taps, reads, a, e, block)
        block += bias[:, None]
    om[:, n:] = 0
    return _as_map(om, b, h, w)


def conv_backward(
    x_shape: tuple[int, ...],
    x: np.ndarray,
    kernels: np.ndarray,
    upstream: np.ndarray,
):
    """Gradients (d_input, d_kernels, d_bias) of conv_forward; x is the
    layer's input, of shape x_shape, and upstream the output's gradient
    on x's grid, zero outside its valid region. d_input is channel-major.
    d_kernels is the sum, in block order, of one term per column block."""
    b, h, w, c_in = x_shape
    taps = kernels.reshape(9, c_in, -1)
    shifts = _shifts(w)
    xm = _matrix(x)
    up = _matrix(upstream)
    n = xm.shape[1] - shifts[-1]
    blocks = _blocks(n, max(taps.shape[1:]))
    reads = [(xm, s) for s in shifts]

    d_taps = np.zeros(taps.shape, np.result_type(x, upstream))
    for a, e in blocks:
        d_taps += _tap_grads(reads, a, e, up[:, a:e])
    # each tap scattered back onto the input columns it read, block by
    # block and tap by tap
    dm = np.zeros(xm.shape, upstream.dtype)
    for a, e in blocks:
        u = up[:, a:e]
        for t, s in enumerate(shifts):
            dm[:, s + a:s + e] += taps[t] @ u
    return _as_map(dm, b, h, w), d_taps.reshape(kernels.shape), up.sum(axis=1)


def _pool_cells(planes: np.ndarray):
    h_out, w_out = planes.shape[1] // 2, planes.shape[2] // 2
    grid = planes[:, : 2 * h_out, : 2 * w_out]
    return grid[:, 0::2, 0::2], grid[:, 0::2, 1::2], grid[:, 1::2, 0::2], grid[:, 1::2, 1::2]


def maxpool_forward(x: np.ndarray) -> np.ndarray:
    """2x2/stride-2 max pooling; the output is a fresh channel-major map.

    It records no winners: maxpool_backward recomputes them from x and
    the output.
    """
    b, h, w, c = x.shape
    xp = _planes(x)
    op = np.empty((c * b, h // 2, w // 2), x.dtype)
    for a, e in _blocks(len(op), op[0].size):
        cells, block = _pool_cells(xp[a:e]), op[a:e]
        np.maximum(cells[0], cells[1], out=block)
        np.maximum(block, cells[2], out=block)
        np.maximum(block, cells[3], out=block)
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


def conv_pool_relu(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, record: bool = False):
    """relu(maxpool_infer(conv_forward(x, kernels, bias)'s valid region))
    as one fresh channel-major (batch, (h-2)//2, (w-2)//2, filters) map.

    With record, training's stage 1, it returns that map and a record of
    the pooling winners, a fresh channel-major uint8 map of the same
    shape: for each window, the index 0..3 of the first cell, in
    row-major window order, whose biased sum is the window's max, the
    cell maxpool_backward sends the gradient to, or 4 where the max is
    not positive and the ReLU passes no gradient.
    conv_pool_relu_backward takes it.

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
    Without record, the bias is added once, to each window's max; with
    it, to each phase sum, since two sums can tie only once it is added.
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
    if record:
        # an image's grid of winners so far, and a block's flags and scratch
        won = np.empty((f, cols), np.uint8)
        flags = np.empty((f, s), bool)
        scratch = np.empty((f, s), np.uint8)
        winners = np.empty(out.shape, np.uint8)
    for i in range(b):
        _phases(x[i], phases.reshape(4, c_in, hp, wp))
        for a in range(0, n, _STAGE_COLUMNS):
            e = min(a + _STAGE_COLUMNS, n)
            block, other = grid[:, a:e], phase_sum[:, :e - a]
            _tap_sum(taps, reads[0], a, e, block)
            if record:
                block += bias[:, None]
                won_block, flag, spare = won[:, a:e], flags[:, :e - a], scratch[:, :e - a]
                won_block[...] = 0
            for k, phase_reads in enumerate(reads[1:], 1):
                _tap_sum(taps, phase_reads, a, e, other)
                if record:
                    other += bias[:, None]
                    # the first max wins: a later phase only where it is
                    # strictly greater
                    _mark(won_block, np.greater(other, block, out=flag), k, spare)
                np.maximum(block, other, out=block)
            if record:
                _mark(won_block, np.less_equal(block, 0, out=flag), 4, spare)
            else:
                block += bias[:, None]
            np.maximum(block, 0, out=block)
        out[:, i] = grid.reshape(f, hp, wp)[:, :out.shape[2], :out.shape[3]]
        if record:
            winners[:, i] = won.reshape(f, hp, wp)[:, :out.shape[2], :out.shape[3]]
    if record:
        return _as_map(out, b, *out.shape[2:]), _as_map(winners, b, *out.shape[2:])
    return _as_map(out, b, *out.shape[2:])


def _mark(won: np.ndarray, flag: np.ndarray, k: int, spare: np.ndarray) -> None:
    """Set won, whose values are all below k, to k where flag is set;
    spare is a uint8 array of won's shape to work in."""
    np.multiply(flag, k, out=spare, dtype=np.uint8)
    np.maximum(won, spare, out=won)


def _unpool_rows(dest: np.ndarray, winners: np.ndarray, upstream: np.ndarray) -> None:
    """Write upstream, a (planes, p, q) pooled gradient, into the cells
    of the (planes, >= 2p, >= 2q) map dest that winners, conv_pool_relu's
    record, names: row 2p + di of dest holds the cells (di, 0) and
    (di, 1) of pooled row p. Every other cell of the 2p x 2q region gets
    a zero, of either sign; nothing outside it is written."""
    p, q = winners.shape[1:]
    hit = np.empty(winners.shape, bool)
    for k, cell in enumerate(_pool_cells(dest[:, :2 * p, :2 * q])):
        np.equal(winners, k, out=hit)
        np.multiply(upstream, hit, out=cell)


def conv_pool_relu_backward(x: np.ndarray, kernels: np.ndarray, winners: np.ndarray,
                            upstream: np.ndarray):
    """Gradients (d_kernels, d_bias) of conv_pool_relu(x, kernels, bias,
    record=True) on a one-channel x, from winners, its record, and
    upstream, its output's gradient. A first stage needs no d_input.

    Byte for byte, they are what maxpool_backward and then conv_backward
    return from the layered stage's conv output, wherever the two paths'
    pooled maps agree, yet no map of the conv output's size is written.
    The gradient map maxpool_backward would write is rebuilt a run of
    whole rows at a time. d_kernels adds conv_backward's window products
    over the same column blocks of that map, in the same order. d_bias
    sums each filter's row of it, rebuilt alone at its full length,
    since numpy's pairwise row sum depends on the row's length.

    The rebuilt map has maxpool_backward's values, but a zero of either
    sign where it may have +0, and no result can tell: adding a zero to
    a nonzero sum leaves it as it was, d_kernels' block sums are added
    to a +0 start, and every row sum has +0 terms, from the rows below
    each image's windows, so a zero sum comes out +0 either way.
    """
    b, h, w, _ = x.shape
    f = kernels.shape[3]
    ph = winners.shape[1]
    winners, upstream = (m.transpose(3, 0, 1, 2) for m in (winners, upstream))
    shifts = _shifts(w)
    xm = _matrix(x)
    reads = [(xm, s) for s in shifts]
    n = xm.shape[1] - shifts[-1]
    blocks = _blocks(n, f)
    dtype = np.result_type(x, kernels, upstream)

    def fill(run, start):
        # rows start.. of the (f, b*h, w) map into run, as many as it
        # holds but never one of the two a pooled row covers without the
        # other; returns the row after the last
        stop = min(start + run.shape[1], b * h)
        if stop < b * h:
            stop = pair_start(stop)
        for i in range(start // h, -(-stop // h)):
            lo, hi = max(start - i * h, 0), min(stop - i * h, h)
            p0, p1 = min(lo, 2 * ph) // 2, min(hi, 2 * ph) // 2
            dest = run[:, i * h + lo - start:i * h + hi - start]
            _unpool_rows(dest, winners[:, i, p0:p1], upstream[:, i, p0:p1])
            dest[:, 2 * (p1 - p0):] = 0
        return stop

    def pair_start(row):
        # row, or the row before it if it is the second of a pair
        local = row % h
        return row - 1 if local % 2 and local < 2 * ph else row

    # a run of rows covers about four blocks, and a block, begun on the
    # row pair it starts in, always fits in one; the columns right of
    # the windows stay zero
    span = -(-blocks[0][1] // w)
    run = np.zeros((f, 4 * span + 4, w), dtype)
    d_taps = np.zeros((9, 1, f), dtype)
    start = stop = 0
    for a, e in blocks:
        if e > stop * w:
            start = pair_start(a // w)
            stop = fill(run, start)
        u = run.reshape(f, -1)[:, a - start * w:e - start * w]
        d_taps += _tap_grads(reads, a, e, u)

    # the rows and columns outside the windows stay zero
    row = np.zeros((b, h, w), dtype)
    d_bias = np.empty(f, dtype)
    for c in range(f):
        _unpool_rows(row, winners[c], upstream[c])
        d_bias[c] = row.sum()
    return d_taps.reshape(kernels.shape), d_bias


def maxpool_backward(
    x_shape: tuple[int, ...],
    grid: np.ndarray,
    pooled: np.ndarray,
    upstream: np.ndarray,
) -> np.ndarray:
    """Gradient of relu(maxpool_forward(x)) with respect to x, of shape
    x_shape, written over x in place. grid is a channel-major (batch,
    rows, cols, c) map at least as large as x's (h, w), whose [:, :h, :w]
    is x, as conv_forward returns it; on return its [:, :h, :w] holds the
    gradient and its rest is zero, and grid is returned. A conv output
    lies on its input's grid, so this is the upstream gradient
    conv_backward takes. Raises ValueError for a map that is not
    channel-major, whose planes the kernel could write only in a copy.

    pooled is the rectified pool output. Each window's upstream gradient
    goes to its first cell, in row-major window order, whose value equals
    pooled, and only where pooled > 0: ReLU blocks it elsewhere. A
    trailing row or column the windows do not cover gets zero. Each cell
    is compared before it is written.
    """
    h, w = x_shape[1:3]
    gp = _planes(grid)
    if not np.may_share_memory(gp, grid):
        raise ValueError("maxpool_backward writes over grid, which must be a channel-major map")
    pp, up = _planes(pooled), _planes(upstream)
    for a, e in _blocks(len(pp), pp[0].size):
        gp[a:e, 2 * (h // 2):] = 0
        gp[a:e, :, 2 * (w // 2):] = 0
        # rest holds what no earlier cell took; a winner's value is
        # subtracted exactly, leaving 0
        rest = up[a:e] * (pp[a:e] > 0)
        hit = np.empty(rest.shape, bool)
        cells = _pool_cells(gp[a:e, :h, :w])
        for cell in cells[:3]:
            np.equal(cell, pp[a:e], out=hit)
            np.multiply(rest, hit, out=cell)
            rest -= cell
        # any gradient still left belongs to the last cell
        cells[3][...] = rest
    return grid


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
