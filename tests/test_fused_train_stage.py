"""Training's stage 1: batched.conv_pool_relu with a winner record, and
batched.conv_pool_relu_backward, against the layered chain
conv_forward -> maxpool_forward -> ReLU -> maxpool_backward ->
conv_backward they replace.

Small-integer inputs and kernels make every sum exact, whatever order a
GEMM kernel adds in, so the two paths must agree byte for byte on any
BLAS. A test with continuous values checks the backward's blocks and row
sums against one conv_backward over the whole gradient map.
"""

import numpy as np
import pytest

from parasnet import batched

# (h, w) of a stage input: every odd/even pair, and one map whose rows
# span several blocks and fills once the blocks are small
SIZES = [(8, 10), (9, 11), (8, 11), (9, 10), (24, 33)]


def _layered(x, kernels, bias, upstream):
    """(pooled, d_kernels, d_bias) of the layered stage."""
    b, h, w, _ = x.shape
    valid = (b, h - 2, w - 2, kernels.shape[3])
    grid = batched.conv_forward(x, kernels, bias)
    pooled = batched.maxpool_forward(grid[:, :h - 2, :w - 2])
    np.maximum(pooled, 0, out=pooled)
    d_conv = batched.maxpool_backward(valid, grid, pooled, upstream)
    _, d_kernels, d_bias = batched.conv_backward(x.shape, x, kernels, d_conv)
    return pooled, d_kernels, d_bias


def _fused(x, kernels, bias, upstream):
    """(pooled, d_kernels, d_bias, winners) of the fused stage."""
    pooled, winners = batched.conv_pool_relu(x, kernels, bias, record=True)
    grads = batched.conv_pool_relu_backward(x, kernels, winners, upstream)
    # a first stage returns no input gradient
    assert len(grads) == 2
    return (pooled, *grads, winners)


def _same_bytes(x, kernels, bias, upstream):
    """Assert the two paths agree byte for byte; return the record."""
    *got, winners = _fused(x, kernels, bias, upstream)
    want = _layered(x, kernels, bias, upstream)
    assert winners.dtype == np.uint8 and winners.shape == want[0].shape
    for g, v in zip(got, want, strict=True):
        assert g.shape == v.shape and g.dtype == v.dtype
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(v).tobytes()
    return winners


def _integers(rng, shape, bound, dtype):
    return rng.integers(-bound, bound + 1, size=shape).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("small_blocks", [False, True])
def test_exact_inputs_match_the_layered_chain(monkeypatch, dtype, b, small_blocks):
    # with blocks this small, conv_backward's blocks are a column or two,
    # a run of rows holds a few of them, and every phase spans blocks
    if small_blocks:
        monkeypatch.setattr(batched, "_STAGE_COLUMNS", 7)
        monkeypatch.setattr(batched, "_BLOCK_VALUES", 5)
    rng = np.random.default_rng(10 * b + small_blocks)
    recorded = set()
    for h, w in SIZES:
        f = 3
        x = _integers(rng, (b, h, w, 1), 3, dtype)
        kernels = _integers(rng, (3, 3, 1, f), 2, dtype)
        # a negative bias leaves many windows dead to the ReLU
        bias = _integers(rng, f, 4, dtype)
        upstream = _integers(rng, (b, (h - 2) // 2, (w - 2) // 2, f), 3, dtype)
        recorded |= set(np.unique(_same_bytes(x, kernels, bias, upstream)).tolist())
    # ties are common among small integers; every cell wins somewhere,
    # and some windows are dead (4)
    assert recorded == {0, 1, 2, 3, 4}


def _one_tap(dtype):
    """A one-filter kernel that reads only tap (0, 0), with weight 1: the
    conv output at (i, j) is x[i, j] + bias, exactly."""
    kernels = np.zeros((3, 3, 1, 1), dtype)
    kernels[0, 0] = 1
    return kernels


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_record_names_the_first_max_and_the_dead(dtype):
    # four windows, cells in row-major order: a unique max in the last
    # cell; four equal positive cells; all negative, dead to the ReLU;
    # and a tie between cells 1 and 3
    x = np.zeros((1, 6, 6, 1), dtype)
    x[0, :4, :4, 0] = [[0, 1, 2, 2],
                       [1, 5, 2, 2],
                       [-4, -2, 0, 4],
                       [-3, -6, 1, 4]]
    upstream = np.array([[[[-2.0], [3.0]], [[5.0], [-7.0]]]], dtype)
    winners = _same_bytes(x, _one_tap(dtype), np.zeros(1, dtype), upstream)
    assert winners[0, :, :, 0].tolist() == [[3, 0], [4, 1]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_tie_made_by_the_bias_sends_the_gradient_to_the_first_cell(dtype):
    # cells 0 and 1 differ by 2**-20 before the bias and round to one
    # value after it, whose ulp is 2**-16: the first cell wins, as in
    # maxpool_backward, though the second has the larger sum
    bias = np.full(1, 2.0 ** (np.finfo(dtype).nmant - 16), dtype)
    x = np.zeros((1, 4, 4, 1), dtype)
    x[0, 0, :2, 0] = [1, 1 + 2.0 ** -20]
    assert x[0, 0, 0] < x[0, 0, 1] and x[0, 0, 0] + bias == x[0, 0, 1] + bias
    upstream = np.full((1, 1, 1, 1), 3, dtype)
    winners = _same_bytes(x, _one_tap(dtype), bias, upstream)
    assert winners.ravel().tolist() == [0]
    # the gradient went to cell (0, 0): tap (0, 1) read x[0, 1] there
    _, d_kernels, _, _ = _fused(x, _one_tap(dtype), bias, upstream)
    assert d_kernels[0, 1, 0, 0] == 3 * x[0, 0, 1]


def _whole_map_grads(x, kernels, winners, upstream):
    """d_kernels and d_bias from one conv_backward over the whole gradient
    map that winners and upstream describe."""
    b, h, w, _ = x.shape
    f = kernels.shape[3]
    ph, pw = winners.shape[1:3]
    grid = np.zeros((f, b, h, w), upstream.dtype)
    for k in range(4):
        di, dj = divmod(k, 2)
        cell = upstream * (winners == k)
        grid[:, :, di:2 * ph:2, dj:2 * pw:2] = cell.transpose(3, 0, 1, 2)
    _, d_kernels, d_bias = batched.conv_backward(x.shape, x, kernels, grid.transpose(1, 2, 3, 0))
    return d_kernels, d_bias


@pytest.mark.parametrize("small_blocks", [False, True])
def test_the_backward_sums_as_one_whole_map_conv_backward(monkeypatch, small_blocks):
    # continuous values: rebuilt a run of rows at a time, the map goes
    # through the same GEMMs and row sums as the whole map would
    if small_blocks:
        monkeypatch.setattr(batched, "_BLOCK_VALUES", 37)
    rng = np.random.default_rng(7)
    for b, (h, w), f in ((1, (9, 10), 1), (3, (24, 33), 4), (2, (40, 21), 8)):
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal((b, h, w, 1)).astype(dtype)
            kernels = rng.standard_normal((3, 3, 1, f)).astype(dtype)
            bias = rng.standard_normal(f).astype(dtype)
            upstream = rng.standard_normal((b, (h - 2) // 2, (w - 2) // 2, f)).astype(dtype)
            _, winners = batched.conv_pool_relu(x, kernels, bias, record=True)
            got = batched.conv_pool_relu_backward(x, kernels, winners, upstream)
            want = _whole_map_grads(x, kernels, winners, upstream)
            for g, v in zip(got, want, strict=True):
                assert g.shape == v.shape and g.tobytes() == v.tobytes()


def test_the_record_leaves_the_pooled_map_unchanged():
    # the record's extra work must not change the map inference gets
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 24, 33, 1)).astype(np.float32)
    kernels = rng.standard_normal((3, 3, 1, 4)).astype(np.float32)
    bias = rng.standard_normal(4).astype(np.float32)
    pooled, _ = batched.conv_pool_relu(x, kernels, bias, record=True)
    assert pooled.tobytes() == batched.conv_pool_relu(x, kernels, bias).tobytes()
