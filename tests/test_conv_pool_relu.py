"""batched.conv_pool_relu, the fused inference stage, against the layered
conv_forward -> maxpool_infer -> ReLU it replaces.

The two sum the same products in the same tap order, but over different
column positions; with some BLAS kernels (AVX2's, say) an element of a
GEMM depends on its column, so the comparison allows for a different
summation order, with a bound set from the float32 epsilon.
"""

import numpy as np
import pytest

from parasnet import batched

# (h, w) of a stage input: every odd/even pair, and one map whose phases
# span several blocks once _STAGE_COLUMNS is small
SIZES = [(8, 10), (9, 11), (8, 11), (9, 10), (24, 33)]


def _layered(x, kernels, bias):
    h, w = x.shape[1:3]
    pooled = batched.maxpool_infer(batched.conv_forward(x, kernels, bias)[:, :h - 2, :w - 2])
    return np.maximum(pooled, 0, out=pooled)


def _stage(rng, b, h, w, c_in, f, dtype=np.float32):
    x = rng.standard_normal((b, h, w, c_in)).astype(dtype)
    kernels = rng.standard_normal((3, 3, c_in, f)).astype(dtype)
    bias = rng.standard_normal(f).astype(dtype)
    return x, kernels, bias


def _check(x, kernels, bias):
    got = batched.conv_pool_relu(x, kernels, bias)
    want = _layered(x, kernels, bias)
    assert got.shape == want.shape and got.dtype == want.dtype
    # two orders of one sum of 9 * c_in products and a bias differ by at
    # most 2 * (terms) * eps times the sum of the terms' magnitudes; max
    # and ReLU do not widen that
    magnitudes = _layered(np.abs(x), np.abs(kernels), np.abs(bias))
    terms = 9 * x.shape[3] + 1
    bound = 2 * terms * np.finfo(got.dtype).eps * magnitudes
    assert (np.abs(got - want) <= bound).all()


@pytest.mark.parametrize("b", [1, 3, 5])
@pytest.mark.parametrize("f", [1, 2, 8])
@pytest.mark.parametrize("columns", [None, 7])
def test_matches_the_layered_stage(monkeypatch, b, f, columns):
    # stage 1 has one input channel (the window-matrix path), stage 2 f
    if columns is not None:
        monkeypatch.setattr(batched, "_STAGE_COLUMNS", columns)
    rng = np.random.default_rng(100 * b + f)
    for h, w in SIZES:
        for c_in in (1, f):
            _check(*_stage(rng, b, h, w, c_in, f))


def test_float64_and_channel_major_views():
    rng = np.random.default_rng(1)
    x, kernels, bias = _stage(rng, 2, 9, 12, 3, 4, np.float64)
    _check(x, kernels, bias)
    # the layout stage 2 gets from stage 1: a channel-major map
    x_cm = np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
    got = batched.conv_pool_relu(x_cm, kernels, bias)
    assert got.tobytes() == batched.conv_pool_relu(x, kernels, bias).tobytes()
    # the output is a fresh channel-major map
    assert got.transpose(3, 0, 1, 2).flags.c_contiguous


def test_a_batch_is_its_images_bit_for_bit():
    # each image runs on its own, through the same GEMMs at the same
    # columns as alone, on any BLAS kernel
    rng = np.random.default_rng(2)
    for c_in in (1, 3):
        x, kernels, bias = _stage(rng, 3, 11, 10, c_in, 3)
        got = batched.conv_pool_relu(x, kernels, bias)
        for i in range(3):
            alone = batched.conv_pool_relu(x[i:i + 1], kernels, bias)
            assert got[i:i + 1].tobytes() == alone.tobytes()


class _PoisonedNumpy:
    """numpy, except that empty returns arrays filled with NaN, and keeps
    each one."""

    def __init__(self):
        self.made = []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        out = np.full(shape, np.nan, dtype)
        self.made.append(out)
        return out


def test_every_allocated_value_is_written(monkeypatch):
    # the phases' padding and the grid's tail columns, which no valid
    # output reads, are zeroed all the same: a sum or max over an
    # uninitialised value could overflow, a RuntimeWarning
    poisoned = _PoisonedNumpy()
    monkeypatch.setattr(batched, "np", poisoned)
    rng = np.random.default_rng(3)
    for h, w in SIZES:
        for c_in in (1, 2):
            x, kernels, bias = _stage(rng, 2, h, w, c_in, 2)
            with np.errstate(all="raise"):
                batched.conv_pool_relu(x, kernels, bias)
    assert poisoned.made
    for array in poisoned.made:
        assert not np.isnan(array).any()
