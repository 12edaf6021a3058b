"""The batched kernels must agree with the single-image ones."""

import numpy as np

from parasnet import batched
from parasnet import model

import ops
from fd import central_diff_grad, rel_error


def test_conv_forward_matches_single_image_kernel():
    rng = np.random.default_rng(0)
    for _ in range(10):
        b = int(rng.integers(1, 5))
        h = int(rng.integers(3, 12))
        w = int(rng.integers(3, 12))
        c_in = int(rng.integers(1, 4))
        n_filters = int(rng.integers(1, 5))
        x = rng.standard_normal((b, h, w, c_in))
        kernels = rng.standard_normal((3, 3, c_in, n_filters))
        bias = rng.standard_normal(n_filters)
        out = batched.conv_forward(x, kernels, bias)
        assert out.shape == (b, h, w, n_filters)
        for i in range(b):
            ref = ops.conv2d_valid(x[i], kernels, bias)
            np.testing.assert_allclose(out[i, :h - 2, :w - 2], ref, rtol=1e-12, atol=1e-12)


def test_conv_backward_matches_single_image_kernel():
    # one input channel takes the tap-major window path, more the tap sum
    rng = np.random.default_rng(1)
    for c_in in (1, 2):
        for _ in range(10):
            b = int(rng.integers(1, 4))
            x = rng.standard_normal((b, 7, 8, c_in))
            kernels = rng.standard_normal((3, 3, c_in, 3))
            bias = rng.standard_normal(3)
            out = batched.conv_forward(x, kernels, bias)
            # the output's gradient lies on x's grid, zero outside 5x6
            upstream = np.zeros(out.shape)
            upstream[:, :5, :6] = rng.standard_normal((b, 5, 6, 3))
            d_input, d_kernels, d_bias = batched.conv_backward(
                x.shape, x, kernels, upstream
            )
            ref_k = np.zeros_like(kernels)
            ref_b = np.zeros_like(bias)
            for i in range(b):
                np.testing.assert_allclose(
                    out[i, :5, :6], ops.conv2d_valid(x[i], kernels, bias),
                    rtol=1e-12, atol=1e-12,
                )
                g = ops.conv2d_backward(x[i], kernels, upstream[i, :5, :6])
                np.testing.assert_allclose(d_input[i], g.d_input, rtol=1e-10, atol=1e-12)
                ref_k += g.d_params[0]
                ref_b += g.d_params[1]
            np.testing.assert_allclose(d_kernels, ref_k, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(d_bias, ref_b, rtol=1e-10, atol=1e-12)


def test_conv_backward_can_skip_input_gradient():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 6, 6, 1))
    kernels = rng.standard_normal((3, 3, 1, 2))
    out = batched.conv_forward(x, kernels, np.zeros(2))
    d_input, d_kernels, d_bias = batched.conv_backward(
        x.shape, x, kernels, np.ones_like(out), need_input_grad=False
    )
    assert d_input is None
    assert d_kernels.shape == kernels.shape


def test_maxpool_matches_single_image_kernel():
    # maxpool_backward differentiates relu(maxpool(x)), so the reference
    # is the single-image pool's backward on relu(x)
    rng = np.random.default_rng(3)
    for odd_h, odd_w in [(1, 1), (1, 0), (0, 1), (0, 0)] * 3:
        b = int(rng.integers(1, 4))
        h = 2 * int(rng.integers(1, 6)) + odd_h
        w = 2 * int(rng.integers(1, 6)) + odd_w
        c = int(rng.integers(1, 4))
        # few distinct values, so most windows hold ties, some at zero
        x = rng.integers(-2, 3, size=(b, h, w, c)).astype(np.float32)
        pooled = batched.maxpool_forward(x)
        for i in range(b):
            np.testing.assert_array_equal(pooled[i], ops.maxpool_2x2(x[i]))
        np.maximum(pooled, 0, out=pooled)
        upstream = rng.integers(-3, 4, size=pooled.shape).astype(np.float32)
        d_input = batched.maxpool_backward(x.shape, x, pooled, upstream, (h, w))
        assert d_input.shape == x.shape
        for i in range(b):
            relu = np.maximum(x[i], 0)
            g = ops.maxpool_2x2_backward(relu, upstream[i])
            np.testing.assert_array_equal(d_input[i], g.d_input * (x[i] > 0))


def test_maxpool_backward_puts_the_gradient_on_a_larger_grid():
    # a conv output lies on its input's grid, and so does its gradient
    rng = np.random.default_rng(10)
    for h, w in ((7, 9), (8, 8)):
        x = rng.integers(-2, 3, size=(2, h, w, 3)).astype(np.float32)
        pooled = np.maximum(batched.maxpool_forward(x), 0)
        upstream = rng.integers(-3, 4, size=pooled.shape).astype(np.float32)
        d_grid = batched.maxpool_backward(x.shape, x, pooled, upstream, (h + 2, w + 2))
        assert d_grid.shape == (2, h + 2, w + 2, 3)
        expect = np.zeros(d_grid.shape, np.float32)
        expect[:, :h, :w] = batched.maxpool_backward(x.shape, x, pooled, upstream, (h, w))
        np.testing.assert_array_equal(d_grid, expect)


def test_kernels_match_the_references_across_block_boundaries(monkeypatch):
    # blocks of a few values split every test map into many blocks, and
    # each pooling block into single planes
    monkeypatch.setattr(batched, "_BLOCK_VALUES", 5)
    test_conv_forward_matches_single_image_kernel()
    test_conv_backward_matches_single_image_kernel()
    test_maxpool_matches_single_image_kernel()
    test_maxpool_infer_matches_single_image_kernel()


def _channel_major(x):
    """The same values as x, stored as a C-contiguous (c, b, h, w) buffer."""
    return np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)


def test_kernels_agree_on_nhwc_arrays_and_channel_major_views():
    rng = np.random.default_rng(11)
    for c_in in (1, 3):
        x = rng.standard_normal((2, 9, 11, c_in)).astype(np.float32)
        kernels = rng.standard_normal((3, 3, c_in, 4)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        x_cm = _channel_major(x)
        assert x_cm.base is not None and x_cm.base.flags.c_contiguous

        out = batched.conv_forward(x, kernels, bias)
        np.testing.assert_array_equal(batched.conv_forward(x_cm, kernels, bias), out)

        upstream = np.zeros(out.shape, np.float32)
        upstream[:, :7, :9] = rng.standard_normal((2, 7, 9, 4))
        plain = batched.conv_backward(x.shape, x, kernels, upstream)
        viewed = batched.conv_backward(x.shape, x_cm, kernels, _channel_major(upstream))
        for got, want in zip(viewed, plain):
            np.testing.assert_array_equal(got, want)

        # conv_forward's output is channel-major; copy it to plain NHWC
        valid = np.ascontiguousarray(out[:, :7, :9])
        valid_cm = _channel_major(out)[:, :7, :9]
        for pool in (batched.maxpool_forward, batched.maxpool_infer):
            np.testing.assert_array_equal(pool(valid_cm), pool(valid))
        pooled = np.ascontiguousarray(np.maximum(batched.maxpool_forward(valid), 0))
        d_pool = rng.standard_normal(pooled.shape).astype(np.float32)
        np.testing.assert_array_equal(
            batched.maxpool_backward(
                valid.shape, valid_cm, _channel_major(pooled), _channel_major(d_pool),
                (9, 11),
            ),
            batched.maxpool_backward(valid.shape, valid, pooled, d_pool, (9, 11)),
        )


def test_maxpool_infer_matches_single_image_kernel():
    rng = np.random.default_rng(7)
    for _ in range(10):
        b = int(rng.integers(1, 4))
        h = int(rng.integers(2, 12))
        w = int(rng.integers(2, 12))
        c = int(rng.integers(1, 4))
        # few distinct values, so most windows hold ties
        x = rng.integers(-2, 3, size=(b, h, w, c)).astype(np.float32)
        pooled = batched.maxpool_infer(x)
        for i in range(b):
            np.testing.assert_array_equal(pooled[i], ops.maxpool_2x2(x[i]))


def test_pool_then_relu_equals_relu_then_pool_bit_for_bit():
    rng = np.random.default_rng(8)
    for shape in ((1, 9, 7, 3), (2, 12, 13, 8), (3, 5, 5, 1)):
        x = rng.standard_normal(shape).astype(np.float32)
        x[..., 0] = rng.integers(-1, 2, size=shape[:3])  # ties at and around zero
        pool_first = np.maximum(batched.maxpool_infer(x), 0)
        relu_first = batched.maxpool_infer(np.maximum(x, 0))
        assert pool_first.tobytes() == relu_first.tobytes()


def test_train_mode_without_dropout_matches_infer_mode_bit_for_bit():
    # both modes run the same convolutions; only the pool kernel differs
    net = model.build_model(8, seed=9)
    rng = np.random.default_rng(9)
    for b in (1, 2):
        x = rng.random((b, model.INPUT_HEIGHT, model.INPUT_WIDTH, 1), dtype=np.float32)
        inferred, _ = model.forward_batch(net, x)
        trained, _, _ = model.forward_batch(
            net, x, mode="train", rng=rng, dropout_rate=0.0, want_cache=True
        )
        assert inferred.dtype == np.float32
        assert trained.tobytes() == inferred.tobytes()


def test_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.standard_normal((3, 5))
        weights = rng.standard_normal((5, 4))
        bias = rng.standard_normal(4)
        upstream = rng.standard_normal((3, 4))
        d_input, d_weights, d_bias = batched.dense_backward(x, weights, upstream)

        def loss():
            return float(np.sum(batched.dense_forward(x, weights, bias) * upstream))

        assert rel_error(d_input, central_diff_grad(loss, x)) < 1e-6
        assert rel_error(d_weights, central_diff_grad(loss, weights)) < 1e-6
        assert rel_error(d_bias, central_diff_grad(loss, bias)) < 1e-6


def test_softmax_rows_matches_vector_softmax():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((6, 3)) * 10
    probs = batched.softmax_rows(logits)
    for i in range(6):
        np.testing.assert_allclose(probs[i], ops.softmax(logits[i]), rtol=1e-12)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), rtol=1e-12)


def test_softmax_rows_backward_matches_finite_differences():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((4, 3))
    upstream = rng.standard_normal((4, 3))
    probs = batched.softmax_rows(logits)
    d_logits = batched.softmax_rows_backward(probs, upstream)

    def loss():
        return float(np.sum(batched.softmax_rows(logits) * upstream))

    assert rel_error(d_logits, central_diff_grad(loss, logits)) < 1e-6
