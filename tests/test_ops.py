"""Tests for the single-image reference layers and the model's dropout."""

import numpy as np
import pytest

from parasnet import model as pm

import ops
from fd import central_diff_grad, rel_error


def naive_conv2d(image, kernels, bias):
    """Quadruple-loop reference convolution with scalar accumulation."""
    h, w, c_in = image.shape
    n_filters = kernels.shape[3]
    out = np.empty((h - 2, w - 2, n_filters))
    for i in range(h - 2):
        for j in range(w - 2):
            for f in range(n_filters):
                acc = float(bias[f])
                for ki in range(3):
                    for kj in range(3):
                        for c in range(c_in):
                            acc += float(image[i + ki, j + kj, c]) * float(kernels[ki, kj, c, f])
                out[i, j, f] = acc
    return out


class TestConv2d:
    def test_output_shape_matches_network_geometry(self):
        rng = np.random.default_rng(0)
        image = rng.random((244, 324, 1))
        kernels = rng.standard_normal((3, 3, 1, 8))
        bias = np.zeros(8)
        out = ops.conv2d_valid(image, kernels, bias)
        assert out.shape == (242, 322, 8)

    def test_center_delta_kernel_crops_one_pixel_border(self):
        rng = np.random.default_rng(1)
        image = rng.random((10, 12, 1))
        kernels = np.zeros((3, 3, 1, 1))
        kernels[1, 1, 0, 0] = 1.0
        out = ops.conv2d_valid(image, kernels, np.zeros(1))
        np.testing.assert_array_equal(out[:, :, 0], image[1:-1, 1:-1, 0])

    def test_bitwise_equal_to_naive_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            h = int(rng.integers(3, 17))
            w = int(rng.integers(3, 17))
            c_in = int(rng.integers(1, 5))
            n_filters = int(rng.integers(1, 5))
            image = rng.standard_normal((h, w, c_in))
            kernels = rng.standard_normal((3, 3, c_in, n_filters))
            bias = rng.standard_normal(n_filters)
            fast = ops.conv2d_valid(image, kernels, bias)
            slow = naive_conv2d(image, kernels, bias)
            np.testing.assert_array_equal(fast, slow)

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match=">= 3"):
            ops.conv2d_valid(rng.random((2, 8, 1)), rng.random((3, 3, 1, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="channel count"):
            ops.conv2d_valid(rng.random((8, 8, 2)), rng.random((3, 3, 3, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="bias"):
            ops.conv2d_valid(rng.random((8, 8, 1)), rng.random((3, 3, 1, 2)), np.zeros(3))

    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(4)
        image = rng.standard_normal((6, 6, 2))
        kernels = rng.standard_normal((3, 3, 2, 3))
        grads = ops.conv2d_backward(image, kernels, np.zeros((4, 4, 3)))
        assert not grads.d_input.any()
        assert not grads.d_params[0].any()
        assert not grads.d_params[1].any()

    def test_kernel_gradient_is_input_upstream_correlation(self):
        rng = np.random.default_rng(5)
        image = rng.standard_normal((7, 8, 2))
        kernels = rng.standard_normal((3, 3, 2, 2))
        upstream = rng.standard_normal((5, 6, 2))
        grads = ops.conv2d_backward(image, kernels, upstream)
        expected = np.zeros_like(kernels)
        for ki in range(3):
            for kj in range(3):
                for c in range(2):
                    for f in range(2):
                        expected[ki, kj, c, f] = np.sum(
                            image[ki:ki + 5, kj:kj + 6, c] * upstream[:, :, f]
                        )
        np.testing.assert_allclose(grads.d_params[0], expected, rtol=1e-12)

    def test_bias_gradient_sums_upstream_per_filter(self):
        rng = np.random.default_rng(6)
        image = rng.standard_normal((6, 6, 1))
        kernels = rng.standard_normal((3, 3, 1, 4))
        upstream = rng.standard_normal((4, 4, 4))
        grads = ops.conv2d_backward(image, kernels, upstream)
        np.testing.assert_allclose(grads.d_params[1], upstream.sum(axis=(0, 1)), rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            image = rng.standard_normal((6, 6, 2))
            kernels = rng.standard_normal((3, 3, 2, 3))
            bias = rng.standard_normal(3)
            upstream = rng.standard_normal((4, 4, 3))

            grads = ops.conv2d_backward(image, kernels, upstream)

            def loss():
                return float(np.sum(ops.conv2d_valid(image, kernels, bias) * upstream))

            assert rel_error(grads.d_input, central_diff_grad(loss, image)) < 1e-6
            assert rel_error(grads.d_params[0], central_diff_grad(loss, kernels)) < 1e-6
            assert rel_error(grads.d_params[1], central_diff_grad(loss, bias)) < 1e-6

    def test_upstream_shape_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="upstream"):
            ops.conv2d_backward(
                rng.random((6, 6, 1)), rng.random((3, 3, 1, 2)), rng.random((4, 4, 3))
            )


class TestRelu:
    def test_clamps_negatives(self):
        np.testing.assert_array_equal(
            ops.relu(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0])
        )

    def test_identity_on_nonnegative_input(self):
        rng = np.random.default_rng(0)
        x = rng.random((5, 4, 2))
        np.testing.assert_array_equal(ops.relu(x), x)

    def test_gradient_matches_finite_differences_away_from_kink(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal((6, 5))
            x[np.abs(x) < 1e-3] = 0.5
            upstream = rng.standard_normal((6, 5))
            grads = ops.relu_backward(x, upstream)

            def loss():
                return float(np.sum(ops.relu(x) * upstream))

            assert rel_error(grads.d_input, central_diff_grad(loss, x)) < 1e-6

    def test_subgradient_at_zero_is_zero(self):
        x = np.array([0.0, 1.0])
        grads = ops.relu_backward(x, np.array([3.0, 3.0]))
        np.testing.assert_array_equal(grads.d_input, np.array([0.0, 3.0]))


class TestMaxPool:
    def test_network_geometry(self):
        rng = np.random.default_rng(0)
        out = ops.maxpool_2x2(rng.random((57, 77, 8)))
        assert out.shape == (28, 38, 8)

    def test_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        np.testing.assert_array_equal(ops.maxpool_2x2(x), np.array([[[4.0]]]))

    def test_constant_image_halves_extents(self):
        x = np.full((6, 8, 3), 0.7)
        out = ops.maxpool_2x2(x)
        assert out.shape == (3, 4, 3)
        assert (out == 0.7).all()

    def test_rejects_too_small_input(self):
        with pytest.raises(ValueError, match=">= 2"):
            ops.maxpool_2x2(np.zeros((1, 5, 1)))

    def test_backward_routes_to_argmax(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        grads = ops.maxpool_2x2_backward(x, np.array([[[5.0]]]))
        np.testing.assert_array_equal(grads.d_input[:, :, 0], np.array([[0.0, 0.0], [0.0, 5.0]]))

    def test_backward_tie_goes_to_first_in_row_major_order(self):
        x = np.full((2, 2, 1), 1.5)
        grads = ops.maxpool_2x2_backward(x, np.array([[[7.0]]]))
        np.testing.assert_array_equal(grads.d_input[:, :, 0], np.array([[7.0, 0.0], [0.0, 0.0]]))

    def test_backward_conserves_gradient_mass(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            h = int(rng.integers(2, 12))
            w = int(rng.integers(2, 12))
            c = int(rng.integers(1, 4))
            x = rng.standard_normal((h, w, c))
            upstream = rng.standard_normal((h // 2, w // 2, c))
            grads = ops.maxpool_2x2_backward(x, upstream)
            assert grads.d_input.sum() == pytest.approx(upstream.sum(), rel=1e-12)

    def test_gradient_matches_finite_differences_with_distinct_entries(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            # Distinct values keep the argmax stable under the probe step.
            x = rng.permutation(48).astype(np.float64).reshape(6, 4, 2)
            upstream = rng.standard_normal((3, 2, 2))
            grads = ops.maxpool_2x2_backward(x, upstream)

            def loss():
                return float(np.sum(ops.maxpool_2x2(x) * upstream))

            assert rel_error(grads.d_input, central_diff_grad(loss, x)) < 1e-6


class TestDense:
    def test_parameter_count_of_first_fc_layer(self):
        weights = np.zeros((320, 128))
        bias = np.zeros(128)
        assert weights.size + bias.size == 41088

    def test_identity_weights(self):
        x = np.array([1.0, -2.0, 3.0])
        out = ops.dense(x, np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(out, x)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(5)
            weights = rng.standard_normal((5, 4))
            bias = rng.standard_normal(4)
            upstream = rng.standard_normal(4)
            grads = ops.dense_backward(x, weights, upstream)

            def loss():
                return float(np.sum(ops.dense(x, weights, bias) * upstream))

            assert rel_error(grads.d_input, central_diff_grad(loss, x)) < 1e-6
            assert rel_error(grads.d_params[0], central_diff_grad(loss, weights)) < 1e-6
            assert rel_error(grads.d_params[1], central_diff_grad(loss, bias)) < 1e-6

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="weight shape"):
            ops.dense(np.zeros(4), np.zeros((5, 3)), np.zeros(3))


class TestDropout:
    def test_rate_zero_is_identity_in_both_modes(self):
        rng = np.random.default_rng(0)
        x = rng.random(50)
        out_train, _ = pm.dropout(x, 0.0, "train", np.random.default_rng(1))
        out_infer, _ = pm.dropout(x, 0.0, "infer")
        np.testing.assert_array_equal(out_train, x)
        np.testing.assert_array_equal(out_infer, x)

    def test_infer_mode_is_identity_for_any_rate(self):
        x = np.random.default_rng(0).random(100)
        out, mask = pm.dropout(x, 0.7, "infer")
        assert mask is None
        np.testing.assert_array_equal(out, x)

    def test_expected_value_is_preserved(self):
        x = np.ones(10_000)
        out, _ = pm.dropout(x, 0.5, "train", np.random.default_rng(42))
        assert 0.95 <= out.mean() <= 1.05

    def test_rejects_rate_outside_range(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="rate"):
                pm.dropout(np.ones(3), rate, "train", np.random.default_rng(0))

    def test_backward_reuses_mask(self):
        x = np.ones(1000)
        rng = np.random.default_rng(7)
        out, mask = pm.dropout(x, 0.5, "train", rng)
        grads = ops.dropout_backward(mask, np.ones(1000))
        np.testing.assert_array_equal(grads.d_input, mask)


class TestSoftmax:
    def test_uniform_logits(self):
        np.testing.assert_allclose(ops.softmax(np.zeros(3)), np.full(3, 1 / 3), rtol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = rng.standard_normal(5)
            c = rng.standard_normal()
            np.testing.assert_allclose(ops.softmax(z + c), ops.softmax(z), rtol=1e-10)

    def test_known_value(self):
        out = ops.softmax(np.array([np.log(2.0), 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.25, 0.25], rtol=1e-12)

    def test_outputs_positive_and_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = ops.softmax(rng.standard_normal(7) * 30)
            assert (p > 0).all()
            assert abs(p.sum() - 1.0) < 1e-6

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ops.softmax(np.array([1.0, np.nan, 0.0]))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.standard_normal(4)
            upstream = rng.standard_normal(4)
            probs = ops.softmax(z)
            grads = ops.softmax_backward(probs, upstream)

            def loss():
                return float(np.sum(ops.softmax(z) * upstream))

            assert rel_error(grads.d_input, central_diff_grad(loss, z)) < 1e-6


def test_operations_preserve_finiteness():
    rng = np.random.default_rng(0)
    image = rng.standard_normal((8, 8, 2))
    kernels = rng.standard_normal((3, 3, 2, 3))
    bias = rng.standard_normal(3)
    out = ops.conv2d_valid(image, kernels, bias)
    out = ops.relu(out)
    out = ops.maxpool_2x2(out)
    flat = out.reshape(-1)
    dense_out = ops.dense(flat, rng.standard_normal((flat.size, 5)), rng.standard_normal(5))
    probs = ops.softmax(dense_out)
    for arr in (out, flat, dense_out, probs):
        assert np.isfinite(arr).all()
