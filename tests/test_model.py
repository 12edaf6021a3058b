"""Architecture shape and parameter-count pins, init statistics, checkpoints."""

import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fd import kink_pattern
from parasnet import batched
from parasnet import evaluation as ev
from parasnet import model as pm
from parasnet import training as tr


def expected_param_count(filters, height=244, width=324):
    """Closed form: five 3x3 conv stages, each valid conv then 2x2 pool,
    and the 128-unit and 3-way dense layers."""
    h, w = height, width
    for _ in range(5):
        h, w = (h - 2) // 2, (w - 2) // 2
    conv1 = 9 * filters + filters
    conv_rest = 4 * (9 * filters * filters + filters)
    dense1 = h * w * filters * 128 + 128
    dense2 = 128 * 3 + 3
    return conv1 + conv_rest + dense1 + dense2


class TestShapes:
    def test_layer_trace_at_eight_filters(self):
        shapes = pm.layer_shapes(8)
        assert shapes == [
            (242, 322, 8),
            (121, 161, 8),
            (119, 159, 8),
            (59, 79, 8),
            (57, 77, 8),
            (28, 38, 8),
            (26, 36, 8),
            (13, 18, 8),
            (11, 16, 8),
            (5, 8, 8),
            (128,),
            (3,),
        ]

    def test_flatten_is_forty_times_filters(self):
        for f in (1, 2, 4, 8, 16):
            assert pm.flatten_dim(f) == 40 * f

    def test_too_small_input_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            pm.layer_shapes(4, height=60, width=60)


class TestParamCounts:
    def test_eight_filter_totals(self):
        m = pm.build_model(8, seed=0)
        assert pm.layer_param_counts(m) == [80, 584, 584, 584, 584, 41088, 387]
        assert pm.param_count(m) == 43891

    def test_closed_form_matches_actual(self):
        for f in (1, 2, 4, 8, 16):
            m = pm.build_model(f, seed=1)
            assert pm.param_count(m) == expected_param_count(f)

    def test_four_filter_total(self):
        assert expected_param_count(4) == 21627

    def test_parameter_order_is_stable(self):
        m = pm.build_model(2, seed=3)
        shapes = [p.shape for p in pm.parameters(m)]
        assert shapes[0] == (3, 3, 1, 2)
        assert shapes[1] == (2,)
        assert shapes[2] == (3, 3, 2, 2)
        assert shapes[10] == (80, 128)
        assert shapes[13] == (3,)
        assert len(shapes) == 14


class TestInit:
    def test_same_seed_same_weights(self):
        a = pm.build_model(4, seed=11)
        b = pm.build_model(4, seed=11)
        for pa, pb in zip(pm.parameters(a), pm.parameters(b)):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_different_weights(self):
        a = pm.build_model(4, seed=11)
        b = pm.build_model(4, seed=12)
        assert not np.array_equal(a.conv_kernels[0], b.conv_kernels[0])

    def test_biases_start_at_zero(self):
        m = pm.build_model(8, seed=5)
        for b in m.conv_biases:
            assert not b.any()
        assert not m.dense1_bias.any()
        assert not m.dense2_bias.any()

    def test_conv2_weights_respect_glorot_bound(self):
        # fan_in = fan_out = 9 * 8 for the middle conv layers
        bound = pm.glorot_bound(72, 72)
        assert abs(bound - 0.2041241) < 1e-6
        m = pm.build_model(8, seed=7, dtype=np.float64)
        w = m.conv_kernels[1]
        assert np.abs(w).max() <= bound
        # uniform on [-b, b]: mean 0, std b/sqrt(3); 576 draws is enough
        # to land within a loose window
        assert abs(w.mean()) < bound / 10
        assert abs(w.std() - bound / np.sqrt(3)) < bound / 10


class TestForward:
    def test_output_shapes_and_normalization(self):
        m = pm.build_model(2, seed=0)
        rng = np.random.default_rng(0)
        image = rng.random((1, 244, 324, 1), dtype=np.float32)
        probs, hidden = pm.forward_batch(m, image)
        assert probs.shape == (1, 3)
        assert hidden.shape == (1, 128)
        assert abs(probs.sum() - 1.0) < 1e-5
        assert (probs > 0).all()

    def test_batch_agrees_with_single(self):
        m = pm.build_model(2, seed=1)
        rng = np.random.default_rng(1)
        x = rng.random((3, 244, 324, 1), dtype=np.float32)
        probs, hidden = pm.forward_batch(m, x)
        clf = ev.CnnClassifier(m)
        # BLAS may sum in a different order for different batch sizes,
        # so this is close, not bitwise
        for i in range(3):
            p, h = pm.forward_batch(m, x[i : i + 1])
            np.testing.assert_allclose(probs[i], p[0], rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(hidden[i], h[0], rtol=1e-4, atol=1e-5)
            assert clf.predict_one(x[i]) == np.argmax(probs[i])

    def test_train_mode_requires_rng(self):
        m = pm.build_model(2, seed=1)
        x = np.zeros((1, 244, 324, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="RNG"):
            pm.forward_batch(m, x, mode="train")

    def test_infer_ignores_dropout_rng(self):
        m = pm.build_model(2, seed=1)
        rng = np.random.default_rng(4)
        x = rng.random((2, 244, 324, 1), dtype=np.float32)
        a, _ = pm.forward_batch(m, x)
        b, _ = pm.forward_batch(m, x)
        np.testing.assert_array_equal(a, b)

    def test_too_small_input_is_a_value_error(self):
        m = pm.build_model(2, seed=1)
        for hw in (3, 40):
            with pytest.raises(ValueError, match="too small"):
                pm.forward_batch(m, np.zeros((2, hw, hw, 1), np.float32))

    def test_wrong_rank_rejected(self):
        m = pm.build_model(2, seed=1)
        with pytest.raises(ValueError, match="shape"):
            ev.CnnClassifier(m).predict_one(np.zeros((244, 324)))

    @pytest.mark.parametrize("mode", ["infer", "train"])
    def test_empty_batch_is_a_value_error(self, mode):
        # both the fused inference stages and training's cached path
        m = pm.build_model(2, seed=1)
        x = np.zeros((0, 244, 324, 1), np.float32)
        with pytest.raises(ValueError, match="empty batch"):
            pm.forward_batch(m, x, mode=mode, rng=np.random.default_rng(0),
                             want_cache=mode == "train")

    def test_concurrent_single_image_calls_match_serial_results(self):
        m = pm.build_model(8, seed=2)
        rng = np.random.default_rng(2)
        images = rng.random((2, 1, 244, 324, 1), dtype=np.float32)
        expected = [pm.forward_batch(m, x) for x in images]
        results: list[list] = [[], []]

        def worker(i):
            for _ in range(40):
                results[i].append(pm.forward_batch(m, images[i]))

        _run_two_threads(worker)
        for i in range(2):
            assert len(results[i]) == 40
            for probs, hidden in results[i]:
                np.testing.assert_array_equal(probs, expected[i][0])
                np.testing.assert_array_equal(hidden, expected[i][1])

    def test_concurrent_training_steps_match_serial_gradients(self):
        m = pm.build_model(8, seed=3)
        rng = np.random.default_rng(3)
        batches = rng.random((2, 4, 244, 324, 1), dtype=np.float32)
        targets = np.eye(3, dtype=np.float32)[rng.integers(0, 3, size=(2, 4))]

        def step(i):
            probs, _, cache = pm.forward_batch(
                m, batches[i], mode="train", rng=np.random.default_rng(i), want_cache=True
            )
            _, d_probs = tr.bce_loss_batch(probs, targets[i])
            return pm.backward_batch(m, cache, d_probs)

        expected = [step(i) for i in range(2)]
        results: list[list] = [[], []]

        def worker(i):
            for _ in range(10):
                results[i].append(step(i))

        _run_two_threads(worker)
        for i in range(2):
            assert len(results[i]) == 10
            for grads in results[i]:
                for got, want in zip(grads, expected[i], strict=True):
                    np.testing.assert_array_equal(got, want)


class TestChannelMajorLayout:
    def test_inference_bytes_match_the_nhwc_kernels(self):
        # float32 probabilities recorded from the NHWC kernels the
        # channel-major ones replaced (numpy 2.4, OpenBLAS 0.3.31 with its
        # SkylakeX kernel, x86-64): every output sums its taps in the same
        # order as before. The batch of three is each image's B=1 bytes,
        # as the dense head runs image by image
        m = pm.build_model(8, seed=11)
        x = np.random.default_rng(12).random((3, 244, 324, 1), dtype=np.float32)
        one, _ = pm.forward_batch(m, x[:1])
        three, _ = pm.forward_batch(m, x)
        assert one.tobytes().hex() == "d16cad3e6608b03ec88aa23e"
        assert three.tobytes().hex() == (
            "d16cad3e6608b03ec88aa23e08abac3efe0cb03efb47a33edda4ab3e8c88b23e97d2a13e"
        )

    def test_unused_grid_positions_are_never_read(self, monkeypatch):
        # conv outputs lie on their input's grid; NaN in the rows and
        # columns outside the valid region must not reach any result
        m = pm.build_model(2, seed=4, height=98, width=127)
        rng = np.random.default_rng(4)
        x = rng.random((2, 98, 127, 1), dtype=np.float32)
        d_probs = rng.standard_normal((2, 3)).astype(np.float32)

        def run():
            probs, _, cache = pm.forward_batch(
                m, x, mode="train", rng=np.random.default_rng(0), want_cache=True
            )
            grads = pm.backward_batch(m, cache, d_probs)
            inferred, hidden = pm.forward_batch(m, x)
            return [probs, inferred, hidden, *grads]

        clean = run()
        conv_forward = batched.conv_forward
        poisoned = []

        def poisoning(x, kernels, bias):
            out = conv_forward(x, kernels, bias)
            out[:, -2:] = np.nan
            out[:, :, -2:] = np.nan
            poisoned.append(out.shape)
            return out

        monkeypatch.setattr(batched, "conv_forward", poisoning)
        dirty = run()
        # training's layers 2-5 and inference's layers 3-5: training runs
        # layer 1, and inference layers 1 and 2, as batched.conv_pool_relu,
        # whose reads test_conv_pool_relu.py checks
        assert len(poisoned) == 7
        for got, want in zip(dirty, clean, strict=True):
            assert got.tobytes() == want.tobytes()


def _run_two_threads(worker) -> None:
    """Run worker(0) and worker(1) at once, switching threads often."""
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        # smallest input that survives all five stages is 94x94
        m = pm.build_model(2, seed=9, dtype=np.float64, height=94, width=94)
        rng = np.random.default_rng(9)
        x = rng.random((2, 94, 94, 1))
        weight = rng.standard_normal((2, 3))

        def loss_and_kinks():
            probs, _, cache = pm.forward_batch(m, x, want_cache=True)
            return float(np.sum(probs * weight)), kink_pattern(cache)

        _, _, cache = pm.forward_batch(m, x, want_cache=True)
        grads = pm.backward_batch(m, cache, weight.copy())

        params = pm.parameters(m)
        checked = 0
        picker = np.random.default_rng(10)
        step = 1e-5
        for p, g in zip(params, grads):
            assert g.shape == p.shape
            flat = p.reshape(-1)
            flat_idx = picker.choice(p.size, size=min(6, p.size), replace=False)
            for idx in flat_idx:
                orig = flat[idx]
                flat[idx] = orig + step
                plus, pat_plus = loss_and_kinks()
                flat[idx] = orig - step
                minus, pat_minus = loss_and_kinks()
                flat[idx] = orig
                if pat_plus != pat_minus:
                    # perturbation crossed a ReLU or pooling kink where
                    # the finite difference is meaningless
                    continue
                fd = (plus - minus) / (2 * step)
                got = g.reshape(-1)[int(idx)]
                denom = max(abs(fd), abs(got), 1e-8)
                assert abs(fd - got) / denom < 1e-4, (p.shape, idx, fd, got)
                checked += 1
        assert checked >= 40

    def test_dropout_gradient_uses_saved_mask(self):
        m = pm.build_model(2, seed=9, dtype=np.float64, height=94, width=94)
        x = np.random.default_rng(2).random((1, 94, 94, 1))
        rng = np.random.default_rng(5)
        probs, _, cache = pm.forward_batch(m, x, mode="train", rng=rng, want_cache=True)
        assert cache.drop_mask is not None
        grads = pm.backward_batch(m, cache, np.ones_like(probs))
        assert len(grads) == 14

    def test_a_consumed_cache_is_refused(self):
        # backward writes each stage's gradient over its cached conv
        # output, so a second pass would read gradients as activations
        m = pm.build_model(2, seed=9, height=94, width=94)
        x = np.random.default_rng(3).random((2, 94, 94, 1), dtype=np.float32)
        probs, _, cache = pm.forward_batch(m, x, want_cache=True)
        first = pm.backward_batch(m, cache, np.ones_like(probs))
        with pytest.raises(ValueError, match="already ran on this cache"):
            pm.backward_batch(m, cache, np.ones_like(probs))
        _, _, fresh = pm.forward_batch(m, x, want_cache=True)
        for got, want in zip(pm.backward_batch(m, fresh, np.ones_like(probs)), first, strict=True):
            assert got.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        m = pm.build_model(8, seed=42)
        m.meta["note"] = "round trip"
        path = str(tmp_path / "model.pnet")
        pm.save_checkpoint(m, path)
        loaded = pm.load_checkpoint(path)
        assert loaded.filters == 8
        assert loaded.init_seed == 42
        assert loaded.meta == {"note": "round trip"}
        for a, b in zip(pm.parameters(m), pm.parameters(loaded)):
            assert a.tobytes() == b.tobytes()

    def test_non_default_input_size_is_refused_before_writing(self, tmp_path):
        # the file records only the filter count, so a 94x94 model would
        # not read back
        m = pm.build_model(2, seed=1, height=94, width=94)
        path = tmp_path / "small.pnet"
        with pytest.raises(ValueError, match="244x324"):
            pm.save_checkpoint(m, str(path))
        assert not path.exists()

    def test_save_load_save_is_stable(self, tmp_path):
        m = pm.build_model(4, seed=3)
        p1 = str(tmp_path / "a.pnet")
        p2 = str(tmp_path / "b.pnet")
        pm.save_checkpoint(m, p1)
        pm.save_checkpoint(pm.load_checkpoint(p1), p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pnet"
        path.write_bytes(b"XXXX" + b"\0" * 100)
        with pytest.raises(pm.CheckpointMagicError, match="magic"):
            pm.load_checkpoint(str(path))

    def test_unknown_version_rejected(self, tmp_path):
        m = pm.build_model(1, seed=0)
        path = str(tmp_path / "v9.pnet")
        pm.save_checkpoint(m, path)
        blob = bytearray(Path(path).read_bytes())
        blob[4] = 9
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(pm.CheckpointVersionError, match="version 9"):
            pm.load_checkpoint(str(path))

    def test_truncation_reports_missing_bytes(self, tmp_path):
        m = pm.build_model(2, seed=0)
        path = str(tmp_path / "cut.pnet")
        pm.save_checkpoint(m, path)
        blob = Path(path).read_bytes()
        for cut in (2, 6, 40, len(blob) - 3):
            Path(path).write_bytes(blob[:cut])
            with pytest.raises(pm.CheckpointTruncatedError, match=r"\d+ bytes missing"):
                pm.load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        m = pm.build_model(1, seed=0)
        path = str(tmp_path / "extra.pnet")
        pm.save_checkpoint(m, path)
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(pm.CheckpointError, match="trailing"):
            pm.load_checkpoint(path)

    def test_huge_declared_filter_count_is_truncation_not_allocation(self, tmp_path):
        path = tmp_path / "huge.pnet"
        path.write_bytes(pm.CHECKPOINT_MAGIC + struct.pack("<II", 1, 65536))
        with pytest.raises(pm.CheckpointTruncatedError, match=r"\d+ bytes missing"):
            pm.load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "meta, message",
        [(b"seed=1\nnote=\xff\xfe", "UTF-8"), (b"seed=one", "not an integer")],
    )
    def test_bad_metadata_is_a_checkpoint_error(self, tmp_path, meta, message):
        m = pm.build_model(1, seed=0)
        path = str(tmp_path / "meta.pnet")
        pm.save_checkpoint(m, path)
        # the file ends with the u32 length and the 6 bytes of "seed=0"
        body = Path(path).read_bytes()[:-10]
        Path(path).write_bytes(body + struct.pack("<I", len(meta)) + meta)
        with pytest.raises(pm.CheckpointError, match=message):
            pm.load_checkpoint(path)

    def test_non_finite_parameters_rejected(self, tmp_path):
        # save_checkpoint refuses such a model, so the value goes into the
        # bytes of a saved file: the first value of tensor `index`
        path = str(tmp_path / "nan.pnet")
        m = pm.build_model(1, seed=0)
        pm.save_checkpoint(m, path)
        blob = Path(path).read_bytes()
        sizes = [p.size for p in pm.parameters(m)]
        for value in (np.nan, np.inf, -np.inf):
            for index in (0, 13):
                offset = 12 + 4 * sum(sizes[:index])
                Path(path).write_bytes(
                    blob[:offset] + struct.pack("<f", value) + blob[offset + 4:]
                )
                with pytest.raises(pm.CheckpointError, match=f"tensor {index} holds non-finite"):
                    pm.load_checkpoint(path)

    def test_non_finite_parameters_are_refused_before_writing(self, tmp_path):
        path = tmp_path / "nan.pnet"
        for value in (np.nan, np.inf, -np.inf):
            for index in (0, 13):
                m = pm.build_model(1, seed=0)
                pm.parameters(m)[index].flat[0] = value
                with pytest.raises(ValueError, match=f"array {index} holds non-finite"):
                    pm.save_checkpoint(m, str(path))
                assert not path.exists()

    def test_truncated_errors_are_checkpoint_errors(self):
        assert issubclass(pm.CheckpointTruncatedError, pm.CheckpointError)
        assert issubclass(pm.CheckpointMagicError, pm.CheckpointError)
        assert issubclass(pm.CheckpointVersionError, pm.CheckpointError)
