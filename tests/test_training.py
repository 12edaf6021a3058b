"""Adam, the summed-BCE loss, augmentation, and the fit loop."""

import numpy as np
import pytest

from parasnet import model as pm
from parasnet import training as tr

from fd import central_diff_grad, kink_pattern, rel_error


class TestAdam:
    def test_first_step_size_is_learning_rate(self):
        # bias correction makes m_hat/sqrt(v_hat) equal sign(g) on step one
        for g in (0.001, -3.0, 250.0):
            p = [np.array([0.0])]
            state = tr.AdamState.for_params(p)
            tr.adam_step(p, [np.array([g])], state, lr=0.01)
            assert abs(abs(p[0][0]) - 0.01) < 1e-6
            assert np.sign(p[0][0]) == -np.sign(g)

    def test_matches_reference_formulas_over_several_steps(self, monkeypatch):
        rng = np.random.default_rng(0)
        p = [rng.standard_normal(4), rng.standard_normal((2, 3))]
        ref = [q.copy() for q in p]
        state = tr.AdamState.for_params(p)
        lr, b1, b2, eps = 0.05, 0.8, 0.95, 1e-8
        monkeypatch.setattr(tr, "ADAM_BETA1", b1)
        monkeypatch.setattr(tr, "ADAM_BETA2", b2)
        monkeypatch.setattr(tr, "ADAM_EPSILON", eps)
        m = [np.zeros_like(q) for q in ref]
        v = [np.zeros_like(q) for q in ref]
        for t in range(1, 6):
            grads = [rng.standard_normal(q.shape) for q in p]
            tr.adam_step(p, grads, state, lr=lr)
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                m_hat = m[i] / (1 - b1**t)
                v_hat = v[i] / (1 - b2**t)
                ref[i] = ref[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for got, want in zip(p, ref):
                np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_decay_shrinks_consecutive_steps(self):
        p = [np.array([0.0])]
        state = tr.AdamState.for_params(p)
        positions = [0.0]
        for _ in range(3):
            tr.adam_step(p, [np.array([1.0])], state, lr=0.1, decay=0.5)
            positions.append(float(p[0][0]))
        steps = np.abs(np.diff(positions))
        # constant gradient keeps m_hat/sqrt(v_hat) at 1, so the steps
        # trace the decay schedule directly
        np.testing.assert_allclose(steps[1] / steps[0], 0.5, rtol=1e-6)
        np.testing.assert_allclose(steps[2] / steps[1], 0.5, rtol=1e-6)

    def test_mismatched_lengths_rejected(self):
        p = [np.zeros(2)]
        state = tr.AdamState.for_params(p)
        with pytest.raises(ValueError, match="mismatched"):
            tr.adam_step(p, [], state)


class TestBceLoss:
    # single samples are batches of one
    def test_uniform_probabilities_value(self):
        probs = np.full((1, 3), 1.0 / 3.0)
        target = np.array([[1.0, 0.0, 0.0]])
        loss, _ = tr.bce_loss_batch(probs, target)
        want = -np.log(1.0 / 3.0) - 2.0 * np.log(2.0 / 3.0)
        assert abs(loss - want) < 1e-9

    def test_half_quarter_quarter_value(self):
        probs = np.array([[0.5, 0.25, 0.25]])
        target = np.array([[1.0, 0.0, 0.0]])
        loss, _ = tr.bce_loss_batch(probs, target)
        want = -np.log(0.5) - 2.0 * np.log(0.75)
        assert abs(loss - want) < 1e-9

    def test_perfect_prediction_is_near_zero(self):
        probs = np.array([[1.0 - 2e-7, 1e-7, 1e-7]])
        target = np.array([[1.0, 0.0, 0.0]])
        loss, _ = tr.bce_loss_batch(probs, target)
        assert 0.0 < loss < 1e-5

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            raw = rng.random((1, 3)) + 0.05
            probs = raw / raw.sum()
            target = np.zeros((1, 3))
            target[0, rng.integers(3)] = 1.0
            _, d = tr.bce_loss_batch(probs, target)

            def f():
                return tr.bce_loss_batch(probs, target)[0]

            assert rel_error(d, central_diff_grad(f, probs)) < 1e-6

    def test_clamped_probabilities_give_zero_gradient(self):
        probs = np.array([[0.0, 1.0, 0.5]])
        target = np.array([[0.0, 1.0, 1.0]])
        loss, d = tr.bce_loss_batch(probs, target)
        assert np.isfinite(loss)
        assert d[0, 0] == 0.0 and d[0, 1] == 0.0
        assert d[0, 2] != 0.0

    def test_batch_is_mean_of_singles(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(3), size=5)
        targets = np.eye(3)[rng.integers(0, 3, size=5)]
        total, d = tr.bce_loss_batch(probs, targets)
        singles = [tr.bce_loss_batch(probs[i:i + 1], targets[i:i + 1]) for i in range(5)]
        assert abs(total - np.mean([s[0] for s in singles])) < 1e-12
        for i in range(5):
            np.testing.assert_allclose(d[i], singles[i][1][0] / 5.0, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            tr.bce_loss_batch(np.zeros((1, 3)), np.zeros((1, 4)))


def _zero_ranges(monkeypatch, flip_prob=0.0):
    """Set augment's ranges to no shift, rotation or zoom."""
    monkeypatch.setattr(tr, "MAX_SHIFT", 0.0)
    monkeypatch.setattr(tr, "FLIP_PROB", flip_prob)
    monkeypatch.setattr(tr, "MAX_ROTATE_DEG", 0.0)
    monkeypatch.setattr(tr, "ZOOM_RANGE", (1.0, 1.0))


class TestAugment:
    def test_identity_config_returns_image_unchanged(self, monkeypatch):
        _zero_ranges(monkeypatch)
        rng = np.random.default_rng(0)
        image = rng.random((30, 40, 1), dtype=np.float32)
        out = tr.augment(image, np.random.default_rng(1))
        np.testing.assert_array_equal(out, image)

    def test_certain_flips_applied_twice_restore_image(self, monkeypatch):
        _zero_ranges(monkeypatch, flip_prob=1.0)
        rng = np.random.default_rng(0)
        image = rng.random((20, 24, 1), dtype=np.float32)
        once = tr.augment(image, np.random.default_rng(2))
        twice = tr.augment(once, np.random.default_rng(3))
        np.testing.assert_array_equal(twice, image)

    def test_same_seed_same_output(self):
        rng = np.random.default_rng(5)
        image = rng.random((50, 60, 1), dtype=np.float32)
        a = tr.augment(image, np.random.default_rng(9))
        b = tr.augment(image, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)
        c = tr.augment(image, np.random.default_rng(10))
        assert not np.array_equal(a, c)

    def test_output_values_come_from_input_or_median(self):
        # nearest-neighbour resampling never invents new intensities
        rng = np.random.default_rng(6)
        image = rng.random((40, 40, 1), dtype=np.float32)
        out = tr.augment(image, np.random.default_rng(11))
        allowed = set(image.ravel().tolist())
        allowed.add(float(np.median(image[:, :, 0])))
        assert set(out.ravel().tolist()) <= allowed

    def test_shape_and_dtype_preserved(self):
        image = np.zeros((30, 50, 1), dtype=np.float32)
        out = tr.augment(image, np.random.default_rng(0))
        assert out.shape == image.shape
        assert out.dtype == image.dtype

    def test_rank_two_input_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            tr.augment(np.zeros((8, 8)), np.random.default_rng(0))


def _blob_dataset(rng, n_per_class, size=94):
    """Two visually distinct classes: bright wide blob vs dark narrow one."""
    images = []
    labels = []
    yy, xx = np.mgrid[0:size, 0:size]
    for label in (0, 1):
        for _ in range(n_per_class):
            cy = rng.uniform(0.35, 0.65) * size
            cx = rng.uniform(0.35, 0.65) * size
            sigma = size * (0.22 if label == 0 else 0.10)
            peak = 0.9 if label == 0 else 0.55
            img = peak * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
            img += rng.normal(0.0, 0.02, size=(size, size))
            images.append(np.clip(img, 0.0, 1.0).astype(np.float32)[:, :, None])
            labels.append(label)
    order = rng.permutation(len(images))
    x = np.stack(images)[order]
    y = np.array(labels, dtype=np.int64)[order]
    return x, y


class TestFit:
    def test_loss_decreases_and_accuracy_beats_chance(self):
        rng = np.random.default_rng(7)
        train_x, train_y = _blob_dataset(rng, 12)
        test_x, test_y = _blob_dataset(rng, 6)
        model = pm.build_model(2, seed=0, height=94, width=94)
        config = tr.TrainConfig(
            epochs=10,
            batch_size=8,
            seed=1,
            augment=False,
            learning_rate=0.01,
        )
        report = tr.fit(model, train_x, train_y, test_x, test_y, config)
        assert len(report.history) == 10
        assert report.history[-1].train_loss < report.history[0].train_loss * 0.8
        assert report.history[-1].test_accuracy >= 0.8
        assert report.confusion.sum() == len(test_y)
        assert report.confusion.shape == (3, 3)

    def test_same_seed_reproduces_run_exactly(self):
        rng = np.random.default_rng(8)
        train_x, train_y = _blob_dataset(rng, 6)
        test_x, test_y = _blob_dataset(rng, 3)
        config = tr.TrainConfig(epochs=2, batch_size=4, seed=5)
        runs = []
        for _ in range(2):
            model = pm.build_model(1, seed=3, height=94, width=94)
            report = tr.fit(model, train_x, train_y, test_x, test_y, config)
            runs.append((report, pm.parameters(model)))
        r1, p1 = runs[0]
        r2, p2 = runs[1]
        for e1, e2 in zip(r1.history, r2.history):
            assert e1.train_loss == e2.train_loss
            assert e1.test_accuracy == e2.test_accuracy
        for a, b in zip(p1, p2):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_one_test_pass_per_epoch_and_the_confusion_reuses_the_last(
        self, monkeypatch, epochs
    ):
        rng = np.random.default_rng(9)
        train_x, train_y = _blob_dataset(rng, 2)
        test_x, test_y = _blob_dataset(rng, 2)
        passes = []
        forward_images = pm.forward_images

        def counted(model, images):
            passes.append(len(images))
            return forward_images(model, images)

        monkeypatch.setattr(pm, "forward_images", counted)
        model = pm.build_model(1, seed=0, height=94, width=94)
        config = tr.TrainConfig(epochs=epochs, batch_size=2, seed=2)
        report = tr.fit(model, train_x, train_y, test_x, test_y, config)
        assert passes == [len(test_x)] * max(epochs, 1)
        expected = np.zeros((3, 3), dtype=np.int64)
        np.add.at(expected, (test_y, tr.predict_labels(model, test_x)), 1)
        np.testing.assert_array_equal(report.confusion, expected)

    def test_csv_round_trip(self, tmp_path):
        report = tr.TrainReport(
            history=[
                tr.EpochStats(1, 1.5, 0.4, 2.0),
                tr.EpochStats(2, 0.9, 0.7, 2.1),
            ],
            confusion=np.zeros((3, 3), dtype=np.int64),
        )
        path = tmp_path / "history.csv"
        report.to_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,test_accuracy"
        assert len(lines) == 3
        assert lines[1] == "1,1.500000,0.4000"
        assert report.best_accuracy == 0.7
        assert report.final_accuracy == 0.7

    def test_label_out_of_range_rejected(self):
        model = pm.build_model(1, seed=0, height=94, width=94)
        x = np.zeros((2, 94, 94, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="labels"):
            tr.fit(model, x, np.array([0, 3]), x, np.array([0, 1]), tr.TrainConfig(epochs=1))

    def test_empty_training_set_rejected(self):
        model = pm.build_model(1, seed=0, height=94, width=94)
        empty = np.zeros((0, 94, 94, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="empty"):
            tr.fit(
                model,
                empty,
                np.zeros(0, dtype=np.int64),
                empty,
                np.zeros(0, dtype=np.int64),
                tr.TrainConfig(epochs=1),
            )


class TestLossGradientChain:
    def test_loss_gradient_through_network_matches_finite_differences(self):
        m = pm.build_model(2, seed=13, dtype=np.float64, height=94, width=94)
        rng = np.random.default_rng(13)
        x = rng.random((2, 94, 94, 1))
        targets = np.eye(3)[np.array([0, 2])]

        def loss_and_kinks():
            probs, _, cache = pm.forward_batch(m, x, want_cache=True)
            value, _ = tr.bce_loss_batch(probs, targets)
            return value, kink_pattern(cache)

        probs, _, cache = pm.forward_batch(m, x, want_cache=True)
        _, d_probs = tr.bce_loss_batch(probs, targets)
        grads = pm.backward_batch(m, cache, d_probs)

        params = pm.parameters(m)
        picker = np.random.default_rng(14)
        step = 1e-5
        checked = 0
        for p, g in zip(params, grads):
            flat = p.reshape(-1)
            for idx in picker.choice(p.size, size=min(3, p.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + step
                plus, pat_plus = loss_and_kinks()
                flat[idx] = orig - step
                minus, pat_minus = loss_and_kinks()
                flat[idx] = orig
                if pat_plus != pat_minus:
                    continue
                fd = (plus - minus) / (2 * step)
                got = g.reshape(-1)[int(idx)]
                denom = max(abs(fd), abs(got), 1e-10)
                assert abs(fd - got) / denom < 1e-3, (p.shape, idx, fd, got)
                checked += 1
        assert checked >= 20


class TestPredictLabels:
    def test_empty_input_gives_empty_output(self):
        m = pm.build_model(1, seed=0, height=94, width=94)
        out = tr.predict_labels(m, np.zeros((0, 94, 94, 1), dtype=np.float32))
        assert out.shape == (0,)
