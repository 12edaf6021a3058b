"""SVM, calibration, fallback, and model file handling for the baseline."""

import numpy as np
import pytest

from parasnet import CRYPTO, GIARDIA, NUM_CLASSES, OTHERS
from parasnet.baseline import classify
from parasnet.baseline.classify import (
    BaselineFileError,
    BaselineMagicError,
    BaselineModel,
    BaselineTrainConfig,
    BaselineTruncatedError,
    BaselineVersionError,
    SiftBowClassifier,
    fit_gaussian_nb,
    fit_platt,
    load_baseline,
    nb_log_posterior,
    platt_prob,
    predict_proba_hist,
    save_baseline,
    train_baseline,
    train_linear_svm,
)
from parasnet.baseline.sift import DESCRIPTOR_SIZE


def separable_toy(rng, n=60, margin=1.0):
    half = n // 2
    pos = rng.normal((2.0, 2.0), 0.4, (half, 2))
    neg = rng.normal((-2.0, -2.0), 0.4, (half, 2))
    pts = np.concatenate([pos, neg])
    feats = np.concatenate([pts, np.ones((n, 1))], axis=1)
    targets = np.concatenate([np.ones(half), -np.ones(half)])
    return feats, targets


class TestSvm:
    def test_learns_a_separable_problem(self):
        rng = np.random.default_rng(0)
        feats, targets = separable_toy(rng)
        w = train_linear_svm(feats, targets, lam=1e-3, epochs=40, rng=rng)
        assert np.all(np.sign(feats @ w) == targets)

    def test_weight_vector_shape_and_determinism(self):
        feats, targets = separable_toy(np.random.default_rng(1))
        w1 = train_linear_svm(feats, targets, 1e-3, 10, np.random.default_rng(5))
        w2 = train_linear_svm(feats, targets, 1e-3, 10, np.random.default_rng(5))
        assert w1.shape == (3,)
        np.testing.assert_array_equal(w1, w2)


class TestPlatt:
    def test_objective_history_never_increases(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            scores = rng.normal(0, 2, 80)
            positive = scores + rng.normal(0, 1, 80) > 0
            _, _, history = fit_platt(scores, positive)
            for u, v in zip(history, history[1:]):
                assert v <= u + 1e-9

    def test_probability_tracks_the_score(self):
        rng = np.random.default_rng(3)
        scores = np.concatenate([rng.normal(2, 0.5, 50), rng.normal(-2, 0.5, 50)])
        positive = np.arange(100) < 50
        a, b, _ = fit_platt(scores, positive)
        grid = platt_prob(np.linspace(-4, 4, 9), a, b)
        assert np.all(np.diff(grid) > 0)
        assert platt_prob(3.0, a, b) > 0.8
        assert platt_prob(-3.0, a, b) < 0.2

    def test_extreme_scores_do_not_overflow(self):
        with np.errstate(over="raise"):
            lo = float(platt_prob(-1e4, -1.0, 0.0))
            hi = float(platt_prob(1e4, -1.0, 0.0))
        assert 0.0 <= lo <= 1e-10
        assert 1.0 - 1e-10 <= hi <= 1.0


class TestNaiveBayes:
    def test_fit_recovers_moments(self):
        rng = np.random.default_rng(4)
        feats = np.concatenate([
            rng.normal(0.0, 1.0, (30, 4)),
            rng.normal(3.0, 0.5, (60, 4)),
            rng.normal(-2.0, 2.0, (30, 4)),
        ])
        labels = np.repeat([0, 1, 2], [30, 60, 30])
        means, variances, log_priors = fit_gaussian_nb(feats, labels)
        np.testing.assert_allclose(means[1], feats[30:90].mean(axis=0))
        assert np.all(variances > 0)
        np.testing.assert_allclose(np.exp(log_priors), [0.25, 0.5, 0.25])

    def test_missing_class_is_an_error(self):
        feats = np.zeros((10, 3))
        labels = np.zeros(10, dtype=int)
        with pytest.raises(ValueError, match="class 1 has no training"):
            fit_gaussian_nb(feats, labels)

    def test_posterior_is_normalized_and_prefers_own_class(self):
        rng = np.random.default_rng(5)
        feats = np.concatenate([
            rng.normal(0.0, 0.3, (40, 5)),
            rng.normal(2.0, 0.3, (40, 5)),
            rng.normal(-2.0, 0.3, (40, 5)),
        ])
        labels = np.repeat([0, 1, 2], 40)
        means, variances, log_priors = fit_gaussian_nb(feats, labels)
        logp = nb_log_posterior(means, variances, log_priors, np.full(5, 2.0))
        assert abs(np.exp(logp).sum() - 1.0) < 1e-9
        assert int(np.argmax(logp)) == 1


def toy_model(k=4, rng=None):
    rng = rng or np.random.default_rng(6)
    return BaselineModel(
        vocabulary=rng.random((k, DESCRIPTOR_SIZE)),
        svm_weights=rng.normal(0, 1, (NUM_CLASSES, k + 1)),
        platt=np.tile([-2.0, 0.0], (NUM_CLASSES, 1)),
        nb_means=rng.random((NUM_CLASSES, k)),
        nb_vars=np.full((NUM_CLASSES, k), 0.1),
        nb_log_priors=np.log(np.full(NUM_CLASSES, 1.0 / NUM_CLASSES)),
    )


class TestPrediction:
    def test_probabilities_sum_to_one(self):
        model = toy_model()
        rng = np.random.default_rng(7)
        for _ in range(10):
            hist = rng.dirichlet(np.ones(model.vocab_size))
            probs = predict_proba_hist(model, hist)
            assert probs.shape == (NUM_CLASSES,)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(probs >= 0)

    def test_confident_margin_skips_the_fallback(self):
        model = toy_model()
        # rig the svm so class 1 wins by a mile on any histogram
        model.svm_weights[:] = 0.0
        model.svm_weights[1, -1] = 5.0
        model.svm_weights[0, -1] = -5.0
        model.svm_weights[2, -1] = -5.0
        hist = np.full(model.vocab_size, 1.0 / model.vocab_size)
        probs = predict_proba_hist(model, hist, gap_threshold=0.2)
        scores = classify.svm_scores(model, hist)
        raw = platt_prob(scores, -2.0, 0.0)
        np.testing.assert_allclose(probs, raw / raw.sum())

    def test_tight_margin_blends_in_naive_bayes(self):
        model = toy_model()
        model.svm_weights[:] = 0.0
        # identical margins everywhere: the svm alone would be uniform
        model.nb_means[:] = 0.1
        model.nb_means[2, 0] = 0.9
        hist = np.zeros(model.vocab_size)
        hist[0] = 0.9
        hist[1] = 0.1
        probs = predict_proba_hist(model, hist, gap_threshold=0.2)
        assert int(np.argmax(probs)) == 2

    def test_no_keypoints_defaults_to_the_catchall_class(self):
        clf = SiftBowClassifier(toy_model())
        flat = np.full((64, 64), 0.5)
        probs = clf.predict_proba_one(flat)
        assert probs[OTHERS] == 1.0
        assert probs.sum() == 1.0
        assert clf.predict_one(flat) == OTHERS

    def test_predict_batch_shape(self):
        clf = SiftBowClassifier(toy_model())
        rng = np.random.default_rng(8)
        images = rng.random((3, 48, 48))
        preds = clf.predict_batch(images)
        assert preds.shape == (3,)
        assert preds.dtype == np.int64
        assert np.all((preds >= 0) & (preds < NUM_CLASSES))


class TestModelFile:
    def test_round_trip_preserves_everything(self, tmp_path):
        model = toy_model(k=6)
        model.meta = {"trained_on": "toy", "vocab": "6"}
        path = str(tmp_path / "model.pbas")
        save_baseline(model, path)
        loaded = load_baseline(path)
        for name in ("vocabulary", "svm_weights", "platt", "nb_means", "nb_vars", "nb_log_priors"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
        assert loaded.meta == model.meta

    def test_bad_magic_is_rejected(self, tmp_path):
        path = str(tmp_path / "model.pbas")
        save_baseline(toy_model(), path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"XXXX"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(BaselineMagicError, match="bad magic"):
            load_baseline(path)

    def test_future_version_is_rejected(self, tmp_path):
        path = str(tmp_path / "model.pbas")
        save_baseline(toy_model(), path)
        blob = bytearray(open(path, "rb").read())
        blob[4] = 99
        open(path, "wb").write(bytes(blob))
        with pytest.raises(BaselineVersionError, match="version 99"):
            load_baseline(path)

    def test_truncation_names_the_missing_piece(self, tmp_path):
        path = str(tmp_path / "model.pbas")
        save_baseline(toy_model(k=5), path)
        blob = open(path, "rb").read()
        for cut, expect in [(2, "magic"), (8, "header"), (len(blob) // 2, None), (len(blob) - 1, None)]:
            open(path, "wb").write(blob[:cut])
            with pytest.raises(BaselineTruncatedError, match="bytes missing") as err:
                load_baseline(path)
            if expect is not None:
                assert expect in str(err.value)

    def test_trailing_garbage_is_rejected(self, tmp_path):
        path = str(tmp_path / "model.pbas")
        save_baseline(toy_model(), path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x01\x02")
        with pytest.raises(BaselineFileError, match="trailing bytes"):
            load_baseline(path)

    def test_non_utf8_metadata_is_rejected(self, tmp_path):
        import struct

        path = str(tmp_path / "model.pbas")
        save_baseline(toy_model(), path)  # empty metadata: the file ends in its length
        blob = open(path, "rb").read()
        assert blob[-4:] == struct.pack("<I", 0)
        open(path, "wb").write(blob[:-4] + struct.pack("<I", 2) + b"\xff\xfe")
        with pytest.raises(BaselineFileError, match="not UTF-8"):
            load_baseline(path)

    def test_non_finite_arrays_are_rejected(self, tmp_path):
        path = str(tmp_path / "model.pbas")
        for value in (np.nan, np.inf, -np.inf):
            for name in ("vocabulary", "nb_log_priors"):
                model = toy_model()
                getattr(model, name).flat[0] = value
                save_baseline(model, path)
                with pytest.raises(BaselineFileError, match=f"{name} holds non-finite"):
                    load_baseline(path)

    def test_absurd_vocab_size_is_rejected(self, tmp_path):
        import struct

        path = str(tmp_path / "model.pbas")
        with open(path, "wb") as fh:
            fh.write(classify.MODEL_MAGIC)
            fh.write(struct.pack("<II", classify.MODEL_VERSION, 0))
        with pytest.raises(BaselineFileError, match="implausible vocabulary size"):
            load_baseline(path)


def blobby_image(rng, n_blobs, h=96, w=96):
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    img = np.full((h, w), 0.4)
    for _ in range(n_blobs):
        cy, cx = rng.uniform(15, h - 15), rng.uniform(15, w - 15)
        s = rng.uniform(2.5, 5.0)
        img += rng.uniform(0.3, 0.6) * np.exp(
            -(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
        )
    return img + rng.normal(0, 0.01, (h, w))


class TestTrainBaseline:
    def test_end_to_end_on_tiny_images(self):
        rng = np.random.default_rng(9)
        # class identity is carried by blob count, crude but detectable
        images, labels = [], []
        for c, blobs in [(OTHERS, 2), (CRYPTO, 6), (GIARDIA, 12)]:
            for _ in range(6):
                images.append(blobby_image(rng, blobs))
                labels.append(c)
        images = np.stack(images)
        labels = np.array(labels)
        cfg = BaselineTrainConfig(vocab_size=16, svm_epochs=20, seed=0)
        clf = train_baseline(images, labels, cfg)
        assert clf.model.vocab_size <= 16
        preds = clf.predict_batch(images)
        assert preds.shape == (18,)
        # a fit this small will not be perfect, only clearly above chance
        assert float(np.mean(preds == labels)) > 0.5

    def test_same_seed_reproduces_the_model(self):
        rng = np.random.default_rng(10)
        images = np.stack([blobby_image(rng, 4) for _ in range(9)])
        labels = np.array([0, 1, 2] * 3)
        cfg = BaselineTrainConfig(vocab_size=8, svm_epochs=10, seed=3)
        a = train_baseline(images, labels, cfg)
        b = train_baseline(images, labels, cfg)
        np.testing.assert_array_equal(a.model.vocabulary, b.model.vocabulary)
        np.testing.assert_array_equal(a.model.svm_weights, b.model.svm_weights)
        np.testing.assert_array_equal(a.model.platt, b.model.platt)

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="disagree in length"):
            train_baseline(np.zeros((3, 8, 8)), np.zeros(2, dtype=int))

    def test_featureless_training_set_is_an_error(self):
        images = np.full((4, 32, 32), 0.5)
        labels = np.array([0, 1, 2, 0])
        with pytest.raises(ValueError, match="no keypoints found anywhere"):
            train_baseline(images, labels)

    def test_single_class_input_is_an_error(self):
        images = np.zeros((4, 32, 32))
        labels = np.ones(4, dtype=int)
        with pytest.raises(ValueError, match="at least 2 classes"):
            train_baseline(images, labels)
