"""Confusion matrices, sweep bookkeeping, latency stats, silhouette."""

import time

import numpy as np
import pytest

from parasnet import evaluation as ev
from parasnet import model as pm
from parasnet import training as tr


class TestConfusionMatrix:
    def test_orientation_rows_actual_columns_predicted(self):
        cm = ev.ConfusionMatrix.from_predictions(
            actual=np.array([1, 1, 2]), predicted=np.array([2, 1, 0])
        )
        assert cm.counts[1, 2] == 1
        assert cm.counts[1, 1] == 1
        assert cm.counts[2, 0] == 1
        assert cm.counts.sum() == 3

    def test_accuracy_and_per_class(self):
        cm = ev.ConfusionMatrix(np.array([[8, 2, 0], [1, 9, 0], [0, 0, 10]]))
        assert abs(cm.accuracy() - 27 / 30) < 1e-12
        np.testing.assert_allclose(cm.per_class_accuracy(), [0.8, 0.9, 1.0])

    def test_reference_split_with_weak_crypto(self):
        # the shape of a feature-based classifier's failure: crypto
        # leaking into others, giardia nearly clean
        cm = ev.ConfusionMatrix(np.array([[1000, 0, 0], [155, 845, 0], [5, 0, 995]]))
        per_class = cm.per_class_accuracy()
        assert per_class[0] == 1.0
        assert per_class[1] == 0.845
        assert per_class[2] == 0.995
        assert cm.accuracy() == 2840 / 3000

    def test_reference_split_with_strong_crypto(self):
        cm = ev.ConfusionMatrix(np.array([[1000, 0, 0], [44, 956, 0], [5, 0, 995]]))
        per_class = cm.per_class_accuracy()
        assert per_class[0] == 1.0
        assert per_class[1] == 0.956
        assert per_class[2] == 0.995
        assert cm.accuracy() == 2951 / 3000

    def test_empty_class_row_is_nan(self):
        cm = ev.ConfusionMatrix(np.array([[5, 0, 0], [0, 5, 0], [0, 0, 0]]))
        per_class = cm.per_class_accuracy()
        assert np.isnan(per_class[2])
        assert per_class[0] == 1.0

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            ev.ConfusionMatrix(np.zeros((2, 2)))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ev.ConfusionMatrix(np.array([[1, 0, 0], [0, -1, 0], [0, 0, 1]]))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            ev.ConfusionMatrix.from_predictions(np.array([0, 3]), np.array([0, 0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ev.ConfusionMatrix.from_predictions(np.array([0]), np.array([0, 1]))

    def test_empty_matrix_has_no_accuracy(self):
        cm = ev.ConfusionMatrix(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            cm.accuracy()

    def test_str_mentions_all_classes(self):
        cm = ev.ConfusionMatrix(np.arange(9).reshape(3, 3))
        text = str(cm)
        for name in ("others", "crypto", "giardia"):
            assert name in text
        assert "8" in text


class TestCnnClassifier:
    def test_predict_one_agrees_with_batch(self):
        model = pm.build_model(2, seed=18, height=94, width=94)
        rng = np.random.default_rng(18)
        images = rng.random((4, 94, 94, 1), dtype=np.float32)
        clf = ev.CnnClassifier(model)
        batch = clf.predict_batch(images)
        singles = [clf.predict_one(img) for img in images]
        np.testing.assert_array_equal(batch, singles)

    def test_evaluate_produces_full_confusion(self):
        model = pm.build_model(1, seed=19, height=94, width=94)
        rng = np.random.default_rng(19)
        images = rng.random((9, 94, 94, 1), dtype=np.float32)
        labels = np.array([0, 1, 2] * 3)
        cm = ev.evaluate(ev.CnnClassifier(model), images, labels)
        assert cm.counts.sum() == 9
        assert cm.counts.sum(axis=1).tolist() == [3, 3, 3]


class TestSweep:
    def test_rows_and_lookup(self):
        result = ev.SweepResult(
            rows=[
                ev.SweepRow(2, 3177, 0.8, 0.75),
                ev.SweepRow(8, 43891, 0.97, 0.96),
            ]
        )
        assert result.accuracy_for(8) == 0.97
        with pytest.raises(KeyError, match="16"):
            result.accuracy_for(16)

    def test_csv_format(self, tmp_path):
        result = ev.SweepResult(rows=[ev.SweepRow(4, 21627, 0.9231, 0.9)])
        path = tmp_path / "sweep.csv"
        result.to_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "filters,params,best_accuracy,final_accuracy"
        assert lines[1] == "4,21627,0.9231,0.9000"

    def test_sweep_trains_each_width(self):
        rng = np.random.default_rng(20)
        images = rng.random((12, 94, 94, 1), dtype=np.float32)
        labels = np.array([0, 1] * 6)
        config = tr.TrainConfig(epochs=2, batch_size=4, seed=0, augment=None)
        result = ev.filter_sweep(
            [1, 2], images, labels, images, labels, config, init_seed=5
        )
        assert [r.filters for r in result.rows] == [1, 2]
        assert result.rows[1].params > result.rows[0].params
        for row in result.rows:
            assert 0.0 <= row.best_accuracy <= 1.0
            assert row.best_accuracy >= row.final_accuracy - 1e-12


class TestBenchmark:
    def test_percentiles_ordered_and_fps_inverts_mean(self):
        def predict(_):
            time.sleep(0.002)
            return 0

        images = np.zeros((3, 8, 8, 1), dtype=np.float32)
        report = ev.benchmark(predict, images, warmup=1, iters=12)
        assert report.p50_ms <= report.p90_ms <= report.p99_ms
        mean_s = float(np.mean(report.latencies_s))
        assert abs(report.fps * mean_s - 1.0) < 1e-9
        assert report.p50_ms >= 1.5

    def test_validation(self):
        images = np.zeros((1, 4, 4, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="warmup"):
            ev.benchmark(lambda i: 0, images, warmup=0, iters=10)
        with pytest.raises(ValueError, match="10"):
            ev.benchmark(lambda i: 0, images, warmup=1, iters=5)
        with pytest.raises(ValueError, match="no images"):
            ev.benchmark(lambda i: 0, np.zeros((0, 4, 4, 1)), warmup=1, iters=10)


def _silhouette_reference(points, labels):
    """Textbook nested-loop silhouette, kept dumb on purpose."""
    n = len(points)
    scores = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = np.mean([np.linalg.norm(points[i] - points[j]) for j in same])
        bs = []
        for other in set(labels.tolist()) - {labels[i]}:
            members = [j for j in range(n) if labels[j] == other]
            bs.append(np.mean([np.linalg.norm(points[i] - points[j]) for j in members]))
        b = min(bs)
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


class TestSilhouette:
    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(21)
        points = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        got = ev.silhouette_score(points, labels)
        want = _silhouette_reference(points, labels)
        assert abs(got - want) < 1e-12

    def test_tight_far_clusters_score_high(self):
        rng = np.random.default_rng(22)
        a = rng.normal(0.0, 0.1, size=(20, 2))
        b = rng.normal(0.0, 0.1, size=(20, 2)) + 10.0
        points = np.concatenate([a, b])
        labels = np.array([0] * 20 + [1] * 20)
        assert ev.silhouette_score(points, labels) > 0.9

    def test_random_labels_score_near_zero(self):
        rng = np.random.default_rng(23)
        points = rng.normal(size=(40, 3))
        labels = rng.integers(0, 2, size=40)
        assert abs(ev.silhouette_score(points, labels)) < 0.3

    def test_singleton_cluster_contributes_zero(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        labels = np.array([0, 0, 1])
        score = ev.silhouette_score(points, labels)
        assert np.isfinite(score)

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError, match="two clusters"):
            ev.silhouette_score(np.zeros((5, 2)), np.zeros(5))
