"""Visual-word clustering and histogram encoding."""

import numpy as np
import pytest

from parasnet.baseline import bow
from parasnet.baseline.bow import bow_histogram, build_vocabulary, kmeans


def three_clumps(rng, per=40, dim=5, spread=0.05):
    anchors = np.array([[0.0] * dim, [1.0] * dim, [-1.0] + [0.5] * (dim - 1)])
    pts = np.concatenate(
        [a + spread * rng.standard_normal((per, dim)) for a in anchors]
    )
    truth = np.repeat(np.arange(3), per)
    return pts, truth, anchors


class TestKmeans:
    def test_objective_history_never_increases(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            pts = rng.random((120, 4))
            _, _, hist = kmeans(pts, 6, seed=seed)
            for a, b in zip(hist, hist[1:]):
                assert b <= a + 1e-9

    def test_recovers_well_separated_clumps(self):
        rng = np.random.default_rng(1)
        pts, truth, anchors = three_clumps(rng)
        centers, labels, _ = kmeans(pts, 3, seed=0)
        # each anchor should have exactly one center nearby
        matched = set()
        for a in anchors:
            d = np.linalg.norm(centers - a, axis=1)
            j = int(np.argmin(d))
            assert d[j] < 0.15
            matched.add(j)
        assert len(matched) == 3
        # labels must be a relabeling of ground truth
        for c in range(3):
            assert len(set(labels[truth == c])) == 1

    def test_same_seed_same_result(self):
        rng = np.random.default_rng(2)
        pts = rng.random((200, 8))
        a = kmeans(pts, 10, seed=7)
        b = kmeans(pts, 10, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_k_equal_n_reaches_zero_objective(self):
        rng = np.random.default_rng(3)
        pts = rng.random((9, 3))
        centers, labels, hist = kmeans(pts, 9, seed=0)
        assert hist[-1] < 1e-20
        assert sorted(labels.tolist()) == list(range(9))

    def test_duplicate_points_leave_no_empty_cluster_unfilled(self):
        pts = np.array([[0.0, 0.0]] * 30 + [[5.0, 5.0]] * 3)
        centers, labels, _ = kmeans(pts, 2, seed=0)
        assert set(labels.tolist()) == {0, 1}

    def test_rejects_bad_k_and_rank(self):
        pts = np.random.default_rng(4).random((10, 2))
        with pytest.raises(ValueError, match="k must be"):
            kmeans(pts, 0, seed=0)
        with pytest.raises(ValueError, match="k must be"):
            kmeans(pts, 11, seed=0)
        with pytest.raises(ValueError, match="2-d"):
            kmeans(pts.ravel(), 2, seed=0)


class TestVocabulary:
    def test_build_vocabulary_shape(self):
        rng = np.random.default_rng(5)
        desc = rng.random((300, 128))
        vocab = build_vocabulary(desc, k=16, seed=0)
        assert vocab.shape == (16, 128)

    def test_subsampling_is_seed_stable(self, monkeypatch):
        monkeypatch.setattr(bow, "VOCAB_SAMPLES", 200)
        rng = np.random.default_rng(6)
        desc = rng.random((500, 16))
        a = build_vocabulary(desc, k=8, seed=3)
        b = build_vocabulary(desc, k=8, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_too_few_descriptors_is_an_error(self):
        with pytest.raises(ValueError, match="at least"):
            build_vocabulary(np.zeros((5, 128)), k=16)


class TestHistogram:
    def test_histogram_sums_to_one(self):
        rng = np.random.default_rng(7)
        centers = rng.random((12, 6))
        desc = rng.random((40, 6))
        h = bow_histogram(desc, centers)
        assert h.shape == (12,)
        assert abs(h.sum() - 1.0) < 1e-12
        assert (h >= 0).all()

    def test_empty_descriptor_set_gives_zeros(self):
        centers = np.random.default_rng(8).random((5, 4))
        h = bow_histogram(np.zeros((0, 4)), centers)
        np.testing.assert_array_equal(h, np.zeros(5))

    def test_counts_match_nearest_center_assignment(self):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        desc = np.array([[0.1, 0.0], [0.0, 0.2], [9.8, 10.1]])
        h = bow_histogram(desc, centers)
        np.testing.assert_allclose(h, [2 / 3, 1 / 3])
