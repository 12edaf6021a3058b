"""Probability construction, gradient correctness, and embedding quality."""

import numpy as np
import pytest

from parasnet import tsne
from parasnet.evaluation import silhouette_score

from fd import central_diff_grad, rel_error


def _gaussian_clusters(rng, n_per, dims, centers):
    points = []
    labels = []
    for i, c in enumerate(centers):
        points.append(rng.normal(0.0, 1.0, size=(n_per, dims)) + np.asarray(c))
        labels.append(np.full(n_per, i))
    return np.concatenate(points), np.concatenate(labels)


class TestProbabilities:
    def test_joint_matrix_is_a_distribution(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 5))
        p = tsne.joint_probabilities(x, perplexity=10.0)
        assert p.shape == (40, 40)
        np.testing.assert_allclose(p, p.T)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.diag(p).max() == 0.0
        off_diag = p[~np.eye(40, dtype=bool)]
        assert off_diag.min() >= tsne.P_FLOOR

    def test_conditional_rows_hit_the_entropy_target(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(60, 8))
        perplexity = 12.0
        cond = tsne.conditional_probs(tsne.pairwise_sq_dists(x), perplexity)
        for i in range(60):
            row = cond[i][cond[i] > 0]
            entropy = -np.sum(row * np.log(row))
            assert abs(np.exp(entropy) - perplexity) < perplexity * 1e-3
        np.testing.assert_allclose(cond.sum(axis=1), np.ones(60), rtol=1e-9)

    def test_pairwise_distances_match_direct_computation(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(15, 3))
        d = tsne.pairwise_sq_dists(x)
        for i in range(15):
            for j in range(15):
                want = np.sum((x[i] - x[j]) ** 2)
                assert abs(d[i, j] - want) < 1e-10


class TestGradient:
    def test_kl_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10, 4))
        p = tsne.joint_probabilities(x, perplexity=3.0)
        y = rng.normal(size=(10, 2))
        grad = tsne.kl_gradient(p, y)

        def f():
            return tsne.kl_divergence(p, y)

        fd = central_diff_grad(f, y)
        assert rel_error(grad, fd) < 1e-6

    def test_kl_is_nonnegative_and_zero_free_embedding_is_worse(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 3))
        p = tsne.joint_probabilities(x, perplexity=5.0)
        y = rng.normal(size=(20, 2))
        assert tsne.kl_divergence(p, y) >= 0.0


class TestOptimization:
    def test_more_iterations_reduce_kl(self):
        rng = np.random.default_rng(5)
        x, _ = _gaussian_clusters(rng, 15, 6, [(0,) * 6, (8,) * 6, (-8, 8, 0, 0, 0, 0)])
        p = tsne.joint_probabilities(x, perplexity=8.0)
        short = tsne.tsne(x, tsne.TsneConfig(perplexity=8.0, iterations=60, seed=2))
        long = tsne.tsne(x, tsne.TsneConfig(perplexity=8.0, iterations=400, seed=2))
        assert tsne.kl_divergence(p, long) < tsne.kl_divergence(p, short)

    def test_same_seed_same_embedding(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 4))
        cfg = tsne.TsneConfig(perplexity=6.0, iterations=50, seed=9)
        a = tsne.tsne(x, cfg)
        b = tsne.tsne(x, cfg)
        assert a.tobytes() == b.tobytes()
        c = tsne.tsne(x, tsne.TsneConfig(perplexity=6.0, iterations=50, seed=10))
        assert not np.array_equal(a, c)

    def test_embedding_is_centred_and_finite(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(25, 3))
        y = tsne.tsne(x, tsne.TsneConfig(perplexity=5.0, iterations=80, seed=0))
        assert y.shape == (25, 2)
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y.mean(axis=0), np.zeros(2), atol=1e-9)

    def test_three_well_separated_gaussians_stay_separated(self):
        rng = np.random.default_rng(8)
        centers = [(0,) * 10, (20,) * 10, tuple([-20] * 5 + [20] * 5)]
        x, labels = _gaussian_clusters(rng, 30, 10, centers)
        y = tsne.tsne(x, tsne.TsneConfig(perplexity=10.0, iterations=300, seed=1))
        assert silhouette_score(y, labels) >= 0.5


class TestValidation:
    def test_too_few_points_for_perplexity(self):
        with pytest.raises(ValueError, match="at least"):
            tsne.tsne(np.zeros((20, 3)), tsne.TsneConfig(perplexity=30.0))

    def test_too_many_points(self):
        x = np.zeros((tsne.MAX_POINTS + 1, 2))
        with pytest.raises(ValueError, match="exceeds"):
            tsne.tsne(x)

    def test_non_finite_features(self):
        x = np.zeros((100, 3))
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            tsne.tsne(x, tsne.TsneConfig(perplexity=10.0))

    def test_wrong_rank(self):
        with pytest.raises(ValueError, match="2-d"):
            tsne.tsne(np.zeros(10), tsne.TsneConfig(perplexity=2.0))

    @pytest.mark.parametrize("perplexity", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_perplexity_rejected(self, perplexity):
        x = np.random.default_rng(0).normal(size=(30, 2))
        with pytest.raises(ValueError, match="perplexity must be finite"):
            tsne.tsne(x, tsne.TsneConfig(perplexity=perplexity, iterations=5))

    def test_huge_finite_perplexity_is_a_value_error(self):
        # 3 * perplexity overflows to inf; the error must still be a ValueError
        with pytest.raises(ValueError, match="at least inf points"):
            tsne.tsne(np.zeros((30, 2)), tsne.TsneConfig(perplexity=1e308))

    def test_tiny_perplexity_rejected(self):
        with pytest.raises(ValueError, match="perplexity"):
            tsne.tsne(np.zeros((30, 2)), tsne.TsneConfig(perplexity=1.0))
