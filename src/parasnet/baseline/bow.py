"""Visual vocabulary: seeded k-means++ plus hard-assignment histograms."""

from __future__ import annotations

import numpy as np

# Lloyd iterations stop after KMEANS_STEPS, or once an assignment step
# lowers the objective by no more than KMEANS_TOL of its previous value
KMEANS_STEPS = 100
KMEANS_TOL = 1e-6
# build_vocabulary clusters a seeded random subset of at most this many
# descriptors
VOCAB_SAMPLES = 20000


def _closest_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d = (
        np.sum(points * points, axis=1)[:, None]
        + np.sum(centers * centers, axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    return np.maximum(d, 0.0)


def kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-squared weighted seeding."""
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    best = _closest_sq_dists(points, centers[:1]).ravel()
    for i in range(1, k):
        total = best.sum()
        if total <= 0:
            # all mass collapsed; fall back to uniform choice
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=best / total))
        centers[i] = points[idx]
        best = np.minimum(best, _closest_sq_dists(points, centers[i : i + 1]).ravel())
    return centers


def kmeans(
    points: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd iterations after k-means++ seeding.

    Returns (centers, labels, objective history). The history holds the
    summed squared distance after each assignment step and never
    increases. Empty clusters are reseeded to the farthest point.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-d, got shape {points.shape}")
    n = len(points)
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centers = kmeans_pp_init(points, k, rng)
    history: list[float] = []
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_STEPS):
        dists = _closest_sq_dists(points, centers)
        labels = np.argmin(dists, axis=1)
        objective = float(dists[np.arange(n), labels].sum())
        history.append(objective)
        new_centers = centers.copy()
        empties = []
        for c in range(k):
            members = labels == c
            if members.any():
                new_centers[c] = points[members].mean(axis=0)
            else:
                empties.append(c)
        if empties:
            # hand each empty cluster its own far-out point
            farthest = np.argsort(-dists[np.arange(n), labels])
            for rank, c in enumerate(empties):
                new_centers[c] = points[farthest[rank % n]]
        if history[-1] == 0.0:
            centers = new_centers
            break
        if len(history) >= 2 and history[-2] - history[-1] <= KMEANS_TOL * history[-2]:
            centers = new_centers
            break
        centers = new_centers
    dists = _closest_sq_dists(points, centers)
    labels = np.argmin(dists, axis=1)
    return centers, labels, history


def build_vocabulary(descriptors: np.ndarray, k: int = 64, seed: int = 0) -> np.ndarray:
    """Cluster a descriptor stack into k visual words."""
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.ndim != 2 or len(descriptors) < k:
        raise ValueError(
            f"need at least {k} descriptors in a 2-d stack, "
            f"got shape {descriptors.shape}"
        )
    if len(descriptors) > VOCAB_SAMPLES:
        rng = np.random.default_rng(seed)
        pick = rng.choice(len(descriptors), size=VOCAB_SAMPLES, replace=False)
        descriptors = descriptors[np.sort(pick)]
    centers, _, _ = kmeans(descriptors, k, seed=seed)
    return centers


def bow_histogram(descriptors: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """L1-normalized word-count histogram; empty input gives all zeros."""
    k = len(centers)
    if len(descriptors) == 0:
        return np.zeros(k)
    labels = np.argmin(_closest_sq_dists(np.asarray(descriptors, np.float64), centers), axis=1)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    return counts / counts.sum()
