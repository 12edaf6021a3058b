"""Exact t-SNE with the quadratic pairwise formulation.

No tree approximations: P and Q are full N x N matrices, which caps
the practical input size but keeps the gradient simple enough to
verify numerically. The per-point bandwidths come from a binary search
matching each conditional distribution's entropy to log(perplexity).

The optimisation schedule is fixed. The exaggeration factor, the
momentum switch from 0.5 to 0.8 at iteration 250 and the per-coordinate
gains (Jacobs 1988) follow van der Maaten & Hinton 2008, "Visualizing
Data using t-SNE"; the step size of 200 and the 100 exaggerated
iterations are this implementation's own fixed choices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_POINTS = 5000
P_FLOOR = 1e-12
# the bandwidth search stops once the entropy is this close to the target
ENTROPY_TOL = 1e-4
BANDWIDTH_STEPS = 64
LEARNING_RATE = 200.0
EARLY_EXAGGERATION = 4.0
EXAGGERATION_ITERS = 100
MOMENTUM_SWITCH_ITER = 250
INITIAL_MOMENTUM = 0.5
FINAL_MOMENTUM = 0.8


@dataclass
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    seed: int = 0


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x * x, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def _row_probs(dists_row: np.ndarray, beta: float, self_idx: int) -> np.ndarray:
    """Softmax of -beta * distance with the diagonal forced to zero."""
    logits = -beta * dists_row
    logits[self_idx] = -np.inf
    logits -= logits.max()
    p = np.exp(logits)
    p[self_idx] = 0.0
    return p / p.sum()


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def conditional_probs(dists: np.ndarray, perplexity: float) -> np.ndarray:
    """Per-row bandwidth search. Row i holds p(j | i), diagonal zero."""
    n = dists.shape[0]
    target = np.log(perplexity)
    cond = np.zeros_like(dists)
    for i in range(n):
        beta, beta_lo, beta_hi = 1.0, 0.0, np.inf
        row = dists[i].copy()
        for _ in range(BANDWIDTH_STEPS):
            p = _row_probs(row, beta, i)
            gap = _entropy(p) - target
            if abs(gap) < ENTROPY_TOL:
                break
            if gap > 0:
                # entropy too high: sharpen by raising beta
                beta_lo = beta
                beta = beta * 2.0 if np.isinf(beta_hi) else 0.5 * (beta + beta_hi)
            else:
                beta_hi = beta
                beta = 0.5 * (beta + beta_lo)
        cond[i] = p
    return cond


def joint_probabilities(features: np.ndarray, perplexity: float) -> np.ndarray:
    cond = conditional_probs(pairwise_sq_dists(features), perplexity)
    p = (cond + cond.T) / (2.0 * features.shape[0])
    np.maximum(p, P_FLOOR, out=p)
    np.fill_diagonal(p, 0.0)
    return p


def _q_matrix(embedding: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Student-t affinities: (normalized Q, unnormalized numerator)."""
    num = 1.0 / (1.0 + pairwise_sq_dists(embedding))
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    np.maximum(q, P_FLOOR, out=q)
    np.fill_diagonal(q, 0.0)
    return q, num


def kl_divergence(p: np.ndarray, embedding: np.ndarray) -> float:
    q, _ = _q_matrix(embedding)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def kl_gradient(p: np.ndarray, embedding: np.ndarray) -> np.ndarray:
    q, num = _q_matrix(embedding)
    weights = (p - q) * num
    # dC/dy_i = 4 sum_j w_ij (y_i - y_j)
    return 4.0 * (
        embedding * weights.sum(axis=1)[:, None] - weights @ embedding
    )


def _validate(features: np.ndarray, config: TsneConfig) -> None:
    if features.ndim != 2:
        raise ValueError(f"features must be 2-d, got shape {features.shape}")
    if not np.isfinite(features).all():
        raise ValueError("features contain NaN or infinity")
    n = features.shape[0]
    if n > MAX_POINTS:
        raise ValueError(
            f"{n} points exceeds the exact-method limit of {MAX_POINTS}"
        )
    if not np.isfinite(config.perplexity):
        raise ValueError(f"perplexity must be finite, got {config.perplexity}")
    if config.perplexity < 2.0:
        raise ValueError(f"perplexity {config.perplexity} too small")
    if n < 3 * config.perplexity:
        raise ValueError(
            # :g, not int(), since 3 * perplexity overflows to inf
            # for a finite perplexity above about 6e307
            f"need at least {np.ceil(3 * config.perplexity):g} points for "
            f"perplexity {config.perplexity}, got {n}"
        )
    if config.iterations < 1:
        raise ValueError("iterations must be positive")


def tsne(features: np.ndarray, config: TsneConfig | None = None) -> np.ndarray:
    """Embed rows of `features` into the plane. Deterministic per seed."""
    config = config or TsneConfig()
    features = np.asarray(features, dtype=np.float64)
    _validate(features, config)
    n = features.shape[0]
    p = joint_probabilities(features, config.perplexity)

    rng = np.random.default_rng(config.seed)
    y = rng.normal(0.0, 1e-2, size=(n, 2))
    update = np.zeros_like(y)
    gains = np.ones_like(y)

    for it in range(config.iterations):
        exaggerate = it < EXAGGERATION_ITERS
        grad = kl_gradient(p * EARLY_EXAGGERATION if exaggerate else p, y)
        momentum = INITIAL_MOMENTUM if it < MOMENTUM_SWITCH_ITER else FINAL_MOMENTUM
        same_sign = np.sign(grad) == np.sign(update)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.maximum(gains, 0.01, out=gains)
        update = momentum * update - LEARNING_RATE * gains * grad
        y = y + update
        y = y - y.mean(axis=0)
    return y
