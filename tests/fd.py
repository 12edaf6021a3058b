"""Finite-difference oracle used by the gradient tests.

Kept deliberately independent of the library's backward passes: it only
ever calls forward functions.
"""

import numpy as np


def central_diff_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f with respect to array x.

    x must be float64; it is perturbed in place and restored.
    """
    assert x.dtype == np.float64
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = f()
        flat[i] = orig - step
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-based relative error between two gradient arrays."""
    num = np.linalg.norm((a - b).ravel())
    den = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), 1e-300)
    return float(num / den)


def _pool_winners(x: np.ndarray) -> np.ndarray:
    """Index 0..3 of the first max cell, in row-major order, of each
    2x2/stride-2 window of a (batch, h, w, c) map."""
    b, h, w, c = x.shape
    h_out, w_out = h // 2, w // 2
    windows = x[:, :2 * h_out, :2 * w_out].reshape(b, h_out, 2, w_out, 2, c)
    cells = windows.transpose(0, 1, 3, 5, 2, 4).reshape(b, h_out, w_out, c, 4)
    return cells.argmax(axis=4)


def kink_pattern(cache) -> tuple:
    """The ReLU and pooling decisions of a cached forward pass, as bytes.

    A perturbation that changes the pattern crosses a kink of the loss,
    where a finite difference is meaningless. From stage 2 on, the
    pooling decision is the winner of each window of the rectified conv
    output; stage 1 keeps no conv output, and its decisions are its
    winner record and the ReLU of its pooled map.
    """
    return (
        cache.winners.tobytes(),
        (cache.pooled[0] > 0).tobytes(),
        tuple((a > 0).tobytes() for a in cache.conv_pre),
        tuple(_pool_winners(np.maximum(a, 0)).tobytes() for a in cache.conv_pre),
        (cache.dense1_pre > 0).tobytes(),
    )
