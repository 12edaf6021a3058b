"""Gaussian smoothing and contrast normalization for the feature pipeline."""

from __future__ import annotations

import numpy as np


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1-d Gaussian, truncated at three sigma."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    radius = max(1, int(np.ceil(3.0 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def _correlate1d_replicate(image: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    radius = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    padded = np.pad(image, pad, mode="edge")
    out = np.zeros_like(image, dtype=np.float64)
    for offset, weight in enumerate(kernel):
        if axis == 0:
            out += weight * padded[offset : offset + image.shape[0], :]
        else:
            out += weight * padded[:, offset : offset + image.shape[1]]
    return out


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with replicated borders."""
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    kernel = gaussian_kernel1d(sigma)
    return _correlate1d_replicate(
        _correlate1d_replicate(image.astype(np.float64), kernel, 0), kernel, 1
    )


def contrast_stretch(image: np.ndarray) -> np.ndarray:
    """Map the value range linearly onto [0, 1].

    A flat image has no range to stretch and lands on mid-grey.
    """
    lo = float(image.min())
    hi = float(image.max())
    if hi - lo < 1e-12:
        return np.full_like(image, 0.5, dtype=np.float64)
    return (image.astype(np.float64) - lo) / (hi - lo)


def preprocess(image: np.ndarray) -> np.ndarray:
    """De-noise then stretch: the fixed front end of the pipeline."""
    if image.ndim == 3 and image.shape[2] == 1:
        image = image[:, :, 0]
    return contrast_stretch(gaussian_blur(image, 1.0))
