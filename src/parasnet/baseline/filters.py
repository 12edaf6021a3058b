"""Gaussian smoothing and contrast normalization for the feature pipeline."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# outputs per GEMM along the filtered axis. Each output costs _BLOCK + 2r
# multiplies, of which 2r + 1 are taps: wider blocks waste more, narrower
# ones run more and smaller GEMMs. Four pyramid blurs of a 244x324 image
# took 4.2, 4.0, 5.6 and 7.5 ms at 16, 32, 48 and 64 (2-core Xeon, one
# BLAS thread).
_BLOCK = 32


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1-d Gaussian, truncated at three sigma."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    radius = max(1, int(np.ceil(3.0 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


@lru_cache(maxsize=16)
def _band(sigma: float) -> np.ndarray:
    """The kernel as a (_BLOCK + 2r) x _BLOCK Toeplitz band: column j
    holds the taps in rows j..j+2r, so n <= _BLOCK consecutive outputs
    of a correlation are a padded segment of n + 2r inputs times
    band[:n + 2r, :n]. Shared by every caller and thread, so read-only."""
    kernel = gaussian_kernel1d(sigma)
    band = np.zeros((_BLOCK + len(kernel) - 1, _BLOCK))
    for j in range(_BLOCK):
        band[j : j + len(kernel), j] = kernel
    band.flags.writeable = False
    return band


def gaussian_blur_into(image: np.ndarray, sigma: float, out: np.ndarray) -> None:
    """Write gaussian_blur(image, sigma) into out, a float64 array of
    the image's shape that does not overlap it."""
    band = _band(float(sigma))
    radius = (band.shape[0] - _BLOCK) // 2
    h, w = image.shape
    # the edge-replicated copy is also the image's one conversion to float64
    padded = np.empty((h + 2 * radius, w))
    padded[radius : radius + h] = image
    padded[:radius] = padded[radius]
    padded[radius + h :] = padded[radius + h - 1]
    # the vertical pass writes between the horizontal pass's pad columns
    mid = np.empty((h, w + 2 * radius))
    for a in range(0, h, _BLOCK):
        n = min(_BLOCK, h - a)
        np.matmul(band[: n + 2 * radius, :n].T, padded[a : a + n + 2 * radius],
                  out=mid[a : a + n, radius : radius + w])
    mid[:, :radius] = mid[:, radius : radius + 1]
    mid[:, radius + w :] = mid[:, radius + w - 1 : radius + w]
    for a in range(0, w, _BLOCK):
        n = min(_BLOCK, w - a)
        np.matmul(mid[:, a : a + n + 2 * radius], band[: n + 2 * radius, :n],
                  out=out[:, a : a + n])


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with replicated borders, as float64.

    Each axis pass is a few blocked GEMMs with a banded matrix of the
    kernel (see _band). They sum in another order than a tap-by-tap
    correlation, so the two agree to within a few ulps, not bit for bit.
    """
    if image.ndim != 2 or 0 in image.shape:
        raise ValueError(f"expected a non-empty 2-d image, got shape {image.shape}")
    out = np.empty(image.shape)
    gaussian_blur_into(image, sigma, out)
    return out


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
