"""Gaussian smoothing and contrast normalization for the feature pipeline.

The functions that take buffers draw their large arrays from it: a dict
that maps a name, shape and dtype to an array, made on first use and
reused by every later call (see scratch). A caller that describes many
images keeps one dict, so the pages behind those arrays are faulted in
once rather than once per image. An array drawn from buffers is
overwritten by the next call that draws it, so one dict must not serve
two calls at once. Without buffers every array is fresh.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# outputs per GEMM along the filtered axis. Each output costs _BLOCK + 2r
# multiplies, of which 2r + 1 are taps: wider blocks waste more, narrower
# ones run more and smaller GEMMs. Four pyramid blurs of a 244x324 image
# took 4.2, 4.0, 5.6 and 7.5 ms at 16, 32, 48 and 64 (2-core Xeon, one
# BLAS thread).
_BLOCK = 32


def scratch(buffers: dict | None, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialised array of shape, a tuple, and dtype: buffers' array
    for (name, shape, dtype), made on first use, or a fresh one without
    buffers. The lookup costs about as much as np.empty: slicing one
    larger array per name instead made predict_one about 5% slower on a
    2-core Xeon."""
    if buffers is None:
        return np.empty(shape, dtype)
    key = (name, shape, dtype)
    out = buffers.get(key)
    if out is None:
        out = buffers[key] = np.empty(shape, dtype)
    return out


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


def gaussian_blur_into(
    image: np.ndarray, sigma: float, out: np.ndarray, buffers: dict | None = None
) -> None:
    """Write gaussian_blur(image, sigma) into out, a float64 array of
    the image's shape that does not overlap it. Its two padded
    temporaries come from buffers."""
    band = _band(float(sigma))
    radius = (band.shape[0] - _BLOCK) // 2
    h, w = image.shape
    # the edge-replicated copy is also the image's one conversion to float64
    padded = scratch(buffers, "blur.padded", (h + 2 * radius, w))
    padded[radius : radius + h] = image
    padded[:radius] = padded[radius]
    padded[radius + h :] = padded[radius + h - 1]
    # the vertical pass writes between the horizontal pass's pad columns
    mid = scratch(buffers, "blur.mid", (h, w + 2 * radius))
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
    _check_image(image)
    out = np.empty(image.shape)
    gaussian_blur_into(image, sigma, out)
    return out


def _check_image(image: np.ndarray) -> None:
    if image.ndim != 2 or 0 in image.shape:
        raise ValueError(f"expected a non-empty 2-d image, got shape {image.shape}")


def _stretch_into(image: np.ndarray) -> np.ndarray:
    """contrast_stretch of a float64 image, in place."""
    lo = float(image.min())
    hi = float(image.max())
    if hi - lo < 1e-12:
        image[...] = 0.5
        return image
    image -= lo
    image /= hi - lo
    return image


def contrast_stretch(image: np.ndarray) -> np.ndarray:
    """Map the value range linearly onto [0, 1].

    A flat image has no range to stretch and lands on mid-grey.
    """
    return _stretch_into(image.astype(np.float64))


def preprocess(image: np.ndarray, buffers: dict | None = None) -> np.ndarray:
    """De-noise then stretch: the fixed front end of the pipeline. The
    result is drawn from buffers."""
    if image.ndim == 3 and image.shape[2] == 1:
        image = image[:, :, 0]
    _check_image(image)
    out = scratch(buffers, "preprocessed", image.shape)
    gaussian_blur_into(image, 1.0, out, buffers)
    return _stretch_into(out)
