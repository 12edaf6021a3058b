"""Reference blur: the tap-loop form of parasnet.baseline.filters.

Each axis pass pads with np.pad and adds one weighted shifted copy of
the image per tap; the pyramid stacks separately blurred levels. Only
the kernel, contrast_stretch, the scale-space constants and the octave
cap come from the package. The package's banded-GEMM blur sums the same products in
another order, so it is tested against this to a relative tolerance,
and its keypoints for equality.
"""

from __future__ import annotations

import numpy as np

from parasnet.baseline import filters, sift


def correlate1d_replicate(image: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
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
    kernel = filters.gaussian_kernel1d(sigma)
    return correlate1d_replicate(
        correlate1d_replicate(image.astype(np.float64), kernel, 0), kernel, 1
    )


def preprocess(image: np.ndarray) -> np.ndarray:
    if image.ndim == 3 and image.shape[2] == 1:
        image = image[:, :, 0]
    return filters.contrast_stretch(gaussian_blur(image, 1.0))


def build_pyramid(image: np.ndarray, buffers: dict | None = None) -> list[np.ndarray]:
    """Separately blurred levels, stacked; buffers, which the package's
    build_pyramid draws its octaves from, is ignored."""
    n_levels = sift.SCALES_PER_OCTAVE + 3
    step = 2.0 ** (1.0 / sift.SCALES_PER_OCTAVE)
    sigmas = [sift.SIGMA0 * step**s for s in range(n_levels)]
    first_blur = np.sqrt(max(sift.SIGMA0**2 - sift.ASSUMED_BLUR**2, 0.01))
    current = gaussian_blur(image, first_blur)
    octaves = []
    while min(current.shape) >= sift.MIN_OCTAVE_SIDE and len(octaves) < sift.MAX_OCTAVES:
        levels = [current]
        for s in range(1, n_levels):
            diff = np.sqrt(sigmas[s] ** 2 - sigmas[s - 1] ** 2)
            levels.append(gaussian_blur(levels[-1], diff))
        octaves.append(np.stack(levels))
        current = levels[sift.SCALES_PER_OCTAVE][::2, ::2]
    return octaves
