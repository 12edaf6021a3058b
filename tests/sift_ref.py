"""Reference description path: the per-keypoint form of parasnet.baseline.sift.

Each keypoint's level gets whole-plane gradients (cached per level),
then its own orientation histogram and descriptor, one keypoint at a
time. The pyramid, the extremum finder and the constants come from the
package. The package describes an octave's keypoints in one batch from
gradients sampled only where they are read, and adds the same products
in the same order, so its keypoints and descriptors are tested against
this for equality.
"""

from __future__ import annotations

import numpy as np

from parasnet.baseline import sift
from parasnet.baseline.sift import DESCRIPTOR_SIZE, Keypoint

_SPATIAL_BINS = 4
_ANGLE_BINS = 8
_ORI_BINS = 36


def gradients(level_image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gy = np.zeros_like(level_image)
    gx = np.zeros_like(level_image)
    gy[1:-1, :] = (level_image[2:, :] - level_image[:-2, :]) / 2.0
    gx[:, 1:-1] = (level_image[:, 2:] - level_image[:, :-2]) / 2.0
    return np.sqrt(gy * gy + gx * gx), np.arctan2(gy, gx)


def orientation(mag, ang, y, x, sigma_rel) -> float:
    h, w = mag.shape
    radius = max(3, int(round(4.5 * sigma_rel)))
    y0, y1 = max(0, y - radius), min(h, y + radius + 1)
    x0, x1 = max(0, x - radius), min(w, x + radius + 1)
    yy, xx = np.mgrid[y0:y1, x0:x1]
    weight = np.exp(
        -((yy - y) ** 2 + (xx - x) ** 2) / (2.0 * (1.5 * sigma_rel) ** 2)
    )
    votes = mag[y0:y1, x0:x1] * weight
    bins = ((ang[y0:y1, x0:x1] + np.pi) / (2 * np.pi) * _ORI_BINS).astype(int) % _ORI_BINS
    hist = np.bincount(bins.ravel(), weights=votes.ravel(), minlength=_ORI_BINS)
    peak = int(np.argmax(hist))
    return (peak + 0.5) / _ORI_BINS * 2 * np.pi - np.pi


def descriptor(mag, ang, y, x, sigma_rel, orientation) -> np.ndarray:
    h, w = mag.shape
    spacing = sigma_rel
    offsets = (np.arange(16) - 7.5) * spacing
    a, b = np.meshgrid(offsets, offsets, indexing="ij")
    cos_t, sin_t = np.cos(orientation), np.sin(orientation)
    # keypoint frame: first axis along the orientation, second normal to it
    sample_x = x + a * cos_t - b * sin_t
    sample_y = y + a * sin_t + b * cos_t
    ry = np.rint(sample_y)
    rx = np.rint(sample_x)
    sy = np.clip(ry.astype(int), 0, h - 1)
    sx = np.clip(rx.astype(int), 0, w - 1)
    inside = (ry >= 0) & (ry < h) & (rx >= 0) & (rx < w)
    m = mag[sy, sx] * inside
    theta = np.mod(ang[sy, sx] - orientation + np.pi, 2 * np.pi)
    weight = np.exp(-(a * a + b * b) / (2.0 * (8.0 * spacing) ** 2))

    angle_bin = (theta / (2 * np.pi) * _ANGLE_BINS).astype(int) % _ANGLE_BINS
    cell_i = (np.arange(16) // 4)[:, None] * np.ones(16, dtype=int)[None, :]
    cell_j = cell_i.T
    flat_bin = (cell_i * _SPATIAL_BINS + cell_j) * _ANGLE_BINS + angle_bin
    desc = np.bincount(
        flat_bin.ravel(), weights=(m * weight).ravel(), minlength=DESCRIPTOR_SIZE
    )

    norm = np.linalg.norm(desc)
    if norm < 1e-12:
        return np.zeros(DESCRIPTOR_SIZE)
    desc /= norm
    np.minimum(desc, 0.2, out=desc)
    norm = np.linalg.norm(desc)
    return desc / norm if norm > 1e-12 else desc


def detect_and_describe(image: np.ndarray) -> tuple[list[Keypoint], np.ndarray]:
    octaves = sift.build_pyramid(image)

    candidates = []
    for oct_idx, levels in enumerate(octaves):
        for lev, y, x, value in sift._find_extrema(sift.dog_stack(levels)):
            candidates.append((oct_idx, lev, y, x, value))
    candidates.sort(key=lambda c: -abs(c[4]))
    candidates = candidates[: sift.MAX_KEYPOINTS]

    grads: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    keypoints = []
    descriptors = []
    for oct_idx, lev, y, x, value in candidates:
        key = (oct_idx, lev)
        if key not in grads:
            grads[key] = gradients(octaves[oct_idx][lev])
        mag, ang = grads[key]
        sigma_rel = sift.SIGMA0 * (2.0 ** (1.0 / sift.SCALES_PER_OCTAVE)) ** lev
        theta = orientation(mag, ang, y, x, sigma_rel)
        desc = descriptor(mag, ang, y, x, sigma_rel, theta)
        scale = 2.0**oct_idx
        keypoints.append(
            Keypoint(
                y=y * scale,
                x=x * scale,
                octave=oct_idx,
                level=lev,
                sigma=sigma_rel * scale,
                orientation=theta,
                response=value,
            )
        )
        descriptors.append(desc)
    if not descriptors:
        return [], np.zeros((0, DESCRIPTOR_SIZE))
    return keypoints, np.stack(descriptors)
