"""Scale-space keypoint detection and 128-d gradient descriptors.

A classic difference-of-Gaussians pyramid, pruned by contrast and edge
tests, with one orientation per keypoint and a 4x4x8 histogram
descriptor. Deliberately simplified relative to full SIFT: no initial
2x upsampling, no sub-pixel refinement, a single orientation peak, and
nearest-bin accumulation instead of trilinear interpolation. Those
shortcuts trade a little matching quality for a lot less code.

The scale-space constants are Lowe's (2004, "Distinctive Image Features
from Scale-Invariant Keypoints"): base blur SIGMA0 = 1.6, three scales
per octave, and an input that already carries a blur of ASSUMED_BLUR =
0.5. Octaves stop below MIN_OCTAVE_SIDE pixels, this implementation's
own limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import gaussian_blur_into

DESCRIPTOR_SIZE = 128
_SPATIAL_BINS = 4
_ANGLE_BINS = 8
_ORI_BINS = 36
SIGMA0 = 1.6
SCALES_PER_OCTAVE = 3
ASSUMED_BLUR = 0.5
MIN_OCTAVE_SIDE = 16
# scale ratio between neighbouring levels of an octave
_LEVEL_STEP = 2.0 ** (1.0 / SCALES_PER_OCTAVE)


@dataclass
class SiftConfig:
    contrast_thresh: float = 0.03
    edge_ratio: float = 10.0
    # on small microscopy crops the very coarse octaves respond to whole
    # organisms rather than local texture, so the pyramid stops early
    max_octaves: int = 3
    max_keypoints: int = 512


@dataclass
class Keypoint:
    y: float
    x: float
    octave: int
    level: int
    sigma: float
    orientation: float
    response: float


def build_pyramid(image: np.ndarray, cfg: SiftConfig) -> list[np.ndarray]:
    """Gaussian octaves; each is (levels, h, w) with levels = scales + 3."""
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    n_levels = SCALES_PER_OCTAVE + 3
    sigmas = [SIGMA0 * _LEVEL_STEP**s for s in range(n_levels)]

    first_blur = np.sqrt(max(SIGMA0**2 - ASSUMED_BLUR**2, 0.01))
    octaves: list[np.ndarray] = []
    shape = image.shape
    while min(shape) >= MIN_OCTAVE_SIDE and len(octaves) < cfg.max_octaves:
        # each level is blurred straight into its slot of the octave
        octave = np.empty((n_levels, *shape))
        if octaves:
            # the level at twice the base blur seeds the next octave
            octave[0] = octaves[-1][SCALES_PER_OCTAVE, ::2, ::2]
        else:
            gaussian_blur_into(image, first_blur, octave[0])
        for s in range(1, n_levels):
            diff = np.sqrt(sigmas[s] ** 2 - sigmas[s - 1] ** 2)
            gaussian_blur_into(octave[s - 1], diff, octave[s])
        octaves.append(octave)
        shape = octave[SCALES_PER_OCTAVE, ::2, ::2].shape
    return octaves


def dog_stack(octave_levels: np.ndarray) -> np.ndarray:
    return octave_levels[1:] - octave_levels[:-1]


def _find_extrema(dog: np.ndarray, cfg: SiftConfig) -> list[tuple[int, int, int, float]]:
    """(level, y, x, value) of 26-neighbour strict extrema passing both tests.

    The cheap contrast test |D| >= contrast_thresh runs first, as in
    Lowe's detector; the neighbour comparison and then the Hessian edge
    test run only on the pixels it keeps (a few percent of each level).
    Within a level the candidates keep row-major order.
    """
    out = []
    n_levels, height, width = dog.shape
    flat = dog.reshape(n_levels, height * width)
    threshold = cfg.contrast_thresh
    edge_limit = (cfg.edge_ratio + 1.0) ** 2 / cfg.edge_ratio
    for lev in range(1, n_levels - 1):
        ys, xs = np.nonzero(np.abs(dog[lev, 1:-1, 1:-1]) >= threshold)
        ys, xs = ys + 1, xs + 1
        idx = ys * width + xs
        value = flat[lev, idx]
        is_max = np.ones(len(idx), dtype=bool)
        is_min = np.ones(len(idx), dtype=bool)
        for dl in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dl == 0 and dy == 0 and dx == 0:
                        continue
                    nb = flat[lev + dl, idx + (dy * width + dx)]
                    is_max &= value > nb
                    is_min &= value < nb
        mask = is_max | is_min
        if not mask.any():
            continue

        plane = dog[lev]
        ys, xs = ys[mask], xs[mask]
        dxx = plane[ys, xs + 1] + plane[ys, xs - 1] - 2.0 * plane[ys, xs]
        dyy = plane[ys + 1, xs] + plane[ys - 1, xs] - 2.0 * plane[ys, xs]
        dxy = (
            plane[ys + 1, xs + 1]
            - plane[ys + 1, xs - 1]
            - plane[ys - 1, xs + 1]
            + plane[ys - 1, xs - 1]
        ) / 4.0
        trace = dxx + dyy
        det = dxx * dyy - dxy * dxy
        keep = (det > 0) & (trace * trace / np.where(det > 0, det, 1.0) < edge_limit)
        for y, x, ok in zip(ys, xs, keep):
            if ok:
                out.append((lev, int(y), int(x), float(plane[y, x])))
    return out


def _gradients(level_image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gy = np.zeros_like(level_image)
    gx = np.zeros_like(level_image)
    gy[1:-1, :] = (level_image[2:, :] - level_image[:-2, :]) / 2.0
    gx[:, 1:-1] = (level_image[:, 2:] - level_image[:, :-2]) / 2.0
    return np.sqrt(gy * gy + gx * gx), np.arctan2(gy, gx)


def _orientation(mag, ang, y, x, sigma_rel) -> float:
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


def _descriptor(mag, ang, y, x, sigma_rel, orientation) -> np.ndarray:
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


def detect_and_describe(
    image: np.ndarray, cfg: SiftConfig | None = None
) -> tuple[list[Keypoint], np.ndarray]:
    """Keypoints in base-image coordinates plus their (K, 128) descriptors."""
    cfg = cfg or SiftConfig()
    if min(image.shape[:2]) < 32:
        raise ValueError(
            f"image too small for keypoint detection: {image.shape[1]}x{image.shape[0]}"
        )
    octaves = build_pyramid(image, cfg)

    candidates = []
    for oct_idx, levels in enumerate(octaves):
        for lev, y, x, value in _find_extrema(dog_stack(levels), cfg):
            candidates.append((oct_idx, lev, y, x, value))
    # strongest responses first, capped to keep descriptor cost bounded
    candidates.sort(key=lambda c: -abs(c[4]))
    candidates = candidates[: cfg.max_keypoints]

    grads: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    keypoints = []
    descriptors = []
    for oct_idx, lev, y, x, value in candidates:
        key = (oct_idx, lev)
        if key not in grads:
            grads[key] = _gradients(octaves[oct_idx][lev])
        mag, ang = grads[key]
        sigma_rel = SIGMA0 * _LEVEL_STEP**lev
        orientation = _orientation(mag, ang, y, x, sigma_rel)
        desc = _descriptor(mag, ang, y, x, sigma_rel, orientation)
        scale = 2.0**oct_idx
        keypoints.append(
            Keypoint(
                y=y * scale,
                x=x * scale,
                octave=oct_idx,
                level=lev,
                sigma=sigma_rel * scale,
                orientation=orientation,
                response=value,
            )
        )
        descriptors.append(desc)
    if not descriptors:
        return [], np.zeros((0, DESCRIPTOR_SIZE))
    return keypoints, np.stack(descriptors)
