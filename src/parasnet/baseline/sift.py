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
0.5. A keypoint must clear a DoG contrast of CONTRAST_THRESH = 0.03 and
a principal-curvature ratio of EDGE_RATIO = 10. Octaves stop below
MIN_OCTAVE_SIDE pixels or after MAX_OCTAVES, and an image keeps at most
MAX_KEYPOINTS keypoints; those three are this implementation's own
limits.

Detection makes one pass per octave: the contrast test runs over the
whole DoG stack at once, and only the flat indices it keeps (a few
percent) meet the neighbour and edge tests. Description is batched per
octave too: central-difference gradients are computed only at the
integer points the orientation windows and descriptor grids read, and
each of the two histograms is a single bincount over all of the
octave's keypoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import gaussian_blur_into, scratch

DESCRIPTOR_SIZE = 128
_SPATIAL_BINS = 4
_ANGLE_BINS = 8
_ORI_BINS = 36
SIGMA0 = 1.6
SCALES_PER_OCTAVE = 3
ASSUMED_BLUR = 0.5
MIN_OCTAVE_SIDE = 16
CONTRAST_THRESH = 0.03
EDGE_RATIO = 10.0
# on small microscopy crops the very coarse octaves respond to whole
# organisms rather than local texture, so the pyramid stops early
MAX_OCTAVES = 3
MAX_KEYPOINTS = 512
# scale ratio between neighbouring levels of an octave
_LEVEL_STEP = 2.0 ** (1.0 / SCALES_PER_OCTAVE)

# per level of an octave: its blur relative to the octave, the radius of
# its orientation window, the denominators of the orientation and the
# descriptor Gaussian weights, and the descriptor grid's sample offsets
_SIGMA_REL = [SIGMA0 * _LEVEL_STEP**s for s in range(SCALES_PER_OCTAVE + 3)]
_ORI_RADIUS = np.array([max(3, int(round(4.5 * s))) for s in _SIGMA_REL])
_ORI_DENOM = np.array([2.0 * (1.5 * s) ** 2 for s in _SIGMA_REL])
_DESC_DENOM = np.array([2.0 * (8.0 * s) ** 2 for s in _SIGMA_REL])
_DESC_OFFSETS = (np.arange(16) - 7.5) * np.array(_SIGMA_REL)[:, None]
# the descriptor histogram's first bin for each sample of the 16x16 grid
_DESC_CELL_BIN = (np.arange(16)[:, None] // 4 * _SPATIAL_BINS + np.arange(16) // 4) * _ANGLE_BINS


@dataclass
class Keypoint:
    y: float
    x: float
    octave: int
    level: int
    sigma: float
    orientation: float
    response: float


def build_pyramid(image: np.ndarray, buffers: dict | None = None) -> list[np.ndarray]:
    """Gaussian octaves; each is (levels, h, w) with levels = scales + 3,
    drawn from buffers (see filters.scratch)."""
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    n_levels = len(_SIGMA_REL)
    first_blur = np.sqrt(max(SIGMA0**2 - ASSUMED_BLUR**2, 0.01))
    octaves: list[np.ndarray] = []
    shape = image.shape
    while min(shape) >= MIN_OCTAVE_SIDE and len(octaves) < MAX_OCTAVES:
        # each level is blurred straight into its slot of the octave
        octave = scratch(buffers, "octave", (n_levels, *shape))
        if octaves:
            # the level at twice the base blur seeds the next octave
            octave[0] = octaves[-1][SCALES_PER_OCTAVE, ::2, ::2]
        else:
            gaussian_blur_into(image, first_blur, octave[0], buffers)
        for s in range(1, n_levels):
            diff = np.sqrt(_SIGMA_REL[s] ** 2 - _SIGMA_REL[s - 1] ** 2)
            gaussian_blur_into(octave[s - 1], diff, octave[s], buffers)
        octaves.append(octave)
        shape = octave[SCALES_PER_OCTAVE, ::2, ::2].shape
    return octaves


def dog_stack(octave_levels: np.ndarray, buffers: dict | None = None) -> np.ndarray:
    out = scratch(buffers, "dog", (len(octave_levels) - 1, *octave_levels.shape[1:]))
    return np.subtract(octave_levels[1:], octave_levels[:-1], out=out)


def _find_extrema(
    dog: np.ndarray, buffers: dict | None = None
) -> list[tuple[int, int, int, float]]:
    """(level, y, x, value) of 26-neighbour strict extrema passing both tests.

    The cheap contrast test |D| >= CONTRAST_THRESH runs first, as in
    Lowe's detector, over all inner levels at once with the border rows
    and columns cleared; np.flatnonzero gives the survivors (a few
    percent) as flat indices in level-major, row-major order. The first
    neighbour decides whether a candidate can still be a maximum or a
    minimum, and each neighbour in turn drops the candidates that do
    not strictly exceed (or undercut) it, so the later gathers are
    small. The Hessian edge test runs on the flat indices of those left.
    """
    _, height, width = dog.shape
    plane = height * width
    flat = dog.reshape(-1)
    inner = dog[1:-1]
    mask = np.greater_equal(inner, CONTRAST_THRESH,
                            out=scratch(buffers, "extrema.mask", inner.shape, bool))
    mask |= np.less_equal(inner, -CONTRAST_THRESH,
                          out=scratch(buffers, "extrema.low", inner.shape, bool))
    mask[:, [0, -1], :] = False
    mask[:, :, [0, -1]] = False
    idx = np.flatnonzero(mask) + plane
    value = flat[idx]

    # the 26 neighbours' flat steps; those in the candidate's own level
    # come first, since they reject most candidates soonest
    steps = [
        dl * plane + dy * width + dx
        for dl in (0, -1, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dl or dy or dx
    ]
    # a minimum is a maximum of the negated values, so once the first
    # neighbour has picked each candidate's sign, one strict > tests both
    sign = np.where(value > flat[idx + steps[0]], 1.0, -1.0)
    signed = sign * value
    for step in steps:
        keep = signed > sign * flat[idx + step]
        idx, sign, signed = idx[keep], sign[keep], signed[keep]

    center = flat[idx]
    dxx = flat[idx + 1] + flat[idx - 1] - 2.0 * center
    dyy = flat[idx + width] + flat[idx - width] - 2.0 * center
    dxy = (
        flat[idx + width + 1]
        - flat[idx + width - 1]
        - flat[idx - width + 1]
        + flat[idx - width - 1]
    ) / 4.0
    trace = dxx + dyy
    det = dxx * dyy - dxy * dxy
    edge_limit = (EDGE_RATIO + 1.0) ** 2 / EDGE_RATIO
    keep = (det > 0) & (trace * trace / np.where(det > 0, det, 1.0) < edge_limit)
    idx = idx[keep]
    lev, rest = np.divmod(idx, plane)
    ys, xs = np.divmod(rest, width)
    return list(zip(lev.tolist(), ys.tolist(), xs.tolist(), flat[idx].tolist()))


def _gradients_at(levels, lev, ys, xs) -> tuple[np.ndarray, np.ndarray]:
    """Gradient magnitude and angle of levels[lev] at in-plane points.

    Central differences, with the row difference zero on the first and
    last rows and the column difference zero on the first and last
    columns, as a whole-plane pass would give.
    """
    _, h, w = levels.shape
    up, down = np.maximum(ys - 1, 0), np.minimum(ys + 1, h - 1)
    left, right = np.maximum(xs - 1, 0), np.minimum(xs + 1, w - 1)
    gy = (levels[lev, down, xs] - levels[lev, up, xs]) / 2.0
    gx = (levels[lev, ys, right] - levels[lev, ys, left]) / 2.0
    gy = np.where((ys > 0) & (ys < h - 1), gy, 0.0)
    gx = np.where((xs > 0) & (xs < w - 1), gx, 0.0)
    return np.sqrt(gy * gy + gx * gx), np.arctan2(gy, gx)


def _orientations(levels, lev, ys, xs) -> np.ndarray:
    """The peak of each keypoint's 36-bin gradient-direction histogram.

    Every window is padded to the largest radius among the keypoints;
    a padded position, or one outside the image, votes exactly 0.0, so
    each bin adds its votes in the window's row-major order.
    """
    _, h, w = levels.shape
    k = len(lev)
    radius = _ORI_RADIUS[lev][:, None, None]
    steps = np.arange(-radius.max(), radius.max() + 1)
    dy, dx = steps[:, None], steps[None, :]
    wy = ys[:, None, None] + dy
    wx = xs[:, None, None] + dx
    inside = (
        (np.abs(dy) <= radius) & (np.abs(dx) <= radius)
        & (wy >= 0) & (wy < h) & (wx >= 0) & (wx < w)
    )
    mag, ang = _gradients_at(
        levels, lev[:, None, None], np.clip(wy, 0, h - 1), np.clip(wx, 0, w - 1)
    )
    weight = np.exp(-(dy**2 + dx**2) / _ORI_DENOM[lev][:, None, None])
    votes = np.where(inside, mag * weight, 0.0)
    bins = ((ang + np.pi) / (2 * np.pi) * _ORI_BINS).astype(int) % _ORI_BINS
    bins += _ORI_BINS * np.arange(k)[:, None, None]
    hist = np.bincount(bins.ravel(), weights=votes.ravel(), minlength=k * _ORI_BINS)
    peak = hist.reshape(k, _ORI_BINS).argmax(axis=1)
    return (peak + 0.5) / _ORI_BINS * 2 * np.pi - np.pi


def _descriptors(levels, lev, ys, xs, orientation) -> np.ndarray:
    """(k, 128) unnormalised 4x4x8 histograms of a rotated 16x16 grid."""
    _, h, w = levels.shape
    k = len(lev)
    a = _DESC_OFFSETS[lev][:, :, None]
    b = _DESC_OFFSETS[lev][:, None, :]
    theta0 = orientation[:, None, None]
    cos_t, sin_t = np.cos(theta0), np.sin(theta0)
    # keypoint frame: first axis along the orientation, second normal to it
    sample_x = xs[:, None, None] + a * cos_t - b * sin_t
    sample_y = ys[:, None, None] + a * sin_t + b * cos_t
    ry = np.rint(sample_y)
    rx = np.rint(sample_x)
    inside = (ry >= 0) & (ry < h) & (rx >= 0) & (rx < w)
    mag, ang = _gradients_at(
        levels,
        lev[:, None, None],
        np.clip(ry.astype(int), 0, h - 1),
        np.clip(rx.astype(int), 0, w - 1),
    )
    m = mag * inside
    theta = np.mod(ang - theta0 + np.pi, 2 * np.pi)
    weight = np.exp(-(a * a + b * b) / _DESC_DENOM[lev][:, None, None])
    angle_bin = (theta / (2 * np.pi) * _ANGLE_BINS).astype(int) % _ANGLE_BINS
    bins = _DESC_CELL_BIN + angle_bin + DESCRIPTOR_SIZE * np.arange(k)[:, None, None]
    desc = np.bincount(
        bins.ravel(), weights=(m * weight).ravel(), minlength=k * DESCRIPTOR_SIZE
    )
    return desc.reshape(k, DESCRIPTOR_SIZE)


def _normalise(desc: np.ndarray) -> None:
    """Unit length, clip at 0.2, unit length again; all zeros if ~0."""
    norm = np.linalg.norm(desc)
    if norm < 1e-12:
        desc[:] = 0.0
        return
    desc /= norm
    np.minimum(desc, 0.2, out=desc)
    norm = np.linalg.norm(desc)
    if norm > 1e-12:
        desc /= norm


def detect_and_describe(
    image: np.ndarray, buffers: dict | None = None
) -> tuple[list[Keypoint], np.ndarray]:
    """Keypoints in base-image coordinates plus their (K, 128) descriptors.
    The pyramid, its DoG stacks and the extrema masks are drawn from
    buffers; the results are fresh arrays."""
    if min(image.shape[:2]) < 32:
        raise ValueError(
            f"image too small for keypoint detection: {image.shape[1]}x{image.shape[0]}"
        )
    octaves = build_pyramid(image, buffers)

    candidates = []
    for oct_idx, levels in enumerate(octaves):
        for lev, y, x, value in _find_extrema(dog_stack(levels, buffers), buffers):
            candidates.append((oct_idx, lev, y, x, value))
    # strongest responses first, capped to keep descriptor cost bounded
    candidates.sort(key=lambda c: -abs(c[4]))
    candidates = candidates[:MAX_KEYPOINTS]
    if not candidates:
        return [], np.zeros((0, DESCRIPTOR_SIZE))

    oct_of, lev, ys, xs = np.array([c[:4] for c in candidates]).T
    orientations = np.empty(len(candidates))
    descriptors = np.empty((len(candidates), DESCRIPTOR_SIZE))
    for oct_idx, levels in enumerate(octaves):
        sel = np.flatnonzero(oct_of == oct_idx)
        if len(sel):
            at = (levels, lev[sel], ys[sel], xs[sel])
            orientations[sel] = _orientations(*at)
            descriptors[sel] = _descriptors(*at, orientations[sel])
    # row by row: an axis-wise norm would sum in another order
    for row in descriptors:
        _normalise(row)
    keypoints = [
        Keypoint(
            y=y * 2.0**oct_idx,
            x=x * 2.0**oct_idx,
            octave=oct_idx,
            level=level,
            sigma=_SIGMA_REL[level] * 2.0**oct_idx,
            orientation=theta,
            response=value,
        )
        for (oct_idx, level, y, x, value), theta in zip(candidates, orientations.tolist())
    ]
    return keypoints, descriptors
