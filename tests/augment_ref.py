"""Reference augmentation: the plain form of parasnet.training.augment.

It shifts with a slice copy of its own, resamples with 2-d fancy
indexing and fills with np.median; only AugmentConfig comes from the
package, so a fault in the package's shift cannot show on both sides.
The package's augment computes the same pixels with less work and is
tested against this for bit equality, dtype included.
"""

from __future__ import annotations

import numpy as np

from parasnet.training import AugmentConfig


def shift(img: np.ndarray, dy: int, dx: int, fill: float) -> np.ndarray:
    """img moved down dy rows and right dx columns, uncovered pixels
    set to fill."""
    h, w = img.shape
    out = np.full((h, w), fill, img.dtype)
    # the rows and columns that stay inside the frame
    ys, xs = h - abs(dy), w - abs(dx)
    if ys > 0 and xs > 0:
        top, left = max(dy, 0), max(dx, 0)
        src_top, src_left = max(-dy, 0), max(-dx, 0)
        src = img[src_top : src_top + ys, src_left : src_left + xs]
        out[top : top + ys, left : left + xs] = src
    return out


def resample_nn(img: np.ndarray, src_y: np.ndarray, src_x: np.ndarray, fill: float) -> np.ndarray:
    """Nearest-neighbour lookup; src arrays may be broadcastable to (h, w)."""
    h, w = img.shape
    sy = np.rint(src_y).astype(np.intp)
    sx = np.rint(src_x).astype(np.intp)
    valid = (sy >= 0) & (sy < h) & ((sx >= 0) & (sx < w))
    out = img[np.clip(sy, 0, h - 1), np.clip(sx, 0, w - 1)]
    out[~np.broadcast_to(valid, out.shape)] = fill
    return out


def augment(image: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Random shift, flips, rotation, zoom, in that order, drawn in the
    same order as parasnet.training.augment."""
    if image.ndim != 3 or image.shape[2] != 1:
        raise ValueError(f"expected (h, w, 1) image, got {image.shape}")
    h, w = image.shape[:2]
    max_dy = int(round(h * cfg.max_shift))
    max_dx = int(round(w * cfg.max_shift))
    dy = int(rng.integers(-max_dy, max_dy + 1))
    dx = int(rng.integers(-max_dx, max_dx + 1))
    flip_lr = rng.random() < cfg.flip_prob
    flip_ud = rng.random() < cfg.flip_prob
    angle = float(rng.uniform(-cfg.max_rotate_deg, cfg.max_rotate_deg))
    zoom = float(rng.uniform(cfg.zoom_range[0], cfg.zoom_range[1]))

    img = image[:, :, 0]
    fill = float(np.median(img))
    out = shift(img, dy, dx, fill)
    if flip_lr:
        out = out[:, ::-1]
    if flip_ud:
        out = out[::-1, :]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.ogrid[0:h, 0:w]
    if angle != 0.0:
        theta = np.deg2rad(angle)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        sy = cy + (yy - cy) * cos_t + (xx - cx) * sin_t
        sx = cx - (yy - cy) * sin_t + (xx - cx) * cos_t
        out = resample_nn(out, sy, sx, fill)
    if zoom != 1.0:
        sy = cy + (yy - cy) / zoom
        sx = cx + (xx - cx) / zoom
        out = resample_nn(out, sy, sx, fill)
    return np.ascontiguousarray(out)[:, :, None]
