"""Training loop: Adam updates, the per-class BCE loss, and augmentation.

The loss treats the three softmax outputs as three sigmoid-style
targets and sums binary cross-entropy over them, rather than taking
plain categorical cross-entropy of the hot class only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import model as pm

PROB_CLAMP = 1e-7
# fit's step size is learning_rate * LR_DECAY**t after t updates
LR_DECAY = 0.9999


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
    decay: float = 1.0,
) -> None:
    """One Adam update, applied to the parameter arrays in place.

    The step size is lr * decay**t with t counting updates from 1, so
    decay=1.0 means a constant learning rate. epsilon sits outside the
    square root.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError(
            f"mismatched lengths: {len(params)} params, {len(grads)} grads, "
            f"{len(state.m)} state slots"
        )
    state.t += 1
    t = state.t
    alpha = lr * decay**t
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= alpha * (m / c1) / (np.sqrt(v / c2) + epsilon)


def bce_loss_batch(probs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Binary cross-entropy of each class probability, summed over the
    classes of a (batch, classes) array and averaged over the batch.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs; the
    gradient is zero where the clamp was active. Returns (loss, d_probs);
    d_probs already carries the 1/batch factor.
    """
    if probs.ndim != 2 or probs.shape != targets.shape:
        raise ValueError(f"shape mismatch: probs {probs.shape}, targets {targets.shape}")
    b = probs.shape[0]
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    inside = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
    loss = float(
        np.sum(-targets * np.log(p) - (1.0 - targets) * np.log(1.0 - p))
    ) / b
    d = (-targets / p + (1.0 - targets) / (1.0 - p)) * inside / b
    return loss, d.astype(probs.dtype)


@dataclass
class AugmentConfig:
    max_shift: float = 0.1
    flip_prob: float = 0.5
    max_rotate_deg: float = 15.0
    zoom_range: tuple[float, float] = (0.9, 1.1)


# _resample_nn fills this many output rows at a time, so that its
# temporaries stay in cache rather than spanning the whole image
RESAMPLE_ROWS = 64


def _resample_nn(
    img: np.ndarray,
    src_y: Callable[[slice], np.ndarray],
    src_x: Callable[[slice], np.ndarray],
    fill: float,
) -> np.ndarray:
    """Nearest-neighbour resample of an (h, w) image.

    src_y(rows) and src_x(rows) give the source coordinates of the
    output rows in the slice, as arrays that broadcast to (rows, w).
    Each output pixel takes the image value at the rounded coordinates,
    or fill where they lie outside the image.
    """
    h, w = img.shape
    src = np.ravel(img)
    out = np.empty((h, w), img.dtype)
    for start in range(0, h, RESAMPLE_ROWS):
        rows = slice(start, start + RESAMPLE_ROWS)
        ry = np.rint(src_y(rows))
        rx = np.rint(src_x(rows))
        outside = (ry < 0) | (ry >= h) | ((rx < 0) | (rx >= w))
        # whole floats below 2**53 cast to the index exactly; take clips
        # an index outside the image, and its pixel is then filled
        flat = (ry * w + rx).astype(np.intp)
        block = out[rows]
        src.take(flat, out=block, mode="clip")
        block[outside] = fill
    return out


# _median sorts a strided sample of about this many values to bracket
# the middle of the array
MEDIAN_SAMPLE = 4096


def _median(values: np.ndarray) -> float:
    """float(np.median(values)), partitioning only the values near the middle.

    A strided sample's median, widened by three standard errors of its
    rank (sqrt(m)/2 for a sample of m), brackets the middle; the values
    inside are partitioned and the one or two middle ones averaged with
    np.mean, as np.median does, so the result is the same float (np.mean
    returns +0.0 for any zeros, so which zero a partition puts in the
    middle does not matter). When the bracket misses the middle or a
    NaN is present, np.median runs.
    """
    x = np.ravel(values)
    n = x.size
    k_lo, k_hi = (n - 1) // 2, n // 2
    sample = np.sort(x[:: max(n // MEDIAN_SAMPLE, 1)])
    m = sample.size
    if m and not np.isnan(x.max()):
        margin = 3 * int(np.sqrt(m)) // 2 + 1
        lo = sample[max((m - 1) // 2 - margin, 0)]
        hi = sample[min(m // 2 + margin, m - 1)]
        from_lo = x >= lo
        # with no NaN, every value not from lo up lies below it
        below = n - np.count_nonzero(from_lo)
        inside = x.take(np.flatnonzero(from_lo & (x <= hi)))
        if below <= k_lo and k_hi < below + inside.size:
            middle = [k_lo - below, k_hi - below]
            return float(np.mean(np.partition(inside, middle)[middle]))
    return float(np.median(x))


def _shift(img: np.ndarray, dy: int, dx: int, fill: float) -> np.ndarray:
    h, w = img.shape
    out = np.full_like(img, fill)
    if abs(dy) >= h or abs(dx) >= w:
        return out
    dst_y = slice(max(0, dy), h + min(0, dy))
    src_y = slice(max(0, -dy), h - max(0, dy))
    dst_x = slice(max(0, dx), w + min(0, dx))
    src_x = slice(max(0, -dx), w - max(0, dx))
    out[dst_y, dst_x] = img[src_y, src_x]
    return out


def augment(image: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Random shift, flips, rotation, zoom, in that order.

    Resampling is nearest-neighbour and uncovered pixels take the image
    median. All random draws happen up front in a fixed order, so a
    seeded generator gives a reproducible transform.

    The pixels and dtype are exactly those of the plain form, which
    indexes the image with rounded, clipped (row, column) arrays and
    fills with np.median: each source coordinate is the same float64
    sum, rounded the same way; a range test on whole floats agrees with
    one on their integer casts; row * w + column addresses the element
    that 2-d indexing reads; the pixels whose flat index take clips are
    the outside ones, which are then filled; and _median returns
    np.median's value. Working in row blocks changes no arithmetic.
    """
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
    fill = _median(img)
    out = _shift(img, dy, dx, fill)
    if flip_lr:
        out = out[:, ::-1]
    if flip_ud:
        out = out[::-1, :]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.ogrid[0:h, 0:w]
    if angle != 0.0:
        theta = np.deg2rad(angle)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        y0, y1 = cy + (yy - cy) * cos_t, (xx - cx) * sin_t
        x0, x1 = cx - (yy - cy) * sin_t, (xx - cx) * cos_t
        out = _resample_nn(out, lambda rows: y0[rows] + y1, lambda rows: x0[rows] + x1, fill)
    if zoom != 1.0:
        zy, zx = cy + (yy - cy) / zoom, cx + (xx - cx) / zoom
        out = _resample_nn(out, lambda rows: zy[rows], lambda rows: zx, fill)
    return np.ascontiguousarray(out)[:, :, None]


@dataclass
class TrainConfig:
    epochs: int = 30
    # small batches keep the activation working set inside cache on the
    # single-core machines this is tuned for; larger ones train slower here
    batch_size: int = 8
    learning_rate: float = 0.001
    dropout_rate: float = 0.5
    seed: int = 0
    augment: AugmentConfig | None = field(default_factory=AugmentConfig)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    test_accuracy: float
    seconds: float


@dataclass
class TrainReport:
    history: list[EpochStats]
    confusion: np.ndarray

    @property
    def final_accuracy(self) -> float:
        return self.history[-1].test_accuracy if self.history else 0.0

    @property
    def best_accuracy(self) -> float:
        return max((e.test_accuracy for e in self.history), default=0.0)

    def to_csv(self, path: str) -> None:
        """Per-epoch history as CSV. Wall times are left out, so two runs
        with the same seed write identical bytes."""
        lines = ["epoch,train_loss,test_accuracy"]
        for e in self.history:
            lines.append(f"{e.epoch},{e.train_loss:.6f},{e.test_accuracy:.4f}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def predict_labels(model: pm.ParasNetModel, images: np.ndarray) -> np.ndarray:
    """Hard class labels for a stack of images, in inference mode."""
    probs, _ = pm.forward_images(model, images)
    return np.argmax(probs, axis=1)


def fit(
    model: pm.ParasNetModel,
    train_images: np.ndarray,
    train_labels: np.ndarray,
    test_images: np.ndarray,
    test_labels: np.ndarray,
    config: TrainConfig,
    log: Callable[[EpochStats], None] | None = None,
) -> TrainReport:
    """Train in place and report per-epoch loss and test accuracy.

    One seeded generator drives shuffling, augmentation and dropout, so
    a config seed fixes the whole trajectory.
    """
    n = len(train_images)
    if n == 0:
        raise ValueError("empty training set")
    if len(train_labels) != n or len(test_images) != len(test_labels):
        raise ValueError("images and labels disagree in length")
    for labels in (train_labels, test_labels):
        if len(labels) and (labels.min() < 0 or labels.max() >= pm.NUM_CLASSES):
            raise ValueError(f"labels must lie in [0, {pm.NUM_CLASSES})")

    rng = np.random.default_rng(config.seed)
    params = pm.parameters(model)
    state = AdamState.for_params(params)
    eye = np.eye(pm.NUM_CLASSES, dtype=train_images.dtype)
    history: list[EpochStats] = []

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            xb = train_images[batch]
            if config.augment is not None:
                xb = np.stack([augment(img, config.augment, rng) for img in xb])
            yb = eye[train_labels[batch]]
            probs, _, cache = pm.forward_batch(
                model,
                xb,
                mode="train",
                rng=rng,
                dropout_rate=config.dropout_rate,
                want_cache=True,
            )
            loss, d_probs = bce_loss_batch(probs, yb)
            grads = pm.backward_batch(model, cache, d_probs)
            adam_step(params, grads, state, lr=config.learning_rate, decay=LR_DECAY)
            loss_sum += loss * len(batch)
        preds = predict_labels(model, test_images)
        accuracy = float(np.mean(preds == test_labels)) if len(test_labels) else 0.0
        stats = EpochStats(
            epoch=epoch,
            train_loss=loss_sum / n,
            test_accuracy=accuracy,
            seconds=time.perf_counter() - started,
        )
        history.append(stats)
        if log is not None:
            log(stats)

    # evaluation imports this module, so its confusion counter is imported here
    from .evaluation import ConfusionMatrix

    # the last epoch's test pass already predicted the final model
    if not history:
        preds = predict_labels(model, test_images)
    confusion = ConfusionMatrix.from_predictions(test_labels, preds).counts
    return TrainReport(history=history, confusion=confusion)
