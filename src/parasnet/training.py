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


def _resample_nn(img: np.ndarray, src_y: np.ndarray, src_x: np.ndarray, fill: float) -> np.ndarray:
    """Nearest-neighbour lookup; src arrays may be broadcastable to (h, w)."""
    h, w = img.shape
    sy = np.rint(src_y).astype(np.intp)
    sx = np.rint(src_x).astype(np.intp)
    valid = (sy >= 0) & (sy < h) & ((sx >= 0) & (sx < w))
    out = img[np.clip(sy, 0, h - 1), np.clip(sx, 0, w - 1)]
    out[~np.broadcast_to(valid, out.shape)] = fill
    return out


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
    fill = float(np.median(img))
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
        sy = cy + (yy - cy) * cos_t + (xx - cx) * sin_t
        sx = cx - (yy - cy) * sin_t + (xx - cx) * cos_t
        out = _resample_nn(out, sy, sx, fill)
    if zoom != 1.0:
        sy = cy + (yy - cy) / zoom
        sx = cx + (xx - cx) / zoom
        out = _resample_nn(out, sy, sx, fill)
    return np.ascontiguousarray(out)[:, :, None]


@dataclass
class TrainConfig:
    epochs: int = 30
    # small batches keep the activation working set inside cache on the
    # single-core machines this is tuned for; larger ones train slower here
    batch_size: int = 8
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    lr_decay: float = 0.9999
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

    def to_csv(self, path: str, include_seconds: bool = True) -> None:
        """Per-epoch history as CSV.

        Wall times can be left out so two runs with the same seed write
        identical bytes.
        """
        header = "epoch,train_loss,test_accuracy"
        lines = [header + ",seconds" if include_seconds else header]
        for e in self.history:
            row = f"{e.epoch},{e.train_loss:.6f},{e.test_accuracy:.4f}"
            lines.append(row + f",{e.seconds:.3f}" if include_seconds else row)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def predict_labels(
    model: pm.ParasNetModel, images: np.ndarray, batch_size: int = 1
) -> np.ndarray:
    """Hard class labels for a stack of images, in inference mode."""
    probs, _ = pm.forward_images(model, images, batch_size)
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
            adam_step(
                params,
                grads,
                state,
                lr=config.learning_rate,
                beta1=config.beta1,
                beta2=config.beta2,
                epsilon=config.epsilon,
                decay=config.lr_decay,
            )
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

    preds = predict_labels(model, test_images)
    confusion = ConfusionMatrix.from_predictions(test_labels, preds).counts
    return TrainReport(history=history, confusion=confusion)
