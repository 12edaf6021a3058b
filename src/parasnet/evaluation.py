"""Evaluation tools: confusion matrices, capacity sweep, latency, silhouette.

A classifier here is anything with predict_batch(images) -> labels,
where images is any indexable stack of B (h, w, 1) images that yields
float32, such as an array or the pgmio.ImageStack that read_dataset
returns, and the result is a (B,) integer array. CnnClassifier wraps a
trained model in that interface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import CLASS_NAMES, NUM_CLASSES
from . import model as pm
from . import training as tr

# the fewest timed calls benchmark accepts
MIN_TIMED_ITERS = 10


@dataclass
class ConfusionMatrix:
    """Rows are actual classes, columns predicted, in label order."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (NUM_CLASSES, NUM_CLASSES):
            raise ValueError(
                f"expected a {NUM_CLASSES}x{NUM_CLASSES} matrix, "
                f"got {self.counts.shape}"
            )
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")

    @classmethod
    def from_predictions(
        cls, actual: np.ndarray, predicted: np.ndarray
    ) -> "ConfusionMatrix":
        if len(actual) != len(predicted):
            raise ValueError("actual and predicted disagree in length")
        for arr in (actual, predicted):
            arr = np.asarray(arr)
            if len(arr) and (arr.min() < 0 or arr.max() >= NUM_CLASSES):
                raise ValueError(f"labels must lie in [0, {NUM_CLASSES})")
        counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
        np.add.at(counts, (np.asarray(actual), np.asarray(predicted)), 1)
        return cls(counts)

    def accuracy(self) -> float:
        total = self.counts.sum()
        if total == 0:
            raise ValueError("empty confusion matrix has no accuracy")
        return float(np.trace(self.counts) / total)

    def per_class_accuracy(self) -> np.ndarray:
        """Diagonal over row sums; rows with no samples give NaN."""
        totals = self.counts.sum(axis=1).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.diag(self.counts) / totals

    def __str__(self) -> str:
        width = max(len(n) for n in CLASS_NAMES) + 2
        header = " " * width + "".join(f"{n:>{width}}" for n in CLASS_NAMES)
        lines = [header]
        for i, name in enumerate(CLASS_NAMES):
            cells = "".join(f"{int(c):>{width}}" for c in self.counts[i])
            lines.append(f"{name:>{width}}{cells}")
        return "\n".join(lines)

    def to_csv(self, path: str) -> None:
        lines = ["actual," + ",".join(f"predicted_{n}" for n in CLASS_NAMES)]
        for i, name in enumerate(CLASS_NAMES):
            lines.append(name + "," + ",".join(str(int(c)) for c in self.counts[i]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


class CnnClassifier:
    """predict_batch adapter around a trained model."""

    # images per forward pass; perfbench/run.py --trace 1 reads it
    batch_size = 1

    def __init__(self, model: pm.ParasNetModel):
        self.model = model

    def predict_batch(self, images: np.ndarray) -> np.ndarray:
        return tr.predict_labels(self.model, images)

    def predict_one(self, image: np.ndarray) -> int:
        probs, _ = pm.forward_batch(self.model, image[None])
        return int(np.argmax(probs))


def evaluate(classifier, images: np.ndarray, labels: np.ndarray) -> ConfusionMatrix:
    predicted = classifier.predict_batch(images)
    return ConfusionMatrix.from_predictions(labels, predicted)


def hidden_features(model: pm.ParasNetModel, images: np.ndarray) -> np.ndarray:
    """Last-hidden-layer activations (N, 128) in inference mode."""
    return pm.forward_images(model, images)[1]


@dataclass
class SweepRow:
    filters: int
    params: int
    best_accuracy: float
    final_accuracy: float


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)

    def to_csv(self, path: str) -> None:
        lines = ["filters,params,best_accuracy,final_accuracy"]
        for r in self.rows:
            lines.append(
                f"{r.filters},{r.params},{r.best_accuracy:.4f},{r.final_accuracy:.4f}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def filter_sweep(
    filter_counts: list[int],
    train_images: np.ndarray,
    train_labels: np.ndarray,
    test_images: np.ndarray,
    test_labels: np.ndarray,
    config: tr.TrainConfig,
    init_seed: int = 0,
) -> SweepResult:
    """Train one model per width and keep each run's accuracy peak.

    The comparison metric is the best test accuracy seen across epochs,
    which reads through late-training wobble from dropout and the
    shrinking learning rate.
    """
    result = SweepResult()
    height, width = train_images.shape[1:3]
    for filters in filter_counts:
        model = pm.build_model(filters, seed=init_seed, height=height, width=width)
        report = tr.fit(
            model, train_images, train_labels, test_images, test_labels, config
        )
        result.rows.append(
            SweepRow(
                filters=filters,
                params=pm.param_count(model),
                best_accuracy=report.best_accuracy,
                final_accuracy=report.final_accuracy,
            )
        )
    return result


@dataclass
class BenchReport:
    latencies_s: np.ndarray

    @property
    def p50_ms(self) -> float:
        return float(np.percentile(self.latencies_s, 50) * 1e3)

    @property
    def p90_ms(self) -> float:
        return float(np.percentile(self.latencies_s, 90) * 1e3)

    @property
    def p99_ms(self) -> float:
        return float(np.percentile(self.latencies_s, 99) * 1e3)

    @property
    def fps(self) -> float:
        return float(1.0 / np.mean(self.latencies_s))


def benchmark(
    predict_one, images: np.ndarray, warmup: int = 3, iters: int = 50
) -> BenchReport:
    """Time single-image predictions, cycling through the given images."""
    if warmup < 1:
        raise ValueError("need at least one warmup call")
    if iters < MIN_TIMED_ITERS:
        raise ValueError(f"need at least {MIN_TIMED_ITERS} timed iterations")
    if len(images) == 0:
        raise ValueError("no images to benchmark on")
    for i in range(warmup):
        predict_one(images[i % len(images)])
    latencies = np.empty(iters)
    for i in range(iters):
        image = images[i % len(images)]
        started = time.perf_counter()
        predict_one(image)
        latencies[i] = time.perf_counter() - started
    return BenchReport(latencies_s=latencies)


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over all points, with singleton clusters scoring 0."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.ndim != 2 or len(points) != len(labels):
        raise ValueError("points must be 2-d with one label per row")
    values = np.unique(labels)
    if len(values) < 2:
        raise ValueError("silhouette needs at least two clusters")
    diffs = points[:, None, :] - points[None, :, :]
    dists = np.sqrt((diffs**2).sum(-1))
    scores = np.zeros(len(points))
    for i in range(len(points)):
        same = labels == labels[i]
        n_same = same.sum()
        if n_same < 2:
            continue
        a = dists[i][same].sum() / (n_same - 1)
        b = min(
            dists[i][labels == other].mean() for other in values if other != labels[i]
        )
        scores[i] = (b - a) / max(a, b)
    return float(scores.mean())
