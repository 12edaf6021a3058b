"""Linear one-vs-rest SVM over bag-of-words histograms, with fallbacks.

Margins are calibrated into probabilities by Platt scaling fitted on a
held-out slice of the training data. When the calibrated SVM is not
confident (small gap between its top two classes), its log-probability
is averaged with a Gaussian naive Bayes estimate over the same
histograms. Images with no detected keypoints short-circuit to the
catch-all class, because an empty histogram carries no evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import NUM_CLASSES, OTHERS, container
from . import bow, filters
from .sift import DESCRIPTOR_SIZE, detect_and_describe

MODEL_MAGIC = b"PBAS"
MODEL_VERSION = 1
SVM_LAMBDA = 1e-4
# share of the training images held out to fit the Platt calibration
CALIBRATION_FRACTION = 0.25
PLATT_STEPS = 100


class BaselineFileError(Exception):
    """Base class for unreadable baseline model files."""


class BaselineMagicError(BaselineFileError):
    pass


class BaselineVersionError(BaselineFileError):
    pass


class BaselineTruncatedError(BaselineFileError):
    pass


def train_linear_svm(
    features: np.ndarray,
    targets: np.ndarray,
    lam: float,
    epochs: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Subgradient descent on the regularized hinge loss.

    features must already carry the trailing bias column; targets are
    +1/-1. The step size 1/(lam * t) follows the usual schedule.
    """
    n, d = features.shape
    w = np.zeros(d)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            hinge_active = targets[i] * float(w @ features[i]) < 1.0
            w *= 1.0 - eta * lam
            if hinge_active:
                w += (eta * targets[i]) * features[i]
    return w


def _platt_objective(scores, t, a, b):
    z = scores * a + b
    soft = np.log1p(np.exp(-np.abs(z)))
    return float(np.sum(np.where(z >= 0, t * z + soft, (t - 1.0) * z + soft)))


def fit_platt(scores: np.ndarray, positive: np.ndarray) -> tuple[float, float, list[float]]:
    """Damped Newton fit of p(y=1|s) = 1 / (1 + exp(A s + B)).

    Targets are the smoothed frequencies rather than hard 0/1, which
    keeps the fit sane for tiny calibration sets. Returns (A, B,
    objective history); the history never increases.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n1 = int(positive.sum())
    n0 = len(scores) - n1
    hi = (n1 + 1.0) / (n1 + 2.0)
    lo = 1.0 / (n0 + 2.0)
    t = np.where(positive, hi, lo)
    a, b = 0.0, float(np.log((n0 + 1.0) / (n1 + 1.0)))
    value = _platt_objective(scores, t, a, b)
    history = [value]
    sigma = 1e-12
    for _ in range(PLATT_STEPS):
        p = platt_prob(scores, a, b)
        q = 1.0 - p
        d2 = p * q
        h11 = sigma + float(np.sum(scores * scores * d2))
        h22 = sigma + float(np.sum(d2))
        h21 = float(np.sum(scores * d2))
        d1 = t - p
        g1 = float(np.sum(scores * d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            break
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db
        stepsize = 1.0
        while stepsize >= 1e-10:
            na, nb = a + stepsize * da, b + stepsize * db
            nv = _platt_objective(scores, t, na, nb)
            if nv < value + 1e-4 * stepsize * gd:
                a, b, value = na, nb, nv
                history.append(value)
                break
            stepsize /= 2.0
        else:
            break
    return a, b, history


def platt_prob(score, a: float, b: float):
    z = np.asarray(score, dtype=np.float64) * a + b
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, ez / (1.0 + ez), 1.0 / (1.0 + ez))


def fit_gaussian_nb(
    features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class feature means, smoothed variances, and log priors."""
    n, d = features.shape
    means = np.zeros((NUM_CLASSES, d))
    variances = np.zeros((NUM_CLASSES, d))
    priors = np.zeros(NUM_CLASSES)
    smoothing = 1e-9 + 1e-6 * float(features.var(axis=0).mean())
    for c in range(NUM_CLASSES):
        members = features[labels == c]
        if len(members) == 0:
            raise ValueError(f"class {c} has no training examples")
        means[c] = members.mean(axis=0)
        variances[c] = members.var(axis=0) + smoothing
        priors[c] = len(members) / n
    return means, variances, np.log(priors)


def nb_log_posterior(
    means: np.ndarray, variances: np.ndarray, log_priors: np.ndarray, hist: np.ndarray
) -> np.ndarray:
    diff = hist[None, :] - means
    ll = -0.5 * np.sum(np.log(2 * np.pi * variances) + diff * diff / variances, axis=1)
    logp = log_priors + ll
    return logp - _logsumexp(logp)


def _logsumexp(v: np.ndarray) -> float:
    m = float(v.max())
    return m + float(np.log(np.sum(np.exp(v - m))))


@dataclass
class BaselineModel:
    vocabulary: np.ndarray
    svm_weights: np.ndarray
    platt: np.ndarray
    nb_means: np.ndarray
    nb_vars: np.ndarray
    nb_log_priors: np.ndarray
    meta: dict[str, str] = field(default_factory=dict)

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)


def svm_scores(model: BaselineModel, hist: np.ndarray) -> np.ndarray:
    augmented = np.concatenate([hist, [1.0]])
    return model.svm_weights @ augmented


def predict_proba_hist(
    model: BaselineModel, hist: np.ndarray, gap_threshold: float = 0.2
) -> np.ndarray:
    raw = platt_prob(svm_scores(model, hist), model.platt[:, 0], model.platt[:, 1])
    total = raw.sum()
    p_svm = raw / total if total > 0 else np.full(NUM_CLASSES, 1.0 / NUM_CLASSES)
    top, second = np.sort(p_svm)[::-1][:2]
    if top - second >= gap_threshold:
        return p_svm
    log_nb = nb_log_posterior(model.nb_means, model.nb_vars, model.nb_log_priors, hist)
    mixed = 0.5 * (np.log(np.maximum(p_svm, 1e-300)) + log_nb)
    mixed -= _logsumexp(mixed)
    return np.exp(mixed)


class SiftBowClassifier:
    """Full image-to-label pipeline around a trained BaselineModel."""

    def __init__(self, model: BaselineModel, gap_threshold: float = 0.2):
        self.model = model
        self.gap_threshold = gap_threshold

    def histogram(self, image: np.ndarray) -> tuple[np.ndarray, int]:
        """BoW histogram and the number of keypoints behind it."""
        prepared = filters.preprocess(image)
        _, descriptors = detect_and_describe(prepared)
        return bow.bow_histogram(descriptors, self.model.vocabulary), len(descriptors)

    def predict_proba_one(self, image: np.ndarray) -> np.ndarray:
        hist, n_keypoints = self.histogram(image)
        if n_keypoints == 0:
            probs = np.zeros(NUM_CLASSES)
            probs[OTHERS] = 1.0
            return probs
        return predict_proba_hist(self.model, hist, self.gap_threshold)

    def predict_one(self, image: np.ndarray) -> int:
        return int(np.argmax(self.predict_proba_one(image)))

    def predict_batch(self, images: np.ndarray) -> np.ndarray:
        return np.array([self.predict_one(img) for img in images], dtype=np.int64)


@dataclass
class BaselineTrainConfig:
    vocab_size: int = 64
    svm_epochs: int = 50
    seed: int = 0


def train_baseline(
    images: np.ndarray,
    labels: np.ndarray,
    config: BaselineTrainConfig | None = None,
    log=None,
) -> SiftBowClassifier:
    """Fit vocabulary, calibrated one-vs-rest SVM, and the NB fallback."""
    config = config or BaselineTrainConfig()
    if len(images) != len(labels):
        raise ValueError("images and labels disagree in length")
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        raise ValueError("training needs at least 2 classes")

    per_image = []
    pool = []
    for i, image in enumerate(images):
        prepared = filters.preprocess(image)
        _, descriptors = detect_and_describe(prepared)
        per_image.append(descriptors)
        if len(descriptors):
            pool.append(descriptors)
        if log is not None and (i + 1) % 100 == 0:
            log(f"described {i + 1}/{len(images)} images")
    if not pool:
        raise ValueError("no keypoints found anywhere in the training set")

    pooled = np.concatenate(pool)
    vocabulary = bow.build_vocabulary(
        pooled, k=min(config.vocab_size, len(pooled)), seed=config.seed
    )
    if log is not None:
        log(f"vocabulary of {len(vocabulary)} words ready")
    hists = np.stack([bow.bow_histogram(d, vocabulary) for d in per_image])
    augmented = np.concatenate([hists, np.ones((len(hists), 1))], axis=1)
    labels = np.asarray(labels)

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(images))
    n_calib = max(1, int(round(CALIBRATION_FRACTION * len(images))))
    calib_idx = order[:n_calib]
    main_idx = order[n_calib:]

    svm_weights = np.zeros((NUM_CLASSES, augmented.shape[1]))
    platt = np.zeros((NUM_CLASSES, 2))
    for c in range(NUM_CLASSES):
        targets = np.where(labels == c, 1.0, -1.0)
        partial = train_linear_svm(
            augmented[main_idx],
            targets[main_idx],
            SVM_LAMBDA,
            config.svm_epochs,
            rng,
        )
        calib_scores = augmented[calib_idx] @ partial
        a, b, _ = fit_platt(calib_scores, labels[calib_idx] == c)
        platt[c] = (a, b)
        svm_weights[c] = train_linear_svm(
            augmented, targets, SVM_LAMBDA, config.svm_epochs, rng
        )
        if log is not None:
            log(f"class {c}: svm and calibration fitted")

    means, variances, log_priors = fit_gaussian_nb(hists, labels)
    model = BaselineModel(
        vocabulary=vocabulary,
        svm_weights=svm_weights,
        platt=platt,
        nb_means=means,
        nb_vars=variances,
        nb_log_priors=log_priors,
    )
    return SiftBowClassifier(model)


def save_baseline(model: BaselineModel, path: str) -> None:
    """Write the model as a container (see container.py): the count is
    the vocabulary size, the arrays float64, the metadata in key order."""
    arrays = [getattr(model, name) for name, _ in _model_arrays(model.vocab_size)]
    container.write(
        path, MODEL_MAGIC, MODEL_VERSION, model.vocab_size, arrays, "<f8",
        sorted(model.meta.items()),
    )


def _model_arrays(k: int) -> list[tuple[str, tuple[int, ...]]]:
    return [
        ("vocabulary", (k, DESCRIPTOR_SIZE)),
        ("svm_weights", (NUM_CLASSES, k + 1)),
        ("platt", (NUM_CLASSES, 2)),
        ("nb_means", (NUM_CLASSES, k)),
        ("nb_vars", (NUM_CLASSES, k)),
        ("nb_log_priors", (NUM_CLASSES,)),
    ]


def load_baseline(path: str) -> BaselineModel:
    _, arrays, meta = container.read(
        path, MODEL_MAGIC, MODEL_VERSION, "vocabulary size", _model_arrays, "<f8",
        (BaselineFileError, BaselineMagicError, BaselineVersionError, BaselineTruncatedError),
    )
    return BaselineModel(meta=meta, **arrays)
