"""Linear one-vs-rest SVM over bag-of-words histograms, with fallbacks.

Margins are calibrated into probabilities by Platt scaling fitted on a
held-out slice of the training data. When the calibrated SVM is not
confident (small gap between its top two classes), its log-probability
is averaged with a Gaussian naive Bayes estimate over the same
histograms. Images with no detected keypoints short-circuit to the
catch-all class, because an empty histogram carries no evidence.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .. import NUM_CLASSES, OTHERS
from . import bow, filters
from .sift import DESCRIPTOR_SIZE, SiftConfig, detect_and_describe

MODEL_MAGIC = b"PBAS"
MODEL_VERSION = 1


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
    return float(
        np.sum(np.where(z >= 0, t * z + np.log1p(np.exp(-np.abs(z))),
                        (t - 1.0) * z + np.log1p(np.exp(-np.abs(z)))))
    )


def fit_platt(
    scores: np.ndarray, positive: np.ndarray, max_iter: int = 100
) -> tuple[float, float, list[float]]:
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
    for _ in range(max_iter):
        z = scores * a + b
        ez = np.exp(-np.abs(z))
        p = np.where(z >= 0, ez / (1.0 + ez), 1.0 / (1.0 + ez))
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
    scores = svm_scores(model, hist)
    raw = np.array(
        [platt_prob(scores[c], model.platt[c, 0], model.platt[c, 1]) for c in range(NUM_CLASSES)]
    )
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

    def __init__(
        self,
        model: BaselineModel,
        sift_config: SiftConfig | None = None,
        gap_threshold: float = 0.2,
    ):
        self.model = model
        self.sift_config = sift_config or SiftConfig()
        self.gap_threshold = gap_threshold

    def histogram(self, image: np.ndarray) -> tuple[np.ndarray, int]:
        """BoW histogram and the number of keypoints behind it."""
        prepared = filters.preprocess(image)
        _, descriptors = detect_and_describe(prepared, self.sift_config)
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
    svm_lambda: float = 1e-4
    svm_epochs: int = 50
    calibration_fraction: float = 0.25
    gap_threshold: float = 0.2
    seed: int = 0


def train_baseline(
    images: np.ndarray,
    labels: np.ndarray,
    config: BaselineTrainConfig | None = None,
    sift_config: SiftConfig | None = None,
    log=None,
) -> SiftBowClassifier:
    """Fit vocabulary, calibrated one-vs-rest SVM, and the NB fallback."""
    config = config or BaselineTrainConfig()
    sift_config = sift_config or SiftConfig()
    if len(images) != len(labels):
        raise ValueError("images and labels disagree in length")
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        raise ValueError("training needs at least 2 classes")

    per_image = []
    pool = []
    for i, image in enumerate(images):
        prepared = filters.preprocess(image)
        _, descriptors = detect_and_describe(prepared, sift_config)
        per_image.append(descriptors)
        if len(descriptors):
            pool.append(descriptors)
        if log is not None and (i + 1) % 100 == 0:
            log(f"described {i + 1}/{len(images)} images")
    if not pool:
        raise ValueError("no keypoints found anywhere in the training set")

    vocabulary = build_vocab_from_pool(np.concatenate(pool), config)
    if log is not None:
        log(f"vocabulary of {len(vocabulary)} words ready")
    hists = np.stack([bow.bow_histogram(d, vocabulary) for d in per_image])
    augmented = np.concatenate([hists, np.ones((len(hists), 1))], axis=1)
    labels = np.asarray(labels)

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(images))
    n_calib = max(1, int(round(config.calibration_fraction * len(images))))
    calib_idx = order[:n_calib]
    main_idx = order[n_calib:]

    svm_weights = np.zeros((NUM_CLASSES, augmented.shape[1]))
    platt = np.zeros((NUM_CLASSES, 2))
    for c in range(NUM_CLASSES):
        targets = np.where(labels == c, 1.0, -1.0)
        partial = train_linear_svm(
            augmented[main_idx],
            targets[main_idx],
            config.svm_lambda,
            config.svm_epochs,
            rng,
        )
        calib_scores = augmented[calib_idx] @ partial
        a, b, _ = fit_platt(calib_scores, labels[calib_idx] == c)
        platt[c] = (a, b)
        svm_weights[c] = train_linear_svm(
            augmented, targets, config.svm_lambda, config.svm_epochs, rng
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
    return SiftBowClassifier(model, sift_config, config.gap_threshold)


def build_vocab_from_pool(pool: np.ndarray, config: BaselineTrainConfig) -> np.ndarray:
    k = min(config.vocab_size, len(pool))
    return bow.build_vocabulary(pool, k=k, seed=config.seed)


def save_baseline(model: BaselineModel, path: str) -> None:
    """Little-endian float64 arrays behind a magic/version/size header."""
    meta_lines = [f"{k}={v}" for k, v in sorted(model.meta.items())]
    meta = "\n".join(meta_lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", MODEL_VERSION, model.vocab_size))
        for arr in _model_arrays(model.vocab_size):
            fh.write(np.ascontiguousarray(getattr(model, arr[0]), dtype="<f8").tobytes())
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)


def _model_arrays(k: int) -> list[tuple[str, tuple[int, ...]]]:
    return [
        ("vocabulary", (k, DESCRIPTOR_SIZE)),
        ("svm_weights", (NUM_CLASSES, k + 1)),
        ("platt", (NUM_CLASSES, 2)),
        ("nb_means", (NUM_CLASSES, k)),
        ("nb_vars", (NUM_CLASSES, k)),
        ("nb_log_priors", (NUM_CLASSES,)),
    ]


def _take(blob: bytes, offset: int, count: int, what: str) -> tuple[bytes, int]:
    if offset + count > len(blob):
        missing = offset + count - len(blob)
        raise BaselineTruncatedError(
            f"file truncated while reading {what}: {missing} bytes missing"
        )
    return blob[offset : offset + count], offset + count


def load_baseline(path: str) -> BaselineModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, offset = _take(blob, 0, 4, "magic")
    if magic != MODEL_MAGIC:
        raise BaselineMagicError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    header, offset = _take(blob, offset, 8, "header")
    version, k = struct.unpack("<II", header)
    if version != MODEL_VERSION:
        raise BaselineVersionError(
            f"unsupported model version {version}, expected {MODEL_VERSION}"
        )
    if k < 1 or k > 65536:
        raise BaselineFileError(f"implausible vocabulary size {k}")
    fields_ = {}
    for name, shape in _model_arrays(k):
        count = 8 * int(np.prod(shape))
        raw, offset = _take(blob, offset, count, name)
        array = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if not np.isfinite(array).all():
            raise BaselineFileError(f"{name} holds non-finite values")
        fields_[name] = array.copy()
    raw_len, offset = _take(blob, offset, 4, "metadata length")
    (meta_len,) = struct.unpack("<I", raw_len)
    raw_meta, offset = _take(blob, offset, meta_len, "metadata")
    if offset != len(blob):
        raise BaselineFileError(f"{len(blob) - offset} trailing bytes after metadata")
    try:
        text = raw_meta.decode("utf-8")
    except UnicodeDecodeError as err:
        raise BaselineFileError(f"metadata is not UTF-8: {err}") from None
    meta = {}
    for line in text.splitlines():
        if line:
            key, _, value = line.partition("=")
            meta[key] = value
    return BaselineModel(meta=meta, **fields_)
