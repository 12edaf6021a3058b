"""The four workloads: train, infer, dataset and baseline.

Each is a closed loop with one caller: it sets up once, then repeats
`cycle` until the run's seconds are spent. Every timed call goes
through `Ops.measure`, which counts it as attempted, times it, runs its
correctness check and counts it as failed when it raised or the check
found a problem. Inputs come only from the workload seed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from parasnet import CLASS_NAMES, cli, evaluation, pgmio, synth, training, tsne
from parasnet import model as pm
from parasnet.baseline import classify

FILTERS = 8
TRAIN_BATCH = 8

# Input sizes. "full" is what the benchmark measures; "tiny" only checks
# that every workload runs and reports (the smoke test uses it).
SIZES = {
    "full": {
        "train": {"train_per_class": 32, "test_per_class": 4},
        "infer": {"test_per_class": 100, "bench_images": 16, "predict_one_calls": 160,
                  "perplexity": 30.0, "tsne_iters": 1000},
        "dataset": {"train_per_class": 60, "test_per_class": 20},
        "baseline": {"train_per_class": 10, "test_per_class": 40},
    },
    "tiny": {
        "train": {"train_per_class": 3, "test_per_class": 1},
        "infer": {"test_per_class": 4, "bench_images": 4, "predict_one_calls": 8,
                  "perplexity": 3.0, "tsne_iters": 20},
        "dataset": {"train_per_class": 2, "test_per_class": 1},
        "baseline": {"train_per_class": 4, "test_per_class": 1},
    },
}


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


class Ops:
    """Attempted and failed operation counts plus the failure reasons."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, name: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{name}: {why}")

    def measure(self, name: str, fn, *args, check=None):
        """Time fn(*args) as one operation.

        Returns (result, seconds); seconds is None when the call raised.
        check(result) returns None when the result is right, otherwise a
        reason; it runs untimed and untraced.
        """
        self.attempted += 1
        with self.tracer.op(name):
            started = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as err:  # a failed operation, not a failed run
                traceback.print_exc(file=sys.stderr)
                self._fail(name, repr(err))
                return None, None
            seconds = time.perf_counter() - started
        if check is not None:
            with self.tracer.paused():
                problem = check(result)
            if problem:
                self._fail(name, problem)
        return result, seconds


def _spread(n: int, k: int) -> np.ndarray:
    """k indices spread evenly over range(n), so every class is present."""
    return np.linspace(0, n - 1, min(k, n)).round().astype(int)


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: dict, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, ops: Ops) -> None:
        raise NotImplementedError

    def throughput(self) -> float:
        """Images per second through the workload's main call."""
        raise NotImplementedError

    def latency_ms(self) -> float:
        """Median ms of the workload's per-item call."""
        raise NotImplementedError

    def named(self) -> dict:
        """The workload's own metrics: {name: (value, unit, samples)}."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget timings, e.g. between the untraced and traced halves."""
        raise NotImplementedError


class Train(Workload):
    """One `fit` epoch per operation, from the same seeded model each time."""

    name = "train"

    def setup(self):
        cfg = synth.GenConfig()
        s = self.sizes
        train = synth.gen_dataset(cfg, self.seed, "train", s["train_per_class"])
        test = synth.gen_dataset(cfg, self.seed, "test", s["test_per_class"])
        self.data = (train.images, train.labels, test.images, test.labels)
        self.model = pm.build_model(FILTERS, seed=self.seed)
        fixed = _spread(len(train.images), TRAIN_BATCH)
        targets = np.eye(pm.NUM_CLASSES, dtype=train.images.dtype)[train.labels[fixed]]
        self.fixed = (train.images[fixed], targets)
        self.steps = -(-len(train.images) // TRAIN_BATCH)
        self.reset()

    def reset(self):
        self.epoch_s: list[float] = []

    def _fixed_loss(self, net) -> float:
        probs, _ = pm.forward_batch(net, self.fixed[0])
        return training.bce_loss_batch(probs, self.fixed[1])[0]

    def _descent_problem(self, net):
        """None when one Adam step on the fixed batch lowers its loss.

        The step runs without augmentation or dropout, so it is
        deterministic; it moves the loss by about 1e-2. Comparing the
        loss before and after the whole epoch instead is not a sound
        check: a fresh model starts on the plateau of uniform outputs,
        and twelve noisy steps raise the loss for some seeds.
        """
        x, targets = self.fixed
        before = self._fixed_loss(net)
        probs, _, cache = pm.forward_batch(
            net, x, mode="train", rng=np.random.default_rng(self.seed),
            dropout_rate=0.0, want_cache=True)
        _, d_probs = training.bce_loss_batch(probs, targets)
        params = pm.parameters(net)
        training.adam_step(params, pm.backward_batch(net, cache, d_probs),
                           training.AdamState.for_params(params))
        after = self._fixed_loss(net)
        if not after < before:
            return f"fixed-batch loss {after:.6f} not below {before:.6f} after a step on it"
        return None

    def cycle(self, ops):
        net = copy.deepcopy(self.model)
        config = training.TrainConfig(epochs=1, batch_size=TRAIN_BATCH, seed=self.seed)

        def check(report):
            loss = report.history[0].train_loss
            if not np.isfinite(loss):
                return f"non-finite epoch loss {loss}"
            trained = pm.parameters(net)
            if not all(np.isfinite(p).all() for p in trained):
                return "non-finite parameters after the epoch"
            if all(np.array_equal(p, q) for p, q in zip(trained, pm.parameters(self.model))):
                return "the epoch left every parameter unchanged"
            return self._descent_problem(net)

        _, seconds = ops.measure("train.fit_epoch", training.fit, net, *self.data, config,
                                 check=check)
        if seconds is not None:
            self.epoch_s.append(seconds)

    def throughput(self):
        return median([len(self.data[0]) / s for s in self.epoch_s])

    def latency_ms(self):
        return median([s * 1e3 / self.steps for s in self.epoch_s])

    def named(self):
        n = len(self.epoch_s)
        return {
            "train_images_per_s": (self.throughput(), "1/s", n),
            "train_step_ms_p50": (self.latency_ms(), "ms", n),
        }


class _LabelRecorder:
    """Passes predict_batch through and keeps the labels it returned."""

    def __init__(self, inner):
        self.inner = inner
        self.labels = None

    def predict_batch(self, images):
        self.labels = self.inner.predict_batch(images)
        return self.labels


class Infer(Workload):
    """evaluate, then single-image predict_one, then hidden_features + t-SNE."""

    name = "infer"

    def setup(self):
        s = self.sizes
        test = synth.gen_dataset(synth.GenConfig(), self.seed, "test", s["test_per_class"])
        self.images, self.labels = test.images, test.labels
        path = os.path.join(self.workdir, "model.pnet")
        pm.save_checkpoint(pm.build_model(FILTERS, seed=self.seed), path)
        self.net = pm.load_checkpoint(path)
        self.clf = evaluation.CnnClassifier(self.net)
        self.bench = _spread(len(self.images), s["bench_images"])
        # the warm-up `parasnet bench` does before timing
        for i in self.bench[:3]:
            self.clf.predict_one(self.images[i])
        self.reset()

    def reset(self):
        self.eval_s: list[float] = []
        self.one_s: list[float] = []
        self.embed_s: list[float] = []

    def _embed(self):
        features = evaluation.hidden_features(self.net, self.images)
        config = tsne.TsneConfig(perplexity=self.sizes["perplexity"],
                                 iterations=self.sizes["tsne_iters"], seed=0)
        return tsne.tsne(features, config)

    def _check_eval(self, matrix, recorder):
        if recorder.labels is None or len(recorder.labels) != len(self.images):
            return "predict_batch returned the wrong number of labels"
        if int(matrix.counts.sum()) != len(self.images):
            return "confusion matrix does not count every image"
        probs, _ = pm.forward_batch(self.net, self.images[self.bench[:8]])
        if not np.isfinite(probs).all():
            return "non-finite probabilities"
        if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-5):
            return "probability rows do not sum to 1"
        return None

    def cycle(self, ops):
        recorder = _LabelRecorder(self.clf)
        _, seconds = ops.measure(
            "infer.evaluate", evaluation.evaluate, recorder, self.images, self.labels,
            check=lambda m: self._check_eval(m, recorder),
        )
        if seconds is not None:
            self.eval_s.append(seconds)
        # predict_one calls go on both sides of the embedding, so their
        # samples spread over the cycle instead of sitting in one burst
        calls = self.sizes["predict_one_calls"]
        self._predict_ones(ops, recorder.labels, range(calls // 2))

        def check_embedding(y):
            if y.shape != (len(self.images), 2) or not np.isfinite(y).all():
                return f"bad embedding of shape {y.shape}"
            return None

        _, seconds = ops.measure("infer.embed", self._embed, check=check_embedding)
        if seconds is not None:
            self.embed_s.append(seconds)
        self._predict_ones(ops, recorder.labels, range(calls // 2, calls))

    def _predict_ones(self, ops, batch_labels, calls):
        for k in calls:
            i = self.bench[k % len(self.bench)]

            def check(label, i=i):
                expected = None if batch_labels is None else batch_labels[i]
                if label != expected:
                    return f"image {i}: predict_one gave {label}, predict_batch {expected}"
                return None

            _, seconds = ops.measure("infer.predict_one", self.clf.predict_one,
                                     self.images[i], check=check)
            if seconds is not None:
                self.one_s.append(seconds)

    def throughput(self):
        return median([len(self.images) / s for s in self.eval_s])

    def latency_ms(self):
        return median(self.one_s) * 1e3

    def named(self):
        ms = [s * 1e3 for s in self.one_s]
        return {
            "infer_latency_ms_p50": (median(ms), "ms", len(ms)),
            "infer_latency_ms_p99": (percentile(ms, 99), "ms", len(ms)),
            "eval_images_per_s": (self.throughput(), "1/s", len(self.eval_s)),
            "embed_s": (median(self.embed_s), "s", len(self.embed_s)),
        }


class Dataset(Workload):
    """`parasnet gen` into a directory, then read_dataset on both splits."""

    name = "dataset"

    def setup(self):
        # fills the generator's lazy caches before anything is timed
        warm = os.path.join(self.workdir, "warm")
        self._gen(warm, 10, 4)
        for split in ("train", "test"):
            pgmio.read_dataset(os.path.join(warm, split))
        shutil.rmtree(warm)
        self.count = 0
        self.reset()

    def reset(self):
        self.gen_rates: list[float] = []
        self.load_rates: list[float] = []

    def _gen(self, out: str, train: int, test: int) -> int:
        argv = ["gen", "--out", out, "--seed", str(self.seed),
                "--train", str(train), "--test", str(test)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _per_class(self, split):
        return self.sizes[f"{split}_per_class"]

    def _check_gen(self, code, out):
        if code != 0:
            return f"gen exited with {code}"
        for split in ("train", "test"):
            manifest = pgmio.read_manifest(os.path.join(out, split))
            want = {name: self._per_class(split) for name in CLASS_NAMES}
            if manifest["counts"] != want or manifest["master_seed"] != self.seed:
                return f"{split} manifest {manifest['counts']} does not match {want}"
        return None

    def _check_read(self, result, split):
        images, labels = result
        n = self._per_class(split)
        if len(images) != 3 * n or list(np.bincount(labels, minlength=3)) != [n] * 3:
            return f"{split}: read {len(images)} images, expected {n} per class"
        rng = np.random.default_rng([self.seed, synth.SPLIT_CODES[split]])
        cfg = synth.GenConfig()
        for k in {0, len(images) - 1, int(rng.integers(len(images)))}:
            label, index = int(labels[k]), k - int(labels[k]) * n
            expected = np.rint(synth.gen_sample(label, index, cfg, self.seed, split) * 255.0)
            if not np.array_equal(images[k], expected / 255.0):
                return f"{split} image {k}: pixels differ from the generator's"
        return None

    def cycle(self, ops):
        out = os.path.join(self.workdir, f"ds{self.count}")
        self.count += 1
        s = self.sizes
        total = 3 * (s["train_per_class"] + s["test_per_class"])
        _, seconds = ops.measure(
            "dataset.gen", self._gen, out, s["train_per_class"], s["test_per_class"],
            check=lambda code: self._check_gen(code, out),
        )
        if seconds is not None:
            self.gen_rates.append(total / seconds)
        for split in ("train", "test"):
            result, seconds = ops.measure(
                "dataset.read", pgmio.read_dataset, os.path.join(out, split),
                check=lambda r, split=split: self._check_read(r, split),
            )
            if seconds is not None:
                self.load_rates.append(len(result[0]) / seconds)
            del result
        shutil.rmtree(out, ignore_errors=True)

    def throughput(self):
        return median(self.gen_rates)

    def latency_ms(self):
        return 1e3 / median(self.load_rates)

    def named(self):
        return {
            "gen_images_per_s": (median(self.gen_rates), "1/s", len(self.gen_rates)),
            "load_images_per_s": (median(self.load_rates), "1/s", len(self.load_rates)),
        }


class Baseline(Workload):
    """SiftBowClassifier.predict_one over a seeded test set."""

    name = "baseline"

    def setup(self):
        cfg = synth.GenConfig()
        s = self.sizes
        train = synth.gen_dataset(cfg, self.seed, "train", s["train_per_class"])
        self.images = synth.gen_dataset(cfg, self.seed, "test", s["test_per_class"]).images
        fitted = classify.train_baseline(
            train.images, train.labels, classify.BaselineTrainConfig(seed=self.seed))
        fitted.model.meta = {"gap_threshold": str(fitted.gap_threshold)}
        path = os.path.join(self.workdir, "baseline.pbas")
        classify.save_baseline(fitted.model, path)
        model = classify.load_baseline(path)
        self.clf = classify.SiftBowClassifier(
            model, gap_threshold=float(model.meta.get("gap_threshold", 0.2)))
        for image in self.images[:3]:
            self.clf.predict_one(image)
        self.reset()

    def reset(self):
        self.one_s: list[float] = []

    def cycle(self, ops):
        def check(label):
            return None if 0 <= label < 3 else f"label {label} outside [0, 3)"

        for image in self.images:
            _, seconds = ops.measure("baseline.predict_one", self.clf.predict_one, image,
                                     check=check)
            if seconds is not None:
                self.one_s.append(seconds)

    def throughput(self):
        return len(self.one_s) / sum(self.one_s) if self.one_s else float("nan")

    def latency_ms(self):
        return median(self.one_s) * 1e3

    def named(self):
        ms = [s * 1e3 for s in self.one_s]
        return {
            "baseline_latency_ms_p50": (median(ms), "ms", len(ms)),
            "baseline_latency_ms_p90": (percentile(ms, 90), "ms", len(ms)),
        }


WORKLOADS = {w.name: w for w in (Train, Infer, Dataset, Baseline)}
