"""In-memory spans around the parasnet functions a workload calls.

`Tracer.install` replaces module attributes such as
`parasnet.batched.conv_forward` with wrappers. Code inside the package
looks those attributes up at call time, so it calls the wrappers and
nothing under src/ changes. `uninstall` puts the originals back.

A span records name, start, end, parent span, and the run id of the
benchmark operation that caused it. Spans stay in memory until the run
ends. A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from parasnet import CLASS_NAMES


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "child_s", "attrs")

    def __init__(self, id_, name, start, parent, run, attrs):
        self.id = id_
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.child_s = 0.0
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child_s

    def to_dict(self, t0: float) -> dict:
        out = {
            "id": self.id,
            "name": self.name,
            "start": self.start - t0,
            "end": self.end - t0,
            "parent": self.parent,
            "run": self.run,
        }
        out.update(self.attrs)
        return out


class Tracer:
    """Records spans while installed; otherwise `op` costs nothing."""

    def __init__(self):
        self.spans: list[Span] = []
        self.roots: dict[int, str] = {}
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()
        self._paused = 0

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def _open(self, name: str, attrs: dict) -> Span | None:
        if self._paused:
            return None
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            run = len(self.roots)
            self.roots[run] = name
        else:
            run = parent.run
        span = Span(
            len(self.spans), name, time.perf_counter(),
            parent.id if parent else None, run, attrs,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.seconds

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span for one benchmark operation; gives it a fresh run id."""
        span = self._open(name, {}) if self.installed else None
        try:
            yield
        finally:
            self._close(span)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans (used for correctness checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, module, attr: str, name: str, attrs_of=None, after=None):
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            span = tracer._open(name, attrs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None and span is not None:
                after(span, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def install(self) -> None:
        """Wrap every traced attribute of the package (idempotent)."""
        if self.installed:
            return
        from parasnet import batched, evaluation, pgmio, synth, training, tsne
        from parasnet import model as pm
        from parasnet.baseline import bow, classify, filters

        conv_layer, pool_layer = _layer_maps(pm)

        def conv_in(x, *_, **__):
            return {"layer": conv_layer.get(x.shape[1:3], 0), "batch": x.shape[0]}

        def conv_in_shape(x_shape, *_, **__):
            return {"layer": conv_layer.get(tuple(x_shape[1:3]), 0), "batch": x_shape[0]}

        def pool_in(x, *_, **__):
            return {"layer": pool_layer.get(x.shape[1:3], 0), "batch": x.shape[0]}

        def pool_in_shape(x_shape, *_, **__):
            return {"layer": pool_layer.get(tuple(x_shape[1:3]), 0), "batch": x_shape[0]}

        def batch_of(x, *_, **__):
            return {"batch": x.shape[0]}

        def forward_mode(model, x, mode="infer", *_, **__):
            return {"mode": mode, "batch": x.shape[0]}

        def sample_class(label, *_, **__):
            return {"class": CLASS_NAMES[label]}

        def keypoints(span, result):
            span.attrs["keypoints"] = len(result[1])

        w = self._wrap
        w(batched, "conv_forward", "batched.conv_forward", conv_in)
        w(batched, "conv_backward", "batched.conv_backward", conv_in_shape)
        w(batched, "maxpool_forward", "batched.maxpool_forward", pool_in)
        w(batched, "maxpool_infer", "batched.maxpool_infer", pool_in)
        w(batched, "maxpool_backward", "batched.maxpool_backward", pool_in_shape)
        w(batched, "dense_forward", "batched.dense_forward", batch_of)
        w(batched, "dense_backward", "batched.dense_backward", batch_of)
        w(pm, "forward_batch", "model.forward_batch", forward_mode)
        w(pm, "backward_batch", "model.backward_batch")
        w(pm, "load_checkpoint", "model.load_checkpoint")
        w(training, "augment", "training.augment")
        w(training, "bce_loss_batch", "training.bce_loss_batch")
        w(training, "adam_step", "training.adam_step")
        w(training, "predict_labels", "training.predict_labels")
        w(synth, "gen_sample", "synth.gen_sample", sample_class)
        w(pgmio, "write_pgm", "pgmio.write_pgm")
        w(pgmio, "read_pgm", "pgmio.read_pgm")
        w(pgmio, "read_dataset", "pgmio.read_dataset")
        w(evaluation, "hidden_features", "evaluation.hidden_features")
        w(tsne, "joint_probabilities", "tsne.joint_probabilities")
        w(tsne, "kl_gradient", "tsne.kl_gradient")
        w(filters, "preprocess", "baseline.filters.preprocess")
        w(classify, "detect_and_describe", "baseline.sift.detect_and_describe",
          after=keypoints)
        w(bow, "bow_histogram", "baseline.bow.bow_histogram")
        w(classify, "predict_proba_hist", "baseline.classify.predict_proba_hist")
        w(classify, "nb_log_posterior", "baseline.classify.nb_log_posterior")
        w(classify, "load_baseline", "baseline.classify.load_baseline")

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        """One JSON span per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(self._t0)) + "\n")

    def self_time_table(self) -> dict:
        """Calls, self ms and inclusive ms summed per span name."""
        table: dict = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "incl_ms": 0.0})
        for span in self.spans:
            row = table[span.name]
            row["calls"] += 1
            row["self_ms"] += span.self_seconds * 1e3
            row["incl_ms"] += span.seconds * 1e3
        return dict(sorted(table.items()))


def _layer_maps(pm) -> tuple[dict, dict]:
    """(h, w) of each conv input and each pool input -> layer number 1..5."""
    shapes = pm.layer_shapes(1)
    conv_inputs = [(pm.INPUT_HEIGHT, pm.INPUT_WIDTH)] + [s[:2] for s in shapes[1:9:2]]
    pool_inputs = [s[:2] for s in shapes[0:10:2]]
    return (
        {hw: i + 1 for i, hw in enumerate(conv_inputs)},
        {hw: i + 1 for i, hw in enumerate(pool_inputs)},
    )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, train_batch: int, eval_batch: int) -> dict:
    """The named per-layer metrics, as {name: (value, unit)}.

    Times are means per call in ms. `.self_ms` excludes traced children;
    `.ms` of a span with traced children is inclusive, and for a leaf the
    two agree. Spans made during set-up count only toward the set-up
    layers (checkpoint and baseline loading, sample generation). A layer
    the workload never calls reads 0.
    """
    measured = [s for s in tracer.spans if tracer.roots[s.run] != "setup"]
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in measured:
        by_name[span.name].append(span)
    every: dict[str, list[Span]] = defaultdict(list)
    for span in tracer.spans:
        every[span.name].append(span)

    def ms(spans, self_time=True):
        return _mean((s.self_seconds if self_time else s.seconds) * 1e3 for s in spans)

    out: dict = {}
    for kernel in ("conv_forward", "conv_backward", "maxpool_forward", "maxpool_backward"):
        spans = by_name["batched." + kernel]
        for layer in range(1, 6):
            picked = [s for s in spans
                      if s.attrs["layer"] == layer and s.attrs["batch"] == train_batch]
            out[f"batched.{kernel}.l{layer}.ms"] = (ms(picked), "ms")
    for kernel in ("conv_forward", "maxpool_infer"):
        spans = by_name["batched." + kernel]
        for layer in range(1, 6):
            for tag, batch in (("b1", 1), ("bN", eval_batch)):
                picked = [s for s in spans
                          if s.attrs["layer"] == layer and s.attrs["batch"] == batch]
                out[f"batched.{kernel}.l{layer}.ms_per_image.{tag}"] = (
                    ms(picked) / batch, "ms")
    out["batched.dense_forward.ms"] = (ms(by_name["batched.dense_forward"]), "ms")
    out["batched.dense_backward.ms"] = (ms(by_name["batched.dense_backward"]), "ms")

    train_fwd = [s for s in by_name["model.forward_batch"] if s.attrs["mode"] == "train"]
    out["model.forward_batch.train.ms"] = (ms(train_fwd, self_time=False), "ms")
    out["model.forward_batch.train.self_ms"] = (ms(train_fwd), "ms")
    out["model.backward_batch.ms"] = (ms(by_name["model.backward_batch"], False), "ms")
    out["model.backward_batch.self_ms"] = (ms(by_name["model.backward_batch"]), "ms")
    for name in ("augment", "bce_loss_batch", "adam_step", "predict_labels"):
        out[f"training.{name}.ms"] = (ms(by_name["training." + name], False), "ms")

    for cls in CLASS_NAMES:
        picked = [s for s in every["synth.gen_sample"] if s.attrs["class"] == cls]
        out[f"synth.gen_sample.{cls}.ms"] = (ms(picked), "ms")
    out["pgmio.write_pgm.ms"] = (ms(by_name["pgmio.write_pgm"]), "ms")
    out["pgmio.read_pgm.ms"] = (ms(by_name["pgmio.read_pgm"]), "ms")
    out["pgmio.read_dataset.self_ms"] = (ms(by_name["pgmio.read_dataset"]), "ms")

    out["evaluation.hidden_features.ms"] = (
        ms(by_name["evaluation.hidden_features"], False), "ms")
    out["tsne.joint_probabilities.ms"] = (ms(by_name["tsne.joint_probabilities"]), "ms")
    out["tsne.kl_gradient.ms"] = (ms(by_name["tsne.kl_gradient"]), "ms")

    detect = by_name["baseline.sift.detect_and_describe"]
    proba = by_name["baseline.classify.predict_proba_hist"]
    out["baseline.filters.preprocess.ms"] = (ms(by_name["baseline.filters.preprocess"]), "ms")
    out["baseline.sift.detect_and_describe.ms"] = (ms(detect), "ms")
    out["baseline.sift.keypoints_per_image"] = (
        _mean(s.attrs["keypoints"] for s in detect), "count")
    out["baseline.bow.bow_histogram.ms"] = (ms(by_name["baseline.bow.bow_histogram"]), "ms")
    out["baseline.classify.predict_proba_hist.ms"] = (ms(proba, False), "ms")
    nb_calls = len(by_name["baseline.classify.nb_log_posterior"])
    out["baseline.classify.nb_fallback_share"] = (
        nb_calls / len(proba) if proba else 0.0, "share")
    no_kp = sum(1 for s in detect if s.attrs["keypoints"] == 0)
    out["baseline.classify.no_keypoint_share"] = (
        no_kp / len(detect) if detect else 0.0, "share")

    out["model.load_checkpoint.ms"] = (ms(every["model.load_checkpoint"]), "ms")
    out["baseline.classify.load_baseline.ms"] = (
        ms(every["baseline.classify.load_baseline"]), "ms")
    return out
