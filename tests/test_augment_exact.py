"""augment and its median fill are bit-identical to their plain forms.

parasnet.training.augment gathers from the flattened image and selects
the median from a bracket; tests/augment_ref.py indexes in 2-d and calls
np.median. These properties check that both give the same bytes and
dtype, so a seeded training run does not depend on which one ran.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parasnet import model as pm
from parasnet import training as tr

import augment_ref

FAST = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class Scripted:
    """Stands in for a Generator: hands augment chosen draws in the
    order it makes them (two integers, two randoms, two uniforms)."""

    def __init__(self, dy, dx, flips, angle, zoom):
        self.ints = [dy, dx]
        self.randoms = [0.0 if f else 1.0 for f in flips]
        self.uniforms = [angle, zoom]

    def integers(self, low, high):
        return min(max(self.ints.pop(0), low), high - 1)

    def random(self):
        return self.randoms.pop(0)

    def uniform(self, low, high):
        return self.uniforms.pop(0)


def _image(data, h, w, dtype):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    if data.draw(st.booleans()):
        values = rng.random((h, w))
    else:
        # a small pool of values gives ties around the median
        pool = data.draw(st.lists(st.floats(0.0, 1.0, width=32), min_size=1, max_size=6))
        values = rng.choice(pool, size=(h, w))
    image = values.astype(dtype)[:, :, None]
    view = data.draw(st.sampled_from(["contiguous", "rows", "cols", "both"]))
    if view == "rows":
        image = image[::-1]
    elif view == "cols":
        image = image[:, ::-1]
    elif view == "both":
        image = image[::-1, ::-1]
    return image


@FAST
@given(data=st.data())
def test_augment_matches_reference_bit_for_bit(data):
    h = data.draw(st.integers(2, 41), label="h")
    w = data.draw(st.integers(2, 41), label="w")
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    image = _image(data, h, w, dtype)
    flip_prob = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    flips = [data.draw(st.booleans()) if flip_prob == 0.5 else flip_prob == 1.0
             for _ in range(2)]
    angle = data.draw(st.one_of(
        st.sampled_from([0.0, 45.0, -45.0]), st.floats(-45.0, 45.0)))
    zoom = data.draw(st.one_of(st.just(1.0), st.floats(0.5, 2.0)))
    dy = data.draw(st.integers(-h, h))
    dx = data.draw(st.integers(-w, w))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tr, "MAX_SHIFT", 0.5)
        m.setattr(tr, "FLIP_PROB", flip_prob)
        got = tr.augment(image, Scripted(dy, dx, flips, angle, zoom))
        want = augment_ref.augment(image, Scripted(dy, dx, flips, angle, zoom))
    assert got.dtype == want.dtype == image.dtype
    assert got.shape == want.shape == image.shape
    assert got.tobytes() == want.tobytes()


@FAST
@given(seed=st.integers(0, 2**32 - 1), flip_prob=st.sampled_from([0.0, 0.5, 1.0]),
       rotate=st.sampled_from([0.0, 15.0, 45.0]),
       zoom=st.sampled_from([(1.0, 1.0), (0.9, 1.1), (0.5, 2.0)]),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_seeded_augment_matches_reference_and_draws_alike(seed, flip_prob, rotate, zoom, dtype):
    image = np.random.default_rng(seed).random((37, 50, 1)).astype(dtype)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tr, "FLIP_PROB", flip_prob)
        m.setattr(tr, "MAX_ROTATE_DEG", rotate)
        m.setattr(tr, "ZOOM_RANGE", zoom)
        got = tr.augment(image, rng)
        want = augment_ref.augment(image, ref_rng)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # both consumed the same draws
    assert rng.random() == ref_rng.random()


def test_full_size_images_match_reference():
    # large enough that the median comes from the bracket, not np.median
    rng = np.random.default_rng(3)
    for seed in range(12):
        image = rng.random((244, 324, 1), dtype=np.float32)
        got = tr.augment(image, np.random.default_rng(seed))
        want = augment_ref.augment(image, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1, a) == math.copysign(1, b)


SIZES = st.one_of(st.sampled_from([1, 2, 3, 4]), st.integers(5, 200),
                  st.sampled_from([4096, 8191, 8192, 40001, 79056]))


@FAST
@given(data=st.data())
def test_median_matches_numpy(data):
    n = data.draw(SIZES, label="n")
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    kind = data.draw(st.sampled_from(["uniform", "ties", "constant", "signed zeros", "striped"]))
    if kind == "uniform":
        x = rng.normal(size=n)
    elif kind == "ties":
        x = rng.integers(0, 5, size=n) / 4.0
    elif kind == "constant":
        x = np.full(n, data.draw(st.floats(-1e6, 1e6)))
    elif kind == "signed zeros":
        x = rng.choice([-0.0, 0.0, -1.0, 1.0], size=n)
    else:
        # the strided sample sees only large values, so the bracket misses
        x = rng.random(n)
        x[:: max(n // tr.MEDIAN_SAMPLE, 1)] += 10.0
    for value in data.draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), max_size=3)):
        x[rng.integers(0, n)] = value
    x = x.astype(dtype)
    if data.draw(st.booleans()):
        x = x[::-1]
    with np.errstate(invalid="ignore"):
        want = float(np.median(x))
        got = tr._median(x)
    assert _same_float(got, want), (got, want)


def test_median_of_ints_and_images():
    for x in (np.arange(10), np.arange(11), np.random.default_rng(0).random((244, 324))):
        assert tr._median(x) == float(np.median(x))


def test_fit_with_the_reference_augment_is_bit_identical(monkeypatch):
    rng = np.random.default_rng(21)
    images = rng.random((10, 94, 94, 1), dtype=np.float32)
    labels = np.arange(10) % 3
    config = tr.TrainConfig(epochs=2, batch_size=4, seed=4)

    def run():
        model = pm.build_model(1, seed=2, height=94, width=94)
        report = tr.fit(model, images[:7], labels[:7], images[7:], labels[7:], config)
        return [p.tobytes() for p in pm.parameters(model)], [
            (e.train_loss, e.test_accuracy) for e in report.history]

    plain = run()
    monkeypatch.setattr(tr, "augment", augment_ref.augment)
    assert run() == plain
