"""The baseline's reused SIFT buffers and its forked batch passes:
descriptors drawn through one set of buffers match fresh ones whatever
the order of image sizes, a warm predict_one maps almost no fresh pages,
and train_baseline and predict_batch give the same bytes on one usable
CPU as on two."""

import os
import resource

import numpy as np
import pytest

from forking import needs_fork, no_children, rerun_single_threaded
from parasnet import NUM_CLASSES, shards, synth
from parasnet.baseline import classify
from parasnet.baseline.sift import DESCRIPTOR_SIZE


def _images():
    """Two synthetic images at the default size and two crops of other
    sizes, interleaved."""
    config = synth.GenConfig()
    full = [synth.gen_sample(label, 0, config, 11, "test") for label in range(2)]
    return [full[0], full[1][:200, :260], full[1], full[0][20:220, 30:290]]


def _model(k=8):
    rng = np.random.default_rng(4)
    return classify.BaselineModel(
        vocabulary=rng.random((k, DESCRIPTOR_SIZE)),
        svm_weights=rng.normal(0, 1, (NUM_CLASSES, k + 1)),
        platt=np.tile([-2.0, 0.0], (NUM_CLASSES, 1)),
        nb_means=rng.random((NUM_CLASSES, k)),
        nb_vars=np.full((NUM_CLASSES, k), 0.1),
        nb_log_priors=np.log(np.full(NUM_CLASSES, 1.0 / NUM_CLASSES)),
    )


@pytest.mark.parametrize("order", [[0, 1, 2, 3, 0, 1], [3, 2, 1, 0, 3, 2]])
def test_reused_buffers_give_the_fresh_descriptors(order):
    images = _images()
    fresh = [classify.describe(image).tobytes() for image in images]
    assert any(fresh)
    buffers: dict = {}
    for k in order:
        assert classify.describe(images[k], buffers).tobytes() == fresh[k]
    # one pyramid per size, of three octaves each
    assert len([key for key in buffers if key[0] == "octave"]) == 2 * 3
    # a second pass over both sizes makes no array
    held = dict(buffers)
    for k in order:
        assert classify.describe(images[k], buffers).tobytes() == fresh[k]
    assert buffers.keys() == held.keys()
    assert all(buffers[key] is array for key, array in held.items())


def test_a_warm_predict_one_maps_almost_no_fresh_pages():
    clf = classify.SiftBowClassifier(_model())
    config = synth.GenConfig()
    images = [synth.gen_sample(k % NUM_CLASSES, k, config, 12, "test") for k in range(6)]
    for image in images[:2]:
        clf.predict_one(image)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for image in images[2:]:
        clf.predict_one(image)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4
    # a fresh pyramid, DoG stack and blur temporaries would take about
    # 2,200 faults an image at this size
    assert faults < 100, faults


def _fit_and_predict(tmp_path, tag):
    config = synth.GenConfig()
    train = synth.gen_dataset(config, 5, "train", 3)
    test = synth.gen_dataset(config, 5, "test", 2)
    clf = classify.train_baseline(
        train.images, train.labels, classify.BaselineTrainConfig(vocab_size=16, svm_epochs=10)
    )
    path = tmp_path / f"{tag}.pbas"
    classify.save_baseline(clf.model, str(path))
    return path.read_bytes(), clf.predict_batch(test.images)


def test_progress_lines_come_from_the_first_range_alone(monkeypatch):
    # map_ranges runs the range that starts at 0 in the calling process
    monkeypatch.setattr(classify, "describe", lambda image, buffers=None: np.ones((1, 128)))
    lines = []
    images = np.zeros((400, 8, 8))
    classify._describe_range(images, lines.append, 0, 200)
    assert lines == ["described 100/200 images, 200 more in forked children",
                     "described 200/200 images, 200 more in forked children"]
    classify._describe_range(images, lines.append, 200, 400)
    assert len(lines) == 2
    classify._describe_range(images, lines.append, 0, 400)
    assert lines[2:] == [f"described {n}/400 images" for n in (100, 200, 300, 400)]


@needs_fork
class TestForked:
    def test_two_cpus_give_the_one_cpu_bytes(self, cpus, tmp_path, monkeypatch):
        cpus(1)
        serial = _fit_and_predict(tmp_path, "serial")
        cpus(2)
        assert shards.count(9) == 2 and shards.count(6) == 2
        parent = os.getpid()
        described = []
        describe = classify.describe

        def counted(image, buffers=None):
            if os.getpid() == parent:
                described.append(image.shape)
            return describe(image, buffers)

        monkeypatch.setattr(classify, "describe", counted)
        forked = _fit_and_predict(tmp_path, "forked")
        assert forked[0] == serial[0]
        assert forked[1].dtype == np.int64 and forked[1].tobytes() == serial[1].tobytes()
        # this process described the first range of each pass: 4 of the 9
        # training images and 3 of the 6 test images
        assert len(described) == 4 + 3
        assert no_children()


def test_forked_tests_run_in_a_single_threaded_process():
    rerun_single_threaded(f"{__file__}::TestForked")
