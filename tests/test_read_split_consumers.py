"""A split that read_dataset holds as 8-bit pixels trains, evaluates and
fits the baseline exactly as the same images held as one float32 array."""

import numpy as np
import pytest

from dataset_writer import write_dataset
from parasnet import evaluation, pgmio, synth
from parasnet import model as pm
from parasnet import training as tr
from parasnet.baseline import classify


@pytest.fixture(scope="module")
def splits(tmp_path_factory):
    """{split: (ImageStack, float32 array, labels)} for a written dataset"""
    root = tmp_path_factory.mktemp("data")
    config = synth.GenConfig()
    found = {}
    for split, per_class in (("train", 4), ("test", 3)):
        labels = synth.split_labels(per_class)
        path = str(root / split)
        write_dataset(path, synth.gen_images(config, 23, split, labels), labels, 23)
        stack, read_labels = pgmio.read_dataset(path)
        np.testing.assert_array_equal(read_labels, labels)
        # what read_dataset returned before it held uint8
        array = stack.pixels.astype(np.float32) / 255.0
        found[split] = (stack, array, labels)
    return found


def _fit(train_images, test_images, splits):
    model = pm.build_model(2, seed=5)
    config = tr.TrainConfig(epochs=2, seed=9, augment=True)
    report = tr.fit(model, train_images, splits["train"][2], test_images,
                    splits["test"][2], config)
    return model, report


def test_fit_is_byte_identical(splits):
    (train_stack, train_array, _), (test_stack, test_array, _) = splits["train"], splits["test"]
    from_stack, stack_report = _fit(train_stack, test_stack, splits)
    from_array, array_report = _fit(train_array, test_array, splits)
    for got, want in zip(pm.parameters(from_stack), pm.parameters(from_array)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    history = [[(e.epoch, e.train_loss, e.test_accuracy) for e in r.history]
               for r in (stack_report, array_report)]
    assert history[0] == history[1]
    np.testing.assert_array_equal(stack_report.confusion, array_report.confusion)


def test_cnn_evaluation_and_features_are_identical(splits):
    stack, array, labels = splits["test"]
    model = pm.build_model(2, seed=5)
    clf = evaluation.CnnClassifier(model)
    np.testing.assert_array_equal(clf.predict_batch(stack), clf.predict_batch(array))
    np.testing.assert_array_equal(
        evaluation.evaluate(clf, stack, labels).counts,
        evaluation.evaluate(clf, array, labels).counts,
    )
    features = [evaluation.hidden_features(model, images) for images in (stack, array)]
    assert features[0].tobytes() == features[1].tobytes()


def test_baseline_is_byte_identical(splits, tmp_path):
    train_stack, train_array, train_labels = splits["train"]
    test_stack, test_array, test_labels = splits["test"]
    files = []
    for images, test_images in ((train_stack, test_stack), (train_array, test_array)):
        fitted = classify.train_baseline(
            images, train_labels, classify.BaselineTrainConfig(seed=4))
        path = tmp_path / f"{len(files)}.pbas"
        classify.save_baseline(fitted.model, str(path))
        files.append(path.read_bytes())
        counts = evaluation.evaluate(fitted, test_images, test_labels).counts
        files.append(counts.tobytes() + fitted.predict_batch(test_images).tobytes())
    assert files[0] == files[2]
    assert files[1] == files[3]
