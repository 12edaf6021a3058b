"""training.fit with a forked shards.Helper running the second half of
each step's batch: byte-identical to a one-process run at the network's
input size, the helper taking part in every step with a second half, and
a helper killed mid-epoch makes fit, and `parasnet train`, fail promptly
with no child left behind."""

import hashlib
import os
import signal
import time

import numpy as np
import pytest

from dataset_writer import write_dataset
from forking import needs_fork, no_children, rerun_single_threaded
from parasnet import INPUT_HEIGHT, INPUT_WIDTH, cli, pgmio, shards
from parasnet import model as pm
from parasnet import training as tr


class CountingHelper(shards.Helper):
    """A Helper that counts the training steps it takes part in: the
    forward calls this process hands it."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps = 0
        CountingHelper.made.append(self)

    def submit(self, method, *args):
        self.steps += method == "forward"
        super().submit(method, *args)


def _data(n: int, kind: str, seed: int):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, (n + 3, INPUT_HEIGHT, INPUT_WIDTH, 1), dtype=np.uint8)
    labels = np.arange(n + 3) % pm.NUM_CLASSES
    if kind == "stack":
        return pgmio.ImageStack(pixels[:n]), labels[:n], pgmio.ImageStack(pixels[n:]), labels[n:]
    images = pixels.astype(np.float32) / 255.0
    return images[:n], labels[:n], images[n:], labels[n:]


def _fit_digests(tmp_path, cpus, count, filters, augment, batch, data):
    """sha256 of every trained parameter and of the history CSV, with
    count usable CPUs."""
    cpus(count)
    model = pm.build_model(filters, seed=4)
    config = tr.TrainConfig(epochs=2, batch_size=batch, seed=6, augment=augment)
    report = tr.fit(model, *data, config)
    path = tmp_path / f"history-{count}.csv"
    report.to_csv(str(path))
    return [hashlib.sha256(p.tobytes()).hexdigest() for p in pm.parameters(model)] + [
        hashlib.sha256(path.read_bytes()).hexdigest(), report.confusion.tobytes()]


@needs_fork
class TestSplitStep:
    # n images at batch 8 leave a last batch of n % 8: one, four or five;
    # at batch 5, 11 images leave one, which has no second half
    @pytest.mark.parametrize("filters, augment, n, kind, batch", [
        (2, True, 9, "stack", 8),
        (8, True, 12, "array", 8),
        (8, False, 9, "stack", 8),
        (2, False, 13, "array", 8),
        (2, True, 11, "stack", 5),
    ])
    def test_bytes_match_a_one_process_fit(
        self, tmp_path, cpus, monkeypatch, filters, augment, n, kind, batch
    ):
        data = _data(n, kind, seed=n + filters)
        one = _fit_digests(tmp_path, cpus, 1, filters, augment, batch, data)
        monkeypatch.setattr(shards, "Helper", CountingHelper)
        CountingHelper.made = []
        two = _fit_digests(tmp_path, cpus, 2, filters, augment, batch, data)
        assert two == one
        # the helper ran the second half of every step of the two epochs
        # that has one: every batch of two images or more
        (helper,) = CountingHelper.made
        sizes = [min(batch, n - start) for start in range(0, n, batch)]
        assert helper.steps == 2 * sum(size > 1 for size in sizes)
        assert no_children()

    def test_a_killed_helper_fails_the_fit_promptly(self, cpus, monkeypatch):
        cpus(2)
        parent = os.getpid()
        augment = tr.augment
        calls = [0]

        def die_in_the_helpers_second_step(image, rng):
            if os.getpid() != parent:
                calls[0] += 1
                if calls[0] > 4:
                    os.kill(os.getpid(), signal.SIGKILL)
            return augment(image, rng)

        monkeypatch.setattr(tr, "augment", die_in_the_helpers_second_step)
        images, labels, test_images, test_labels = _data(16, "stack", seed=1)
        began = time.monotonic()
        with pytest.raises(ChildProcessError, match="killed by SIGKILL"):
            tr.fit(pm.build_model(2, seed=0), images, labels, test_images, test_labels,
                   tr.TrainConfig(epochs=1, batch_size=8))
        assert time.monotonic() - began < 30
        assert no_children()

    def test_train_exits_1_when_its_helper_is_killed(
        self, tmp_path, cpus, monkeypatch, capsys
    ):
        images, labels, test_images, test_labels = _data(9, "array", seed=2)
        data = tmp_path / "data"
        write_dataset(str(data / "train"), images, labels, 1)
        write_dataset(str(data / "test"), test_images, test_labels, 1)
        cpus(2)
        parent = os.getpid()
        augment = tr.augment

        def die_in_helper(image, rng):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return augment(image, rng)

        monkeypatch.setattr(tr, "augment", die_in_helper)
        ckpt = tmp_path / "m.pnet"
        capsys.readouterr()
        assert cli.main(["train", "--data", str(data), "--filters", "2", "--epochs", "1",
                         "--ckpt", str(ckpt), "--history", str(tmp_path / "h.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: forked child ") and "killed by SIGKILL" in err
        assert not ckpt.exists()
        assert no_children()


def test_split_step_tests_run_in_a_single_threaded_process():
    rerun_single_threaded(f"{__file__}::TestSplitStep")
