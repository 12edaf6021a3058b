"""model.forward_images: the empty stack, the contiguous shards split
between this process and forked children, and the serial loop it falls
back to."""

import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from dataset_writer import write_dataset
from forking import needs_fork, no_children, rerun_single_threaded
from parasnet import cli, evaluation, pgmio, shards
from parasnet import model as pm
from parasnet import training as tr


def _model():
    return pm.build_model(2, seed=5, height=94, width=94)


def _pixels(n: int, size: int = 94) -> np.ndarray:
    return np.random.default_rng(n).integers(0, 256, (n, size, size, 1), dtype=np.uint8)


def _stacks(n: int, size: int = 94):
    """The same n images as a float32 array and as a pgmio.ImageStack."""
    pixels = _pixels(n, size)
    return {"array": pixels.astype(np.float32) / 255.0, "stack": pgmio.ImageStack(pixels)}


# the unpatched forward_batch, for the oracle
_forward_batch = pm.forward_batch


def _serial(model, images):
    """The one-image-per-call loop, written out as the oracle."""
    outs = [_forward_batch(model, images[i : i + 1]) for i in range(len(images))]
    return tuple(np.concatenate(parts) for parts in zip(*outs))


class TestEmptyStack:
    @pytest.mark.parametrize("kind", ["array", "stack"])
    def test_outputs_are_empty_and_in_the_model_dtype(self, kind):
        model = _model()
        images = _stacks(0)[kind]
        probs, hidden = pm.forward_images(model, images)
        assert probs.shape == (0, pm.NUM_CLASSES) and probs.dtype == np.float32
        assert hidden.shape == (0, pm.HIDDEN_UNITS) and hidden.dtype == np.float32
        features = evaluation.hidden_features(model, images)
        assert features.shape == (0, pm.HIDDEN_UNITS) and features.dtype == np.float32
        assert tr.predict_labels(model, images).shape == (0,)

    def test_a_float64_model_gives_float64(self):
        model = pm.build_model(1, seed=0, dtype=np.float64, height=94, width=94)
        probs, hidden = pm.forward_images(model, np.zeros((0, 94, 94, 1)))
        assert probs.dtype == hidden.dtype == np.float64


@pytest.fixture
def in_parent_calls(monkeypatch):
    """Counts the forward_batch calls made in the test's own process."""
    parent = os.getpid()
    forward_batch = pm.forward_batch
    calls = []

    def counted(*args, **kwargs):
        if os.getpid() == parent:
            calls.append(len(args[1]))
        return forward_batch(*args, **kwargs)

    monkeypatch.setattr(pm, "forward_batch", counted)
    return calls


@needs_fork
class TestSharding:
    @pytest.mark.parametrize("kind", ["array", "stack"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_shards_are_bit_identical_to_the_serial_loop(
        self, cpus, in_parent_calls, kind, workers
    ):
        model = _model()
        # 7 images: shards of 3 and 4, or of 2, 2 and 3
        images = _stacks(7)[kind]
        want = _serial(model, images)
        cpus(workers)
        assert shards.count(len(images)) == workers
        got = pm.forward_images(model, images)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        # this process ran the first shard alone
        assert in_parent_calls == [1] * (7 // workers)
        assert no_children()

    @pytest.mark.parametrize("where", ["everywhere", "children"])
    def test_a_value_error_reaches_the_caller(self, cpus, monkeypatch, where):
        cpus(2)
        # a default-size model cannot take 94x94 images; with where set to
        # "children", only the forked child gets it, so its error must
        # cross back
        wrong = pm.build_model(1, seed=0)
        parent = os.getpid()
        forward_batch = pm.forward_batch

        def forward(model, x, *args, **kwargs):
            if where == "everywhere" or os.getpid() != parent:
                model = wrong
            return forward_batch(model, x, *args, **kwargs)

        monkeypatch.setattr(pm, "forward_batch", forward)
        with pytest.raises(ValueError, match="does not match dense layer"):
            pm.forward_images(_model(), _stacks(5)["array"])
        assert no_children()

    def test_eval_exits_1_with_the_serial_error_line(
        self, tmp_path, capsys, cpus
    ):
        labels = np.array([0, 0, 1, 1, 2, 2])
        data = tmp_path / "data"
        write_dataset(str(data / "test"), _pixels(6) / 255.0, labels, 1)
        ckpt = str(tmp_path / "m.pnet")
        pm.save_checkpoint(pm.build_model(1, seed=0), ckpt)
        argv = ["eval", "--ckpt", ckpt, "--data", str(data),
                "--out", str(tmp_path / "c.csv")]
        cpus(1)
        assert shards.count(len(labels)) == 1
        assert cli.main(argv) == 1
        serial = capsys.readouterr().err
        cpus(2)
        assert shards.count(len(labels)) == 2
        assert cli.main(argv) == 1
        sharded = capsys.readouterr().err
        assert sharded == serial
        assert sharded.startswith("error: ") and "does not match dense layer" in sharded
        assert not (tmp_path / "c.csv").exists()
        assert no_children()

    def test_serial_while_a_second_thread_is_alive(self, cpus, in_parent_calls):
        cpus(2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert shards.count(7) == 1
            got = pm.forward_images(_model(), _stacks(7)["array"])
        finally:
            release.set()
            thread.join()
        assert in_parent_calls == [1] * 7
        assert got[0].shape == (7, pm.NUM_CLASSES)

    def test_serial_with_one_usable_cpu(self, cpus, in_parent_calls):
        cpus(1)
        pm.forward_images(_model(), _stacks(7)["stack"])
        assert in_parent_calls == [1] * 7

    def test_serial_below_the_per_worker_minimum(self, cpus, in_parent_calls):
        cpus(2)
        # two shards need 2 * MIN_IMAGES_PER_SHARD = 4 images
        assert shards.count(3) == 1 and shards.count(4) == 2
        pm.forward_images(_model(), _stacks(3)["array"])
        assert in_parent_calls == [1] * 3

    def test_forks_inside_another_pools_worker(self, cpus):
        # os.fork, unlike multiprocessing, lets a daemonic pool worker have
        # children
        cpus(2)
        images = _stacks(7)["array"]
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply(_forward_in_worker, (images,))
            pool.close()
            pool.join()
        for g, w in zip(got, _serial(_model(), images)):
            assert g.tobytes() == w.tobytes()

    def test_a_killed_child_raises_and_leaves_no_child(self, cpus, monkeypatch):
        cpus(2)
        parent = os.getpid()
        forward_batch = pm.forward_batch

        def die_in_child(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return forward_batch(*args, **kwargs)

        monkeypatch.setattr(pm, "forward_batch", die_in_child)
        with pytest.raises(ChildProcessError, match="killed by SIGKILL"):
            pm.forward_images(_model(), _stacks(7)["stack"])
        assert no_children()

    def test_workers_are_capped_by_the_images(self, cpus):
        cpus(8)
        assert [shards.count(n) for n in (5, 6, 9, 16, 17)] == [2, 3, 4, 8, 8]


def _forward_in_worker(images):
    assert shards.count(len(images)) == 2
    return pm.forward_images(_model(), images)


def test_sharding_runs_in_a_single_threaded_process():
    """This process has a second thread (a multi-threaded BLAS, say), so
    TestSharding skipped here: run it where BLAS has one thread, as CI does."""
    rerun_single_threaded(f"{__file__}::TestSharding")
