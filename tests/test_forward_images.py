"""model.forward_images: the empty stack, the chunks of CHUNK_IMAGES
images it runs, the contiguous shards on chunk bounds split between this
process and forked children, and the serial loop it falls back to."""

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


# the unpatched forward_batch, for the oracles
_forward_batch = pm.forward_batch

C = pm.CHUNK_IMAGES

# three chunks, the last one short: enough to split into two or three
# ranges
N = 2 * C + 3


def _loop(model, images, size):
    """(probs, hidden) of forward_batch calls over consecutive chunks of
    size images, written out as an oracle."""
    outs = [_forward_batch(model, images[i : i + size]) for i in range(0, len(images), size)]
    return tuple(np.concatenate(parts) for parts in zip(*outs))


def _serial(model, images):
    """The chunk loop forward_images runs."""
    return _loop(model, images, C)


def test_chunks_agree_with_one_image_per_call():
    # a GEMM's element may depend on its column, with some BLAS kernels,
    # so a chunk's outputs are close to, not always bitwise equal to, one
    # image per call
    model = _model()
    images = _stacks(N)["array"]
    got = pm.forward_images(model, images)
    for g, w in zip(got, _loop(model, images, 1)):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-5, atol=1e-6)


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
    """The image count of each forward_batch call, a chunk, made in the
    test's own process."""
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
        # three chunks: shards of one and two, or of one each
        images = _stacks(N)[kind]
        want = _serial(model, images)
        cpus(workers)
        assert shards.count(len(images)) == workers
        got = pm.forward_images(model, images)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        # this process ran the first shard, one chunk, alone
        assert in_parent_calls == [C]
        assert no_children()

    @pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, N])
    def test_outputs_do_not_depend_on_the_usable_cpus(self, cpus, n):
        model = _model()
        images = _stacks(n)["stack"]
        outputs = []
        for workers in (1, 2, 3):
            cpus(workers)
            outputs.append(b"".join(a.tobytes() for a in pm.forward_images(model, images)))
            assert no_children()
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

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
            pm.forward_images(_model(), _stacks(C + 1)["array"])
        assert no_children()

    def test_eval_exits_1_with_the_serial_error_line(
        self, tmp_path, capsys, cpus
    ):
        labels = np.arange(C + 1) % 3
        data = tmp_path / "data"
        write_dataset(str(data / "test"), _pixels(C + 1) / 255.0, labels, 1)
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
            assert shards.count(N) == 1
            got = pm.forward_images(_model(), _stacks(N)["array"])
        finally:
            release.set()
            thread.join()
        assert in_parent_calls == [C, C, 3]
        assert got[0].shape == (N, pm.NUM_CLASSES)

    def test_serial_with_one_usable_cpu(self, cpus, in_parent_calls):
        cpus(1)
        pm.forward_images(_model(), _stacks(N)["stack"])
        assert in_parent_calls == [C, C, 3]

    def test_serial_below_the_per_worker_minimum(self, cpus, monkeypatch, in_parent_calls):
        cpus(2)
        # the minimum counts images, not chunks: three chunks are too few
        # for two shards of 16 images
        monkeypatch.setattr(shards, "MIN_IMAGES_PER_SHARD", 16)
        assert shards.count(31) == 1 and shards.count(32) == 2
        pm.forward_images(_model(), _stacks(N)["array"])
        assert in_parent_calls == [C, C, 3]

    def test_forks_inside_another_pools_worker(self, cpus):
        # os.fork, unlike multiprocessing, lets a daemonic pool worker have
        # children
        cpus(2)
        images = _stacks(N)["array"]
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
            pm.forward_images(_model(), _stacks(N)["stack"])
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
