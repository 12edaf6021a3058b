"""Generator determinism, morphology statistics, and separability checks."""

import hashlib
import os
import signal
import threading
import time

import numpy as np
import pytest

from forking import needs_fork, no_children, rerun_single_threaded
from parasnet import INPUT_HEIGHT, INPUT_WIDTH, NUM_CLASSES, shards, synth

import synth_ref


def dominant_period(img, min_period=4.0, max_period=90.0):
    """Independent frequency oracle: peak of the radially binned spectrum."""
    a = img[:, :, 0].astype(np.float64)
    a = a - a.mean()
    power = np.abs(np.fft.fft2(a)) ** 2
    fy = np.fft.fftfreq(a.shape[0])[:, None]
    fx = np.fft.fftfreq(a.shape[1])[None, :]
    fr = np.sqrt(fy**2 + fx**2)
    nbins = 120
    edges = np.linspace(0.0, 0.5, nbins + 1)
    which = np.digitize(fr.ravel(), edges) - 1
    sums = np.bincount(which, weights=power.ravel(), minlength=nbins + 1)[:nbins]
    centers = 0.5 * (edges[:-1] + edges[1:])
    band = (centers >= 1.0 / max_period) & (centers <= 1.0 / min_period)
    return 1.0 / centers[np.argmax(np.where(band, sums, 0.0))]


class TestDeterminism:
    def test_same_coordinates_same_image(self):
        cfg = synth.GenConfig()
        a = synth.gen_sample(1, 5, cfg, 7, "train")
        b = synth.gen_sample(1, 5, cfg, 7, "train")
        np.testing.assert_array_equal(a, b)

    def test_every_coordinate_matters(self):
        cfg = synth.GenConfig()
        base = synth.gen_sample(1, 5, cfg, 7, "train")
        for other in (
            synth.gen_sample(1, 6, cfg, 7, "train"),
            synth.gen_sample(2, 5, cfg, 7, "train"),
            synth.gen_sample(1, 5, cfg, 8, "train"),
            synth.gen_sample(1, 5, cfg, 7, "test"),
        ):
            assert not np.array_equal(base, other)

    def test_dataset_matches_individual_samples(self):
        cfg = synth.GenConfig()
        ds = synth.gen_dataset(cfg, master_seed=3, split="test", per_class=2)
        assert len(ds) == 6
        k = 0
        for label in range(3):
            for index in range(2):
                expected = synth.gen_sample(label, index, cfg, 3, "test")
                np.testing.assert_array_equal(ds.images[k], expected)
                assert ds.labels[k] == label
                k += 1

    def test_all_samples_distinct(self):
        cfg = synth.GenConfig()
        seen = set()
        for label in range(3):
            for index in range(10):
                img = synth.gen_sample(label, index, cfg, 1, "train")
                seen.add(img.tobytes())
        assert len(seen) == 30


# sha256 of np.rint(gen_sample(label, i, GenConfig(), 7, "train") * 255)
# as uint8, i = 0..3 in turn: the bytes `parasnet gen` writes, which
# stay the same across CPUs even where float64 results differ in the
# last bits
GOLDEN_SHA256 = {
    0: "2592306824c12e74c10bd36021775fe4f0b771fe0a003d89328340a11dae77ea",
    1: "50c163bd29022cebb18296c8cb5c55ce39998452514fc4f393a2d1d9e330c8e8",
    2: "e0c458daa2037b56be0609f361cde4e546fd2394dcdf1d7d3fd2c5032fa435ad",
}


class TestMatchesReference:
    """gen_sample against the whole-frame renderers of synth_ref."""

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("seed", [0, 5, 123])
    def test_same_bytes_as_the_reference(self, seed, split):
        cfg = synth.GenConfig()
        for label in range(3):
            for index in range(3):
                got = synth.gen_sample(label, index, cfg, seed, split)
                want = synth_ref.gen_sample(label, index, cfg, seed, split)
                assert got.tobytes() == want.tobytes(), (label, index)

    @pytest.mark.parametrize("size", [(200, 200), (260, 400)])
    def test_same_bytes_on_other_frames(self, size):
        cfg = synth.GenConfig(*size)
        for label in range(3):
            for index in range(2):
                got = synth.gen_sample(label, index, cfg, 11, "train")
                want = synth_ref.gen_sample(label, index, cfg, 11, "train")
                assert got.tobytes() == want.tobytes(), (label, index)

    @pytest.mark.parametrize("rows", [1, 7, 244])
    def test_strip_height_does_not_change_the_bytes(self, monkeypatch, rows):
        cfg = synth.GenConfig()
        want = [synth.gen_sample(label, 1, cfg, 3, "test").tobytes() for label in range(3)]
        monkeypatch.setattr(synth, "STRIP_ROWS", rows)
        got = [synth.gen_sample(label, 1, cfg, 3, "test").tobytes() for label in range(3)]
        assert got == want

    @pytest.mark.parametrize("label", [0, 1, 2])
    def test_written_pixels_match_the_golden_hash(self, label):
        cfg = synth.GenConfig()
        digest = hashlib.sha256()
        for index in range(4):
            img = synth.gen_sample(label, index, cfg, 7, "train")
            digest.update(np.rint(img * 255.0).astype(np.uint8).tobytes())
        assert digest.hexdigest() == GOLDEN_SHA256[label]

    def test_no_exponential_underflows(self):
        # a subnormal exp result costs about a hundred times a normal one,
        # so the floor on every exponent must keep them all normal
        cfg = synth.GenConfig()
        with np.errstate(under="raise"):
            for label in range(3):
                for index in range(10):
                    synth.gen_sample(label, index, cfg, 2, "train")


class TestSampleProperties:
    def test_shape_dtype_and_range(self):
        cfg = synth.GenConfig()
        for label in range(3):
            img = synth.gen_sample(label, 0, cfg, 0, "train")
            assert img.shape == (244, 324, 1)
            assert img.dtype == np.float32
            assert img.min() >= 0.0
            assert img.max() <= 1.0

    def test_custom_frame_size(self):
        cfg = synth.GenConfig(height=200, width=200)
        img = synth.gen_sample(0, 0, cfg, 0, "train")
        assert img.shape == (200, 200, 1)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            synth.gen_sample(3, 0, synth.GenConfig(), 0, "train")

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            synth.gen_sample(0, 0, synth.GenConfig(), 0, "validation")


class TestMorphology:
    def test_giardia_fringes_are_finer_than_crypto_rings(self):
        cfg = synth.GenConfig()
        crypto = [
            dominant_period(synth.gen_sample(1, i, cfg, 7, "train")) for i in range(12)
        ]
        giardia = [
            dominant_period(synth.gen_sample(2, i, cfg, 7, "train")) for i in range(12)
        ]
        assert np.median(giardia) < np.median(crypto)
        assert 4.0 <= np.median(giardia) <= 14.0

    def test_pinned_fringe_period_is_rendered(self, monkeypatch):
        monkeypatch.setattr(synth, "GIARDIA_PERIOD", (10.0, 10.0))
        monkeypatch.setattr(synth, "GIARDIA_RADIUS", (40.0, 40.0))
        monkeypatch.setattr(synth, "GIARDIA_ECC", (1.0, 1.0))
        cfg = synth.GenConfig()
        measured = [
            dominant_period(synth.gen_sample(2, i, cfg, 11, "train"), 7.0, 20.0)
            for i in range(8)
        ]
        assert all(abs(m - 10.0) <= 1.5 for m in measured)
        assert abs(np.median(measured) - 10.0) <= 0.75

    def test_classes_separable_by_simple_statistics(self):
        # a nearest-centroid probe on three dumb features has to beat
        # chance by a wide margin, or the classes are too uniform
        cfg = synth.GenConfig()
        feats, labs = [], []
        for label in range(3):
            for i in range(40):
                img = synth.gen_sample(label, i, cfg, 3, "train")
                feats.append([img.mean(), img.std(), dominant_period(img)])
                labs.append(label)
        feats = np.array(feats)
        labs = np.array(labs)
        train = np.concatenate([np.where(labs == c)[0][:30] for c in range(3)])
        test = np.concatenate([np.where(labs == c)[0][30:] for c in range(3)])
        mu, sd = feats[train].mean(0), feats[train].std(0) + 1e-9
        z = (feats - mu) / sd
        centroids = np.stack([z[train][labs[train] == c].mean(0) for c in range(3)])
        pred = np.argmin(
            ((z[test][:, None, :] - centroids[None]) ** 2).sum(-1), axis=1
        )
        assert (pred == labs[test]).mean() > 0.5


class TestThroughput:
    def test_generation_rate(self):
        cfg = synth.GenConfig()
        synth.gen_sample(0, 0, cfg, 0, "train")  # warm any caches
        started = time.perf_counter()
        n = 30
        for i in range(n):
            synth.gen_sample(i % 3, i, cfg, 0, "train")
        rate = n / (time.perf_counter() - started)
        assert rate >= 50.0, f"generator too slow: {rate:.0f} images/s"


RANGE_NAMES = (
    "BACKGROUND",
    "CRYPTO_PERIOD",
    "CRYPTO_RADIUS",
    "CRYPTO_ECC",
    "CRYPTO_CONTRAST",
    "GIARDIA_PERIOD",
    "GIARDIA_RADIUS",
    "GIARDIA_ECC",
    "GIARDIA_CONTRAST",
    "OTHERS_CONTRAST",
    "BLOB_COUNT",
)


def check_distribution(dist):
    """Raise ValueError naming the first broken invariant of the constants."""
    for name in RANGE_NAMES:
        lo, hi = getattr(dist, name)
        if not lo <= hi:
            raise ValueError(f"{name} must be ordered, got {(lo, hi)}")
        if not lo > 0:
            raise ValueError(f"{name} must be positive, got {(lo, hi)}")
    for name in ("NOISE_SIGMA", "SPECKLE_AMP"):
        if not getattr(dist, name) > 0:
            raise ValueError(f"{name} must be positive")
    # the separability claim of the module docstring
    if not dist.GIARDIA_PERIOD[1] < dist.CRYPTO_PERIOD[0]:
        raise ValueError("giardia periods must sit strictly below crypto periods")


class TestDistribution:
    def test_ranges_are_ordered_positive_and_separable(self):
        check_distribution(synth)

    def test_threads_generate_identical_bytes(self):
        cfg = synth.GenConfig()
        coords = [(label, index) for label in range(3) for index in range(4)]
        results = [[], []]

        def work(out):
            for label, index in coords:
                out.append(synth.gen_sample(label, index, cfg, 9, "train").tobytes())

        threads = [threading.Thread(target=work, args=(out,)) for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        expected = [synth.gen_sample(*c, cfg, 9, "train").tobytes() for c in coords]
        assert results[0] == expected
        assert results[1] == expected


class TestGenConfig:
    def test_default_config_is_valid(self):
        cfg = synth.GenConfig()
        assert (cfg.height, cfg.width) == (INPUT_HEIGHT, INPUT_WIDTH)

    def test_object_must_fit_in_frame(self):
        with pytest.raises(ValueError, match="fit"):
            synth.GenConfig(height=120, width=120)

    # The distribution is module constants now; these check that
    # check_distribution catches each fault the constants could carry.
    def test_overlapping_periods_rejected(self, monkeypatch):
        monkeypatch.setattr(synth, "GIARDIA_PERIOD", (6.0, 20.0))
        with pytest.raises(ValueError, match="strictly below"):
            check_distribution(synth)

    def test_reversed_range_rejected(self, monkeypatch):
        monkeypatch.setattr(synth, "CRYPTO_RADIUS", (46.0, 28.0))
        with pytest.raises(ValueError, match="CRYPTO_RADIUS must be ordered"):
            check_distribution(synth)

    def test_negative_noise_rejected(self, monkeypatch):
        monkeypatch.setattr(synth, "NOISE_SIGMA", -0.1)
        with pytest.raises(ValueError, match="NOISE_SIGMA must be positive"):
            check_distribution(synth)

    def test_bad_blob_count_rejected(self, monkeypatch):
        monkeypatch.setattr(synth, "BLOB_COUNT", (0, 3))
        with pytest.raises(ValueError, match="BLOB_COUNT must be positive"):
            check_distribution(synth)


class TestGenDataset:
    def test_empty_request_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            synth.gen_dataset(synth.GenConfig(), 0, "train", 0)

    def test_generation_order_interleaves_the_classes(self):
        assert [synth.sample_at(k) for k in range(7)] == [
            (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2)
        ]

    def test_images_share_one_mapping(self):
        ds = synth.gen_dataset(synth.GenConfig(), 2, "test", 1)
        assert ds.images.flags.c_contiguous and ds.images.flags.writeable
        assert ds.images.dtype == np.float32 and ds.labels.dtype == np.int64


def _serial_split(seed, split, per_class):
    """The class-grouped split, one gen_sample call per image, as the oracle."""
    cfg = synth.GenConfig()
    return np.stack([
        synth.gen_sample(label, index, cfg, seed, split)
        for label in range(NUM_CLASSES) for index in range(per_class)
    ])


@pytest.fixture
def in_parent_samples(monkeypatch):
    """The (label, index) of each gen_sample call made in the test's own
    process."""
    parent = os.getpid()
    gen_sample = synth.gen_sample
    calls = []

    def recorded(label, index, *args, **kwargs):
        if os.getpid() == parent:
            calls.append((label, index))
        return gen_sample(label, index, *args, **kwargs)

    monkeypatch.setattr(synth, "gen_sample", recorded)
    return calls


@needs_fork
class TestGenDatasetForked:
    @pytest.mark.parametrize("per_class, usable, minimum, ranges", [
        # one image a class, one image a range
        (1, 3, 1, 3),
        # too short to fork: 3 images make one range of at least 2
        (1, 2, 2, 1),
        # ranges [0, 4) and [4, 9) cut every class
        (3, 2, 2, 2),
        (5, 3, 2, 3),
    ])
    def test_byte_identical_to_the_serial_split(
        self, cpus, monkeypatch, in_parent_samples, per_class, usable, minimum, ranges
    ):
        want = _serial_split(4, "train", per_class)
        in_parent_samples.clear()
        cpus(usable)
        monkeypatch.setattr(shards, "MIN_IMAGES_PER_SHARD", minimum)
        n = NUM_CLASSES * per_class
        assert shards.count(n) == ranges
        ds = synth.gen_dataset(synth.GenConfig(), 4, "train", per_class)
        assert ds.images.shape == want.shape and ds.images.tobytes() == want.tobytes()
        assert ds.labels.tolist() == np.repeat(np.arange(NUM_CLASSES), per_class).tolist()
        # this process rendered the first range, in generation order
        assert in_parent_samples == [synth.sample_at(k) for k in range(n // ranges)]
        assert no_children()

    def test_one_cpu_gives_the_two_cpu_bytes(self, cpus):
        found = []
        for usable in (1, 2):
            cpus(usable)
            ds = synth.gen_dataset(synth.GenConfig(), 6, "test", 4)
            found.append(ds.images.tobytes() + ds.labels.tobytes())
        assert found[0] == found[1]

    def test_a_killed_child_raises_and_leaves_no_child(self, cpus, monkeypatch):
        cpus(2)
        parent = os.getpid()
        gen_sample = synth.gen_sample

        def die_in_child(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return gen_sample(*args, **kwargs)

        monkeypatch.setattr(synth, "gen_sample", die_in_child)
        began = time.monotonic()
        with pytest.raises(ChildProcessError, match="killed by SIGKILL"):
            synth.gen_dataset(synth.GenConfig(), 4, "test", 2)
        assert time.monotonic() - began < 30
        assert no_children()


def test_forked_gen_dataset_runs_in_a_single_threaded_process():
    rerun_single_threaded(f"{__file__}::TestGenDatasetForked")
