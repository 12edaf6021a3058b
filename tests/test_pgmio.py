"""PGM round trips, header parsing edge cases, and the dataset layout."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from parasnet import pgmio


class TestWriteRead:
    def test_round_trip_preserves_quantized_values(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((20, 30)).astype(np.float32)
        path = str(tmp_path / "x.pgm")
        pgmio.write_pgm(path, img)
        back = pgmio.read_pgm(path)
        np.testing.assert_array_equal(back, np.rint(img * 255.0) / np.float32(255.0))

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "h.pgm")
        pgmio.write_pgm(path, np.zeros((244, 324), dtype=np.float32))
        blob = open(path, "rb").read()
        assert blob.startswith(b"P5\n324 244\n255\n")
        assert len(blob) == len(b"P5\n324 244\n255\n") + 244 * 324

    def test_channel_axis_accepted(self, tmp_path):
        img = np.full((4, 5, 1), 0.5, dtype=np.float32)
        path = str(tmp_path / "c.pgm")
        pgmio.write_pgm(path, img)
        assert pgmio.read_pgm(path).shape == (4, 5)

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            pgmio.write_pgm(str(tmp_path / "bad.pgm"), np.full((2, 2), 1.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected_before_the_file_opens(self, tmp_path, bad):
        img = np.full((4, 4), 0.5, dtype=np.float32)
        img[1, 2] = bad
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match="finite"):
            pgmio.write_pgm(str(path), img)
        assert not path.exists()

    def test_empty_image_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            pgmio.write_pgm(str(tmp_path / "bad.pgm"), np.zeros((0, 5)))

    def test_wrong_rank_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2-d"):
            pgmio.write_pgm(str(tmp_path / "bad.pgm"), np.zeros((2, 2, 3)))


class TestHeaderParsing:
    def test_comments_and_whitespace_tolerated(self, tmp_path):
        path = tmp_path / "weird.pgm"
        pixels = bytes(range(6))
        path.write_bytes(b"P5 # magic\n# a comment line\n  3\t2 # dims\n255\n" + pixels)
        img = pgmio.read_pgm(str(path))
        assert img.shape == (2, 3)
        np.testing.assert_allclose(img[0, 1], 1.0 / 255.0)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError, match="magic"):
            pgmio.read_pgm(str(path))

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError, match="maxval 65535"):
            pgmio.read_pgm(str(path))

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "cut.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(9))
        with pytest.raises(ValueError, match="expected 16 bytes, found 9"):
            pgmio.read_pgm(str(path))

    def test_non_numeric_header_rejected(self, tmp_path):
        path = tmp_path / "junk.pgm"
        path.write_bytes(b"P5\nwide 2\n255\n" + bytes(4))
        with pytest.raises(ValueError, match="bad header token"):
            pgmio.read_pgm(str(path))

    def test_header_ending_early_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2")
        with pytest.raises(ValueError, match="ended early"):
            pgmio.read_pgm(str(path))


class TestDownscale:
    def test_block_means(self):
        img = np.array(
            [[0.0, 1.0, 0.5, 0.5], [1.0, 0.0, 0.5, 0.5]], dtype=np.float32
        )
        out = pgmio.downscale_2x2(img)
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            pgmio.downscale_2x2(np.zeros((3, 4), dtype=np.float32))

    def test_dtype_preserved(self):
        out = pgmio.downscale_2x2(np.zeros((4, 4), dtype=np.float32))
        assert out.dtype == np.float32


def _tiny_dataset(n_per_class=2, h=8, w=12):
    rng = np.random.default_rng(5)
    images = rng.random((3 * n_per_class, h, w, 1)).astype(np.float32)
    labels = np.repeat(np.arange(3), n_per_class)
    return images, labels


class TestDatasetLayout:
    def test_write_read_round_trip(self, tmp_path):
        images, labels = _tiny_dataset()
        root = str(tmp_path / "data")
        pgmio.write_dataset(root, images, labels, master_seed=42)
        back_images, back_labels = pgmio.read_dataset(root)
        np.testing.assert_array_equal(back_labels, labels)
        np.testing.assert_array_equal(
            back_images[:, :, :, 0], np.rint(images[:, :, :, 0] * 255.0) / 255.0
        )

    def test_manifest_contents(self, tmp_path):
        images, labels = _tiny_dataset(3)
        root = str(tmp_path / "data")
        pgmio.write_dataset(root, images, labels, master_seed=9, extra={"split": "train"})
        manifest = pgmio.read_manifest(root)
        assert manifest["master_seed"] == 9
        assert manifest["height"] == 8 and manifest["width"] == 12
        assert manifest["counts"] == {"others": 3, "crypto": 3, "giardia": 3}
        assert manifest["split"] == "train"

    def test_double_resolution_file_is_downscaled(self, tmp_path):
        images, labels = _tiny_dataset()
        root = str(tmp_path / "data")
        pgmio.write_dataset(root, images, labels, master_seed=0)
        # replace one file with a 2x upsampled copy; block averaging of
        # four equal pixels must reproduce the original exactly
        victim = os.path.join(root, "crypto", "00001.pgm")
        original = pgmio.read_pgm(victim)
        big = np.repeat(np.repeat(original, 2, axis=0), 2, axis=1)
        pgmio.write_pgm(victim, big)
        back_images, _ = pgmio.read_dataset(root)
        np.testing.assert_array_equal(back_images[3, :, :, 0], original)

    def test_read_holds_the_images_once(self, tmp_path):
        # 30 images of 96x128: the 1.5 MB array dwarfs one file's temporaries
        images, labels = _tiny_dataset(10, h=96, w=128)
        root = str(tmp_path / "data")
        pgmio.write_dataset(root, images, labels, master_seed=0)
        tracemalloc.start()
        try:
            back, _ = pgmio.read_dataset(root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * back.nbytes

    def test_missing_file_named_in_error(self, tmp_path):
        images, labels = _tiny_dataset()
        root = str(tmp_path / "data")
        pgmio.write_dataset(root, images, labels, master_seed=0)
        os.remove(os.path.join(root, "giardia", "00000.pgm"))
        with pytest.raises(FileNotFoundError, match="giardia"):
            pgmio.read_dataset(root)

    def test_unexpected_size_named_in_error(self, tmp_path):
        images, labels = _tiny_dataset()
        root = str(tmp_path / "data")
        pgmio.write_dataset(root, images, labels, master_seed=0)
        pgmio.write_pgm(
            os.path.join(root, "others", "00000.pgm"), np.zeros((5, 7), dtype=np.float32)
        )
        with pytest.raises(ValueError, match="7x5"):
            pgmio.read_dataset(root)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            pgmio.read_dataset(str(tmp_path))

    def test_manifest_missing_key(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"version": 1}))
        with pytest.raises(ValueError, match="missing"):
            pgmio.read_manifest(str(tmp_path))

    def test_manifest_wrong_version(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps(
                {"version": 99, "height": 4, "width": 4, "counts": {}}
            )
        )
        with pytest.raises(ValueError, match="version 99"):
            pgmio.read_manifest(str(tmp_path))

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("5", "not a JSON object"),
            ('["version", "height", "width", "counts"]', "not a JSON object"),
            ('{"version":1,"height":4,"width":4,"counts":[1]}', "counts is not"),
            ('{"version":1,"height":4,"width":4,"counts":{"crypto":1.5}}', "1.5"),
            ('{"version":1,"height":4,"width":4,"counts":{"crypto":-1}}', "-1"),
            ('{"version":1,"height":4,"width":4,"counts":{"crypto":true}}', "True"),
            ('{"version":1,"height":4,"width":4,"counts":{"others":2,"Crypto":2,"giardia":2}}',
             "unknown class 'Crypto'"),
            ('{"version":1,"height":0,"width":4,"counts":{}}', "height"),
            ('{"version":1,"height":4,"width":"4","counts":{}}', "width"),
            ('{"version":1,"height":4.0,"width":4,"counts":{}}', "height"),
            ("[" * 100000, "nested too deeply"),
        ],
        ids=[
            "int", "list", "counts-list", "float-count", "negative-count",
            "bool-count", "unknown-class", "zero-height", "string-width", "float-height", "deep-nesting",
        ],
    )
    def test_malformed_manifest_raises_value_error(self, tmp_path, payload, match):
        (tmp_path / "manifest.json").write_text(payload)
        with pytest.raises(ValueError, match=match):
            pgmio.read_manifest(str(tmp_path))
        with pytest.raises(ValueError, match=match):
            pgmio.read_dataset(str(tmp_path))

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="disagree"):
            pgmio.write_dataset(
                str(tmp_path / "d"),
                np.zeros((2, 4, 4, 1), dtype=np.float32),
                np.zeros(3, dtype=np.int64),
                master_seed=0,
            )

    @pytest.mark.parametrize("n_images", [2, 4])
    def test_a_generator_of_the_wrong_length_writes_no_manifest(self, tmp_path, n_images):
        images = (np.zeros((4, 4, 1), dtype=np.float32) for _ in range(n_images))
        with pytest.raises(ValueError, match="disagree"):
            pgmio.write_dataset(str(tmp_path), images, np.zeros(3, dtype=np.int64), 0)
        assert not (tmp_path / pgmio.MANIFEST_NAME).exists()

    @pytest.mark.parametrize(
        "images, match", [([np.zeros((4, 4)), np.zeros((4, 5))], "size"), ([], "no images")]
    )
    def test_mixed_sizes_or_no_images_write_no_manifest(self, tmp_path, images, match):
        labels = np.zeros(len(images), dtype=np.int64)
        with pytest.raises(ValueError, match=match):
            pgmio.write_dataset(str(tmp_path), images, labels, 0)
        assert not (tmp_path / pgmio.MANIFEST_NAME).exists()

    @pytest.mark.parametrize(
        "edit, error",
        [({"counts": {"crypto": 10**9}}, FileNotFoundError), ({"height": 10**6}, ValueError)],
        ids=["count", "size"],
    )
    def test_a_false_manifest_fails_before_allocating(self, tmp_path, edit, error):
        images, labels = _tiny_dataset()
        root = str(tmp_path / "data")
        pgmio.write_dataset(root, images, labels, master_seed=0)
        path = os.path.join(root, pgmio.MANIFEST_NAME)
        with open(path) as fh:
            manifest = json.load(fh)
        manifest.update(edit)
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        tracemalloc.start()
        try:
            with pytest.raises(error):
                pgmio.read_dataset(root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
