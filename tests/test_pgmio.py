"""PGM round trips, header parsing edge cases, and the dataset layout."""

import json
import os
import tracemalloc
from pathlib import Path

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
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back, np.rint(img * 255.0).astype(np.uint8))

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "h.pgm")
        pgmio.write_pgm(path, np.zeros((244, 324), dtype=np.float32))
        blob = Path(path).read_bytes()
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
        np.testing.assert_array_equal(img, np.arange(6, dtype=np.uint8).reshape(2, 3))

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


def _refusal_peak(read, path, match):
    """tracemalloc's peak bytes while read(path) raised ValueError"""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


class TestBoundedReads:
    def test_a_sparse_pgm_tail_is_refused_before_reading(self, tmp_path):
        path = str(tmp_path / "x.pgm")
        pgmio.write_pgm(path, np.zeros((244, 324), dtype=np.float32))
        os.truncate(path, 64 * 2**20)
        assert _refusal_peak(pgmio.read_pgm, path, "trailing bytes") < 2**20

    def test_an_over_cap_pgm_header_is_refused_before_reading(self, tmp_path):
        # a sparse file exactly as long as its header implies, so only the
        # cap stands between the header and the pixels
        w, h = 4097, 4096
        assert w * h > pgmio.MAX_PGM_PIXELS
        header = f"P5\n{w} {h}\n255\n".encode("ascii")
        path = tmp_path / "huge.pgm"
        path.write_bytes(header)
        os.truncate(path, len(header) + w * h)
        assert _refusal_peak(pgmio.read_pgm, str(path), "pixel limit") < 2**20

    def test_a_sparse_manifest_is_refused_before_reading(self, tmp_path):
        images, labels = _tiny_dataset()
        root = str(tmp_path / "data")
        pgmio.write_dataset(root, images, labels, master_seed=0)
        os.truncate(os.path.join(root, pgmio.MANIFEST_NAME), 64 * 2**20)
        for read in (pgmio.read_manifest, pgmio.read_dataset):
            assert _refusal_peak(read, root, "byte limit") < 2**20

    @pytest.mark.parametrize(
        "name, w, h",
        [
            pytest.param("others/00000.pgm", 2048, 2048, id="others/00000.pgm"),
            pytest.param("giardia/00001.pgm", 2048, 2048, id="giardia/00001.pgm"),
            # a 2x capture is refused like any other size
            pytest.param("crypto/00001.pgm", 24, 16, id="crypto/00001.pgm-2x"),
        ],
    )
    def test_a_wrong_sized_dataset_file_is_refused_after_its_header(
        self, tmp_path, name, w, h
    ):
        images, labels = _tiny_dataset()
        root = tmp_path / "data"
        pgmio.write_dataset(str(root), images, labels, master_seed=0)
        # a valid w x h image, sparse on disk, in an 8x12 dataset
        header = f"P5\n{w} {h}\n255\n".encode("ascii")
        path = root / name
        path.write_bytes(header)
        os.truncate(path, len(header) + w * h)
        match = f"{name}: got {w}x{h}, expected 12x8$"
        assert _refusal_peak(pgmio.read_dataset, str(root), match) < 2**20

    @pytest.mark.parametrize("extra", [0, 1])
    def test_the_header_must_end_within_the_prefix(self, tmp_path, extra):
        tail = b"\n2 2\n255\n"
        comment = b"x" * (pgmio.MAX_HEADER_BYTES + extra - len(b"P5\n#") - len(tail))
        path = tmp_path / "chatty.pgm"
        path.write_bytes(b"P5\n#" + comment + tail + bytes(range(4)))
        if extra:
            with pytest.raises(ValueError, match="header longer than"):
                pgmio.read_pgm(str(path))
        else:
            want = np.arange(4, dtype=np.uint8).reshape(2, 2)
            np.testing.assert_array_equal(pgmio.read_pgm(str(path)), want)


def _float32(pixels):
    """the float32 expression read_pgm returned before it returned uint8"""
    return pixels.astype(np.float32) / 255.0


def _assert_bitwise_equal(got, want):
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestImageStack:
    @pytest.fixture
    def pixels(self):
        # every 8-bit value appears
        rng = np.random.default_rng(3)
        pixels = rng.permutation(np.arange(7 * 6 * 8) % 256).astype(np.uint8)
        return pixels.reshape(7, 6, 8, 1)

    @pytest.mark.parametrize(
        "key",
        [0, 6, -1, slice(None), slice(2, 5), slice(None, None, -2), np.array([4, 0, 4, 2])],
        ids=["first", "last", "negative", "all", "slice", "step", "int-array"],
    )
    def test_indexing_converts_like_read_pgm_did(self, pixels, key):
        stack = pgmio.ImageStack(pixels)
        _assert_bitwise_equal(stack[key], _float32(pixels[key]))

    def test_iteration_and_asarray_convert_like_read_pgm_did(self, pixels):
        stack = pgmio.ImageStack(pixels)
        images = list(stack)
        assert len(images) == len(pixels)
        for image, want in zip(images, pixels):
            _assert_bitwise_equal(image, _float32(want))
        _assert_bitwise_equal(np.asarray(stack), _float32(pixels))
        assert np.asarray(stack, dtype=np.float64).dtype == np.float64

    def test_reports_the_float32_stack_it_reads_as(self, pixels):
        stack = pgmio.ImageStack(pixels)
        assert len(stack) == 7 and stack.shape == (7, 6, 8, 1)
        assert stack.dtype == np.float32

    def test_is_read_only(self, pixels):
        stack = pgmio.ImageStack(pixels)
        with pytest.raises(TypeError):
            stack[0] = 0.5
        with pytest.raises(ValueError):
            stack.pixels[0] = 1
        # the caller's array stays writable
        pixels[0] = 1

    @pytest.mark.parametrize(
        "pixels",
        [np.zeros((2, 4, 4, 1), np.float32), np.zeros((2, 4, 4), np.uint8),
         np.zeros((2, 4, 4, 3), np.uint8)],
        ids=["float32", "no-channel", "three-channels"],
    )
    def test_takes_only_a_uint8_stack_of_one_channel(self, pixels):
        with pytest.raises(ValueError, match="uint8"):
            pgmio.ImageStack(pixels)

    def test_read_dataset_holds_the_pixels_on_disk(self, tmp_path):
        images, labels = _tiny_dataset()
        root = str(tmp_path / "data")
        pgmio.write_dataset(root, images, labels, master_seed=0)
        back, _ = pgmio.read_dataset(root)
        assert isinstance(back, pgmio.ImageStack)
        np.testing.assert_array_equal(back.pixels, np.rint(images * 255.0).astype(np.uint8))


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

    def test_read_holds_the_images_once(self, tmp_path):
        # 30 images of 96x128: the 369 KB of 8-bit pixels dwarf one
        # file's temporaries, and float32 would take four times that
        n, h, w = 30, 96, 128
        images, labels = _tiny_dataset(n // 3, h=h, w=w)
        root = str(tmp_path / "data")
        pgmio.write_dataset(root, images, labels, master_seed=0)
        tracemalloc.start()
        try:
            back, _ = pgmio.read_dataset(root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.shape == (n, h, w, 1)
        assert peak <= 1.25 * n * h * w

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
