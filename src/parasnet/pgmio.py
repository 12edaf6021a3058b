"""Binary PGM (P5) reading and writing plus the on-disk dataset layout.

A dataset directory holds one subdirectory per class, each containing
zero-padded NNNNN.pgm files, and a manifest.json holding the manifest
format "version", the image "height" and "width", the "master_seed",
the per-class "counts", and any extra keys the writer passes, such as
the "split" that `parasnet gen` records. Every image is at the manifest's
size, so each pixel read is the 8-bit value on disk over 255; a 2x
capture must be averaged down once, before it is written. A split is
held as those 8-bit values, a quarter of its float32 size, and an
ImageStack converts them to float32 one batch at a time.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

import numpy as np

from . import CLASS_NAMES, NUM_CLASSES

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
# the largest manifest read_manifest parses; one that gen writes is
# about 200 bytes
MAX_MANIFEST_BYTES = 2**20
# bounds on what read_pgm accepts: the header must end within the first
# MAX_HEADER_BYTES bytes, and the image may hold at most MAX_PGM_PIXELS
# pixels (4096x4096, against 79,056 in the 244x324 frame)
MAX_HEADER_BYTES = 4096
MAX_PGM_PIXELS = 2**24


def write_pgm(path: str, image: np.ndarray) -> None:
    """Store a float image in [0, 1] as an 8-bit binary PGM."""
    if image.ndim == 3 and image.shape[2] == 1:
        image = image[:, :, 0]
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    if image.size == 0:
        raise ValueError("refusing to write an empty image")
    # the min and max of an array holding NaN are NaN, which would pass
    # the range test below
    if not np.isfinite(image).all():
        raise ValueError("pixel values must be finite")
    lo, hi = float(image.min()), float(image.max())
    if lo < 0.0 or hi > 1.0:
        raise ValueError(f"pixel values must lie in [0, 1], found [{lo}, {hi}]")
    h, w = image.shape
    pixels = np.rint(image * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def _header_ended(blob: bytes, path: str) -> ValueError:
    if len(blob) < MAX_HEADER_BYTES:
        return ValueError(f"{path}: header ended early")
    return ValueError(f"{path}: header longer than {MAX_HEADER_BYTES} bytes")


def _read_header_token(blob: bytes, pos: int, path: str) -> tuple[bytes, int]:
    n = len(blob)
    while pos < n:
        c = blob[pos : pos + 1]
        if c == b"#":
            while pos < n and blob[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise _header_ended(blob, path)
    start = pos
    while pos < n and not blob[pos : pos + 1].isspace():
        pos += 1
    return blob[start:pos], pos


def read_pgm(path: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Load a binary PGM as its read-only (height, width) uint8 pixels.
    Only maxval 255 is accepted.

    The header must end within the first MAX_HEADER_BYTES bytes, the
    image may hold at most MAX_PGM_PIXELS pixels, and the file must hold
    exactly the header plus one byte per pixel. If shape is given, the
    image's (height, width) must equal it. The caps, the shape and
    the file size are checked before the pixels are read, so a long,
    sparse, doctored or wrong-sized file is refused without allocating
    what it declares.
    """
    # unbuffered, so the header and the pixels are one read each with no
    # copy through a buffer
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(MAX_HEADER_BYTES)
        if head[:2] != b"P5":
            raise ValueError(f"{path}: not a binary PGM (magic {head[:2]!r})")
        pos = 2
        fields = []
        for _ in range(3):
            token, pos = _read_header_token(head, pos, path)
            try:
                fields.append(int(token))
            except ValueError:
                raise ValueError(f"{path}: bad header token {token!r}") from None
        if pos == MAX_HEADER_BYTES:
            # the maxval token may go on past the prefix
            raise _header_ended(head, path)
        w, h, maxval = fields
        if maxval != 255:
            raise ValueError(f"{path}: maxval {maxval} unsupported, expected 255")
        if w < 1 or h < 1:
            raise ValueError(f"{path}: bad dimensions {w}x{h}")
        if shape is not None and (h, w) != shape:
            raise ValueError(f"{path}: got {w}x{h}, expected {shape[1]}x{shape[0]}")
        if w * h > MAX_PGM_PIXELS:
            raise ValueError(f"{path}: {w}x{h} is over the {MAX_PGM_PIXELS}-pixel limit")
        start = pos + 1  # the single whitespace byte after maxval
        expected = w * h
        found = os.fstat(fh.fileno()).st_size - start
        if found > expected:
            raise ValueError(
                f"{path}: {found - expected} trailing bytes after {expected} bytes of pixels"
            )
        fh.seek(start)
        data = fh.read(expected)
    if len(data) != expected:
        raise ValueError(
            f"{path}: pixel data truncated, expected {expected} bytes, "
            f"found {len(data)}"
        )
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


class ImageStack:
    """A read-only stack of 8-bit images that reads as float32 in [0, 1].

    pixels is an (n, height, width, 1) uint8 array. Indexing with an
    int, a slice or an int array converts only the images selected, to
    pixels[key].astype(np.float32) / 255.0, so a consumer that takes a
    batch at a time never holds the whole split as float32. Iteration
    yields one float32 image at a time and np.asarray converts them all.
    """

    dtype = np.dtype(np.float32)

    def __init__(self, pixels: np.ndarray):
        if pixels.dtype != np.uint8 or pixels.ndim != 4 or pixels.shape[3] != 1:
            raise ValueError(
                f"expected (n, h, w, 1) uint8 pixels, got {pixels.dtype} {pixels.shape}"
            )
        self.pixels = pixels.view()
        self.pixels.flags.writeable = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.pixels.shape

    def __len__(self) -> int:
        return len(self.pixels)

    def __getitem__(self, key) -> np.ndarray:
        images = self.pixels[key].astype(np.float32)
        # in place, the same float32 division as images / 255.0
        images /= 255.0
        return images

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("an ImageStack converts to float32 only by copying")
        images = self[:]
        return images if dtype is None else images.astype(dtype, copy=False)


def write_dataset(
    root: str,
    images: Iterable[np.ndarray],
    labels: np.ndarray,
    master_seed: int,
    extra: dict | None = None,
) -> None:
    """Write images into the class-directory layout with a manifest.

    images is an array or any iterable of same-sized images, such as a
    generator, and is consumed one image at a time, so a split need not
    be held in memory whole. The manifest is written last: an image and
    label count that disagree, or an image of another size, raise
    ValueError before it.
    """
    counts = [0] * NUM_CLASSES
    size = None
    os.makedirs(root, exist_ok=True)
    for name in CLASS_NAMES:
        os.makedirs(os.path.join(root, name), exist_ok=True)
    images = iter(images)
    for label in labels:
        image = next(images, None)
        if image is None:
            raise ValueError("images and labels disagree in length")
        if size is None:
            size = image.shape[:2]
        elif image.shape[:2] != size:
            raise ValueError(f"image of size {image.shape[:2]} among images of {size}")
        name = CLASS_NAMES[int(label)]
        index = counts[int(label)]
        counts[int(label)] += 1
        write_pgm(os.path.join(root, name, f"{index:05d}.pgm"), image)
        # dropped before the next image is made, so a generator's images
        # are held one at a time
        del image
    if next(images, None) is not None:
        raise ValueError("images and labels disagree in length")
    if size is None:
        raise ValueError("no images to write")
    manifest = {
        "version": MANIFEST_VERSION,
        "height": int(size[0]),
        "width": int(size[1]),
        "master_seed": int(master_seed),
        "counts": {name: counts[i] for i, name in enumerate(CLASS_NAMES)},
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(root, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_int_at_least(value, minimum: int) -> bool:
    # JSON true/false load as bool, which Python treats as an int
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def read_manifest(root: str) -> dict:
    """The parsed manifest.json; a malformed one raises ValueError.

    A file over MAX_MANIFEST_BYTES is refused before it is read. The
    top level and "counts" must be JSON objects, "height" and "width"
    positive integers, every key of "counts" a class name and every
    count a non-negative integer. A class missing from "counts" has no
    images.
    """
    path = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {root}")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > MAX_MANIFEST_BYTES:
            raise ValueError(
                f"{path}: manifest is {size} bytes, over the {MAX_MANIFEST_BYTES}-byte limit"
            )
        try:
            manifest = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: manifest nested too deeply") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    for key in ("version", "height", "width", "counts"):
        if key not in manifest:
            raise ValueError(f"{path}: manifest missing {key!r}")
    if manifest["version"] != MANIFEST_VERSION:
        raise ValueError(
            f"{path}: manifest version {manifest['version']}, "
            f"expected {MANIFEST_VERSION}"
        )
    for key in ("height", "width"):
        if not _is_int_at_least(manifest[key], 1):
            raise ValueError(f"{path}: {key} {manifest[key]!r} is not a positive integer")
    counts = manifest["counts"]
    if not isinstance(counts, dict):
        raise ValueError(f"{path}: counts is not a JSON object")
    for name, count in counts.items():
        if name not in CLASS_NAMES:
            raise ValueError(
                f"{path}: counts names unknown class {name!r}, expected one of {CLASS_NAMES}"
            )
        if not _is_int_at_least(count, 0):
            raise ValueError(
                f"{path}: count {count!r} for {name!r} is not a non-negative integer"
            )
    return manifest


def read_dataset(root: str) -> tuple[ImageStack, np.ndarray]:
    """Load every image listed in the manifest, in class then index order.

    Returns (images, labels). images is an ImageStack of shape
    (N, height, width, 1): the pixels are read into one uint8 array
    allocated up front, one byte per pixel, and converted to float32
    only as they are indexed. A listed file that is missing
    raises FileNotFoundError; a malformed manifest or image raises
    ValueError, and a file of any size but the manifest's, twice it
    included, is refused after its header.
    The manifest comes from outside, so the array is allocated only once
    every listed file exists and the first holds an image of the
    manifest's size.
    """
    manifest = read_manifest(root)
    h, w = manifest["height"], manifest["width"]
    paths = []
    labels = []
    for label, name in enumerate(CLASS_NAMES):
        count = manifest["counts"].get(name, 0)
        for index in range(count):
            path = os.path.join(root, name, f"{index:05d}.pgm")
            if not os.path.exists(path):
                raise FileNotFoundError(
                    f"manifest promises {count} {name} images but {path} is missing"
                )
            paths.append(path)
            labels.append(label)
    if not paths:
        raise ValueError(f"{root}: manifest lists no images")
    first = read_pgm(paths[0], (h, w))
    pixels = np.empty((len(paths), h, w, 1), np.uint8)
    pixels[0, :, :, 0] = first
    for i in range(1, len(paths)):
        pixels[i, :, :, 0] = read_pgm(paths[i], (h, w))
    return ImageStack(pixels), np.array(labels, dtype=np.int64)
