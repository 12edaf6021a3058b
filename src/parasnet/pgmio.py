"""Binary PGM (P5) reading and writing plus the on-disk dataset layout.

A dataset directory holds one subdirectory per class, each containing
zero-padded NNNNN.pgm files, and a manifest.json recording the counts,
the image size, the generator version and the master seed. Files at
exactly twice the manifest resolution are averaged down 2x2 on read,
so full-resolution captures and pre-scaled images can be mixed.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Iterable

import numpy as np

from . import CLASS_NAMES, NUM_CLASSES

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


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
        raise ValueError(f"{path}: header ended early")
    start = pos
    while pos < n and not blob[pos : pos + 1].isspace():
        pos += 1
    return blob[start:pos], pos


def read_pgm(path: str) -> np.ndarray:
    """Load a binary PGM as float32 in [0, 1]. Only maxval 255 is accepted."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {blob[:2]!r})")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_header_token(blob, pos, path)
        try:
            fields.append(int(token))
        except ValueError:
            raise ValueError(f"{path}: bad header token {token!r}") from None
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: maxval {maxval} unsupported, expected 255")
    if w < 1 or h < 1:
        raise ValueError(f"{path}: bad dimensions {w}x{h}")
    pos += 1  # the single whitespace byte after maxval
    expected = w * h
    data = blob[pos : pos + expected]
    if len(data) != expected:
        raise ValueError(
            f"{path}: pixel data truncated, expected {expected} bytes, "
            f"found {len(data)}"
        )
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(h, w)
    return pixels.astype(np.float32) / 255.0


def downscale_2x2(image: np.ndarray) -> np.ndarray:
    """Average non-overlapping 2x2 blocks. Both sides must be even."""
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    h, w = image.shape
    if h % 2 or w % 2:
        raise ValueError(f"dimensions {h}x{w} are not divisible by 2")
    return image.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3)).astype(image.dtype)


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
    for image, label in itertools.zip_longest(images, labels):
        if image is None or label is None:
            raise ValueError("images and labels disagree in length")
        if size is None:
            size = image.shape[:2]
        elif image.shape[:2] != size:
            raise ValueError(f"image of size {image.shape[:2]} among images of {size}")
        name = CLASS_NAMES[int(label)]
        index = counts[int(label)]
        counts[int(label)] += 1
        write_pgm(os.path.join(root, name, f"{index:05d}.pgm"), image)
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

    The top level and "counts" must be JSON objects, "height" and
    "width" positive integers, every key of "counts" a class name and
    every count a non-negative integer. A class missing from "counts"
    has no images.
    """
    path = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {root}")
    with open(path, "rb") as fh:
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


def _read_image(path: str, h: int, w: int) -> np.ndarray:
    """The (h, w) image in a dataset file, downscaled if it is (2h, 2w)."""
    img = read_pgm(path)
    if img.shape == (2 * h, 2 * w):
        return downscale_2x2(img)
    if img.shape != (h, w):
        raise ValueError(
            f"{path}: got {img.shape[1]}x{img.shape[0]}, expected "
            f"{w}x{h} or {2 * w}x{2 * h}"
        )
    return img


def read_dataset(root: str) -> tuple[np.ndarray, np.ndarray]:
    """Load every image listed in the manifest, in class then index order.

    Returns (images, labels) with images shaped (N, height, width, 1),
    read into one array allocated up front. Files at twice the manifest
    resolution are downscaled on the fly. A listed file that is missing
    raises FileNotFoundError; a malformed manifest or image raises
    ValueError. The manifest comes from outside, so the array is
    allocated only once every listed file exists and the first holds an
    image of the manifest's size.
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
    first = _read_image(paths[0], h, w)
    images = np.empty((len(paths), h, w, 1), first.dtype)
    images[0, :, :, 0] = first
    for i in range(1, len(paths)):
        images[i, :, :, 0] = _read_image(paths[i], h, w)
    return images, np.array(labels, dtype=np.int64)
