"""The binary container behind .pnet checkpoints and .pbas baseline models.

Layout, every integer a little-endian u32: 4 magic bytes, the format
version, a count (the filter count or the vocabulary size) that fixes
the shape of every array, the arrays in a fixed order as little-endian
floats, then the byte length of a UTF-8 metadata block holding one
key=value line per entry.
"""

from __future__ import annotations

import math
import struct
from typing import Callable

import numpy as np

MAX_COUNT = 65536


def write(
    path: str, magic: bytes, version: int, count: int, arrays: list[np.ndarray], dtype: str,
    meta: list[tuple[str, str]],
) -> None:
    """Write arrays and ordered metadata pairs to path.

    Raises ValueError, before the file is opened, for data that would
    not read back as written: an array holding a non-finite value once
    cast to dtype, or metadata with a repeated key, "=" in a key, or a
    line break (any that str.splitlines knows) in a key or value.
    """
    blobs = [np.ascontiguousarray(array, dtype=dtype) for array in arrays]
    for i, blob in enumerate(blobs):
        if not np.isfinite(blob).all():
            raise ValueError(f"array {i} holds non-finite values as {dtype}")
    lines = []
    seen = set()
    for key, value in meta:
        line = f"{key}={value}"
        if key in seen or "=" in key or line.splitlines() != [line]:
            raise ValueError(f"metadata entry {key!r}={value!r} would not read back")
        seen.add(key)
        lines.append(line)
    text = "\n".join(lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<II", version, count))
        for blob in blobs:
            fh.write(blob.tobytes())
        fh.write(struct.pack("<I", len(text)) + text)


def _take(blob: bytes, offset: int, count: int, what: str, truncated: type[Exception]):
    if offset + count > len(blob):
        missing = offset + count - len(blob)
        raise truncated(f"file truncated while reading {what}: {missing} bytes missing")
    return blob[offset : offset + count], offset + count


def read(
    path: str, magic: bytes, version: int, count_name: str,
    layout: Callable[[int], list[tuple[str, tuple[int, ...]]]], dtype: str,
    errors: tuple[type[Exception], type[Exception], type[Exception], type[Exception]],
) -> tuple[int, dict[str, np.ndarray], dict[str, str]]:
    """Read a file that write() made: (count, named arrays, metadata).

    layout maps the header's count to each array's (name, shape).
    errors are the format's (base, bad magic, bad version, truncated)
    classes, the last three subclasses of the first. Besides those two
    checks and truncation, the base class is raised for a count outside
    1..MAX_COUNT, a non-finite value, trailing bytes, or metadata that
    is not UTF-8.
    """
    base, bad_magic, bad_version, truncated = errors
    with open(path, "rb") as fh:
        blob = fh.read()
    found, offset = _take(blob, 0, 4, "magic", truncated)
    if found != magic:
        raise bad_magic(f"bad magic {found!r}, expected {magic!r}")
    header, offset = _take(blob, offset, 8, "header", truncated)
    found_version, count = struct.unpack("<II", header)
    if found_version != version:
        raise bad_version(
            f"unsupported {magic.decode('ascii')} version {found_version}, expected {version}"
        )
    if not 1 <= count <= MAX_COUNT:
        raise base(f"implausible {count_name} {count}")

    shapes = layout(count)
    # the header alone fixes the array byte count: check it against the
    # file before allocating, since a doctored header can declare GBs
    size = np.dtype(dtype).itemsize * sum(math.prod(shape) for _, shape in shapes)
    raw, offset = _take(blob, offset, size, "arrays", truncated)
    arrays = {}
    start = 0
    for name, shape in shapes:
        array = np.frombuffer(raw, dtype, math.prod(shape), start).reshape(shape)
        if not np.isfinite(array).all():
            raise base(f"{name} holds non-finite values")
        arrays[name] = array.copy()
        start += array.nbytes

    raw_len, offset = _take(blob, offset, 4, "metadata length", truncated)
    (meta_len,) = struct.unpack("<I", raw_len)
    raw_meta, offset = _take(blob, offset, meta_len, "metadata", truncated)
    if offset != len(blob):
        raise base(f"{len(blob) - offset} trailing bytes after metadata")
    try:
        text = raw_meta.decode("utf-8")
    except UnicodeDecodeError as err:
        raise base(f"metadata is not UTF-8: {err}") from None
    meta = {}
    for line in text.splitlines():
        if line:
            key, _, value = line.partition("=")
            meta[key] = value
    return count, arrays, meta
