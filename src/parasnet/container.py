"""The binary container behind .pnet checkpoints and .pbas baseline models.

Layout, every integer a little-endian u32: 4 magic bytes, the format
version, a count (the filter count or the vocabulary size) that fixes
the shape of every array, the arrays in a fixed order as little-endian
floats, then the byte length of a UTF-8 metadata block holding one
key=value line per entry.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Callable

import numpy as np

MAX_COUNT = 65536
# what one file may hold, so that reading never allocates more: a .pbas
# file at MAX_COUNT holds 72 MB of arrays and a .pnet file 165 MB at
# 1,000 filters (the paper's widest is 16)
MAX_ARRAY_BYTES = 2**28
MAX_META_BYTES = 2**20


def write(
    path: str, magic: bytes, version: int, count: int, arrays: list[np.ndarray], dtype: str,
    meta: list[tuple[str, str]],
) -> None:
    """Write arrays and ordered metadata pairs to path.

    Raises ValueError, before the file is opened, for data that would
    not read back as written: an array holding a non-finite value once
    cast to dtype, arrays of more than MAX_ARRAY_BYTES in all, metadata
    of more than MAX_META_BYTES, or metadata with a repeated key, "=" in
    a key, or a line break (any that str.splitlines knows) in a key or
    value.
    """
    blobs = [np.ascontiguousarray(array, dtype=dtype) for array in arrays]
    for i, blob in enumerate(blobs):
        if not np.isfinite(blob).all():
            raise ValueError(f"array {i} holds non-finite values as {dtype}")
    if sum(blob.nbytes for blob in blobs) > MAX_ARRAY_BYTES:
        raise ValueError(f"arrays hold more than {MAX_ARRAY_BYTES} bytes")
    lines = []
    seen = set()
    for key, value in meta:
        line = f"{key}={value}"
        if key in seen or "=" in key or line.splitlines() != [line]:
            raise ValueError(f"metadata entry {key!r}={value!r} would not read back")
        seen.add(key)
        lines.append(line)
    text = "\n".join(lines).encode("utf-8")
    if len(text) > MAX_META_BYTES:
        raise ValueError(f"metadata holds more than {MAX_META_BYTES} bytes")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<II", version, count))
        for blob in blobs:
            fh.write(blob.tobytes())
        fh.write(struct.pack("<I", len(text)) + text)


def _require(available: int, needed: int, what: str, truncated: type[Exception]) -> None:
    if needed > available:
        missing = needed - available
        raise truncated(f"file truncated while reading {what}: {missing} bytes missing")


def _take(blob: bytes, offset: int, count: int, what: str, truncated: type[Exception]):
    _require(len(blob), offset + count, what, truncated)
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
    1..MAX_COUNT, arrays of more than MAX_ARRAY_BYTES, metadata of more
    than MAX_META_BYTES, a non-finite value, trailing bytes, or metadata
    that is not UTF-8. The file's size is checked against what its
    header implies before the body is read, so a long or sparse file
    cannot make this allocate more than those caps allow.
    """
    base, bad_magic, bad_version, truncated = errors
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        found, offset = _take(head, 0, 4, "magic", truncated)
        if found != magic:
            raise bad_magic(f"bad magic {found!r}, expected {magic!r}")
        header, offset = _take(head, offset, 8, "header", truncated)
        found_version, count = struct.unpack("<II", header)
        if found_version != version:
            raise bad_version(
                f"unsupported {magic.decode('ascii')} version {found_version}, expected {version}"
            )
        if not 1 <= count <= MAX_COUNT:
            raise base(f"implausible {count_name} {count}")

        shapes = layout(count)
        # the header alone fixes the array byte count; a doctored header
        # can declare GBs, and a file that long can still be sparse
        size = np.dtype(dtype).itemsize * sum(math.prod(shape) for _, shape in shapes)
        _require(file_size, offset + size, "arrays", truncated)
        _require(file_size, offset + size + 4, "metadata length", truncated)
        if size > MAX_ARRAY_BYTES:
            raise base(f"implausible {count_name} {count}: {size} bytes of arrays")
        fh.seek(offset + size)
        raw_len, _ = _take(fh.read(4), 0, 4, "metadata length", truncated)
        (meta_len,) = struct.unpack("<I", raw_len)
        end = offset + size + 4 + meta_len
        _require(file_size, end, "metadata", truncated)
        if file_size > end:
            raise base(f"{file_size - end} trailing bytes after metadata")
        if meta_len > MAX_META_BYTES:
            raise base(f"implausible metadata length {meta_len}")
        fh.seek(offset)
        body = fh.read(end - offset)
    # a file cut short since fstat reads as truncated here
    _require(len(body), end - offset, "arrays and metadata", truncated)

    arrays = {}
    start = 0
    for name, shape in shapes:
        array = np.frombuffer(body, dtype, math.prod(shape), start).reshape(shape)
        if not np.isfinite(array).all():
            raise base(f"{name} holds non-finite values")
        arrays[name] = array.copy()
        start += array.nbytes
    try:
        text = body[size + 4 :].decode("utf-8")
    except UnicodeDecodeError as err:
        raise base(f"metadata is not UTF-8: {err}") from None
    meta = {}
    for line in text.splitlines():
        if line:
            key, _, value = line.partition("=")
            meta[key] = value
    return count, arrays, meta
