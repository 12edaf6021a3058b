"""Bounded container reads: the file's size is checked against what its
header implies before the body is read, so a long, sparse or doctored
.pnet or .pbas file is refused without allocating what it declares."""

import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from parasnet import NUM_CLASSES, container
from parasnet import model as pm
from parasnet.baseline import classify
from parasnet.baseline.sift import DESCRIPTOR_SIZE


def _save_pnet(path):
    pm.save_checkpoint(pm.build_model(1, seed=0), path)


def _save_pbas(path):
    k = 4
    rng = np.random.default_rng(0)
    model = classify.BaselineModel(
        vocabulary=rng.random((k, DESCRIPTOR_SIZE)),
        svm_weights=rng.normal(0, 1, (NUM_CLASSES, k + 1)),
        platt=np.tile([-2.0, 0.0], (NUM_CLASSES, 1)),
        nb_means=rng.random((NUM_CLASSES, k)),
        nb_vars=np.full((NUM_CLASSES, k), 0.1),
        nb_log_priors=np.log(np.full(NUM_CLASSES, 1.0 / NUM_CLASSES)),
    )
    classify.save_baseline(model, path)


# save, load, base error, truncated error
FORMATS = {
    "pnet": (_save_pnet, pm.load_checkpoint, pm.CheckpointError, pm.CheckpointTruncatedError),
    "pbas": (_save_pbas, classify.load_baseline, classify.BaselineFileError,
             classify.BaselineTruncatedError),
}


def _refusal_peak(load, path, error, match):
    """(the error load raised, tracemalloc's peak bytes while it ran)"""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match) as raised:
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return raised.value, peak


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_sparse_tail_is_refused_before_reading(tmp_path, fmt):
    save, load, base, truncated = FORMATS[fmt]
    path = str(tmp_path / f"model.{fmt}")
    save(path)
    os.truncate(path, 64 * 2**20)
    error, peak = _refusal_peak(load, path, base, "trailing bytes")
    assert not isinstance(error, truncated)
    assert peak < 2**20


def test_an_over_cap_header_is_refused_before_reading(tmp_path):
    # a sparse file exactly as long as its header implies, so only the
    # cap stands between the header and a 311 MB allocation
    filters = 1400
    size = 4 * sum(math.prod(shape) for shape in pm.parameter_shapes(filters))
    assert size > container.MAX_ARRAY_BYTES
    path = tmp_path / "wide.pnet"
    path.write_bytes(pm.CHECKPOINT_MAGIC + struct.pack("<II", pm.CHECKPOINT_VERSION, filters))
    os.truncate(path, 12 + size + 4)
    error, peak = _refusal_peak(
        pm.load_checkpoint, str(path), pm.CheckpointError, f"implausible filter count {filters}"
    )
    assert not isinstance(error, pm.CheckpointTruncatedError)
    assert peak < 2**20


def test_an_over_cap_metadata_length_is_refused_before_reading(tmp_path):
    path = tmp_path / "model.pnet"
    _save_pnet(str(path))
    # the file ends with the u32 length and the 6 bytes of "seed=0"
    body = path.read_bytes()[:-10]
    meta_len = container.MAX_META_BYTES + 1
    path.write_bytes(body + struct.pack("<I", meta_len))
    os.truncate(path, len(body) + 4 + meta_len)
    error, peak = _refusal_peak(
        pm.load_checkpoint, str(path), pm.CheckpointError, f"implausible metadata length {meta_len}"
    )
    assert not isinstance(error, pm.CheckpointTruncatedError)
    assert peak < 2**20


def test_write_refuses_what_read_would_refuse(tmp_path, monkeypatch):
    path = tmp_path / "values.bin"
    long_note = [("note", "x" * container.MAX_META_BYTES)]
    with pytest.raises(ValueError, match="metadata holds more than"):
        container.write(str(path), b"TEST", 1, 1, [np.zeros(1)], "<f4", long_note)
    monkeypatch.setattr(container, "MAX_ARRAY_BYTES", 8)
    with pytest.raises(ValueError, match="arrays hold more than 8 bytes"):
        container.write(str(path), b"TEST", 1, 3, [np.zeros(3)], "<f4", [])
    assert not path.exists()
