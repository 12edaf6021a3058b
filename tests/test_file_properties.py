"""Property tests: every file reader loads or raises its documented error.

Arbitrary bytes, and random mutations of a valid file (flipped bytes,
overwritten 32-bit fields, truncation, insertion), are fed to each
reader. A PGM or manifest may only raise ValueError (read_dataset also
FileNotFoundError when a listed image is missing), a checkpoint only
CheckpointError and a baseline model only BaselineFileError. Any other
exception, a MemoryError included, fails the test. Metadata saved with
either binary format must read back unchanged, or the save must raise
ValueError. Likewise an image, NaN and infinite pixels included, must
read back from write_pgm's file, or write_pgm must raise ValueError
before it creates the file, and so must the container writer behind
both binary formats for an array that is not finite in the file dtype.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dataset_writer import write_dataset
from parasnet import CLASS_NAMES, container, pgmio
from parasnet import model as pm
from parasnet.baseline import classify

# derandomized so that tier-1 runs are repeatable; the budget keeps the
# whole file to a few seconds
FAST = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def mutations(blob: bytes):
    """Up to four edits of blob, biased towards its header and its tail."""
    n = len(blob)
    position = st.one_of(
        st.integers(0, min(n, 24)), st.integers(max(0, n - 24), n), st.integers(0, n)
    )
    edit = st.one_of(
        st.tuples(st.just("flip"), position, st.integers(1, 255)),
        st.tuples(st.just("u32"), position, st.integers(0, 2**32 - 1)),
        st.tuples(st.just("cut"), position, st.just(0)),
        st.tuples(st.just("insert"), position, st.binary(max_size=8)),
    )

    def apply(edits):
        data = bytearray(blob)
        for kind, pos, arg in edits:
            if kind == "flip" and pos < len(data):
                data[pos] ^= arg
            elif kind == "u32":
                data[pos : pos + 4] = arg.to_bytes(4, "little")
            elif kind == "cut":
                del data[pos:]
            elif kind == "insert":
                data[pos:pos] = arg
        return bytes(data)

    return st.lists(edit, min_size=1, max_size=4).map(apply)


def hostile(valid: bytes):
    return st.one_of(st.binary(max_size=256), mutations(valid))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


def _write(path, blob: bytes) -> str:
    with open(path, "wb") as fh:
        fh.write(blob)
    return str(path)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


VALID_PGM = b"P5\n7 5\n255\n" + bytes(range(100, 135))


@pytest.fixture(scope="module")
def valid_checkpoint(workdir):
    model = pm.build_model(1, seed=3)
    model.meta = {"dataset": "synthetic"}
    path = workdir / "valid.pnet"
    pm.save_checkpoint(model, str(path))
    return _read(path)


def _baseline(meta: dict) -> classify.BaselineModel:
    rng = np.random.default_rng(4)
    arrays = {name: rng.random(shape) for name, shape in classify._model_arrays(2)}
    return classify.BaselineModel(meta=meta, **arrays)


@pytest.fixture(scope="module")
def valid_baseline(workdir):
    path = workdir / "valid.pbas"
    classify.save_baseline(_baseline({"gap": "0.2"}), str(path))
    return _read(path)


def test_valid_files_load(workdir, valid_checkpoint, valid_baseline):
    assert pgmio.read_pgm(_write(workdir / "v.pgm", VALID_PGM)).shape == (5, 7)
    assert pm.load_checkpoint(_write(workdir / "v.pnet", valid_checkpoint)).filters == 1
    assert classify.load_baseline(_write(workdir / "v.pbas", valid_baseline)).vocab_size == 2


# ordinary text, the checkpoint's own "seed" key, and the characters
# that can break a key=value line
LINE_BREAKS = ["\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"]
meta_dicts = st.dictionaries(
    st.one_of(st.text(max_size=6), st.just("seed"), st.sampled_from(["", "=", *LINE_BREAKS])),
    st.one_of(st.text(max_size=6), st.sampled_from(["", "9", "a=b", *LINE_BREAKS])),
    max_size=2,
)


@FAST
@given(meta=meta_dicts)
def test_checkpoint_metadata_round_trips_or_save_raises(workdir, meta):
    model = pm.build_model(1, seed=5)
    model.meta = dict(meta)
    path = str(workdir / "meta.pnet")
    try:
        pm.save_checkpoint(model, path)
    except ValueError:
        return
    loaded = pm.load_checkpoint(path)
    assert loaded.meta == meta and loaded.init_seed == 5


@FAST
@given(meta=meta_dicts)
def test_baseline_metadata_round_trips_or_save_raises(workdir, meta):
    path = str(workdir / "meta.pbas")
    try:
        classify.save_baseline(_baseline(dict(meta)), path)
    except ValueError:
        return
    assert classify.load_baseline(path).meta == meta


UNREADABLE_META = [
    {"note": "a\nseed=9", "x=y": "z"},
    {"x=y": "z"},
    *({"k": f"v{brk}w"} for brk in LINE_BREAKS),
]


@pytest.mark.parametrize("meta", UNREADABLE_META + [{"seed": "9"}, {"seed": "abc"}])
def test_checkpoint_save_rejects_unreadable_metadata_before_writing(tmp_path, meta):
    model = pm.build_model(1, seed=5)
    model.meta = meta
    path = tmp_path / "m.pnet"
    with pytest.raises(ValueError, match="would not read back"):
        pm.save_checkpoint(model, str(path))
    assert not path.exists()


@pytest.mark.parametrize("meta", UNREADABLE_META)
def test_baseline_save_rejects_unreadable_metadata_before_writing(tmp_path, meta):
    path = tmp_path / "m.pbas"
    with pytest.raises(ValueError, match="would not read back"):
        classify.save_baseline(_baseline(meta), str(path))
    assert not path.exists()


@FAST
@given(values=arrays(np.float64, st.integers(1, 6), elements=st.one_of(
    st.floats(), st.sampled_from([np.nan, np.inf, -np.inf, 1e39, -1e39]))))
def test_container_arrays_read_back_or_write_raises(workdir, values):
    path = workdir / "values.bin"
    if path.exists():
        path.unlink()
    with np.errstate(over="ignore"):
        stored = values.astype("<f4")
        try:
            container.write(str(path), b"TEST", 1, values.size, [values], "<f4", [])
        except ValueError:
            assert not np.isfinite(stored).all()
            assert not path.exists()
            return
    _, arrays_read, _ = container.read(
        str(path), b"TEST", 1, "count", lambda n: [("values", (n,))], "<f4", (ValueError,) * 4
    )
    assert arrays_read["values"].tobytes() == stored.tobytes()


pgm_images = arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 5)),
    elements=st.one_of(
        st.floats(0.0, 1.0), st.floats(), st.sampled_from([np.nan, np.inf, -np.inf])
    ),
)


@FAST
@given(image=pgm_images)
def test_pgm_round_trips_or_write_raises_before_opening(workdir, image):
    path = workdir / "written.pgm"
    if path.exists():
        path.unlink()
    # NaN fails both comparisons, so it counts as out of range
    in_range = bool(((image >= 0.0) & (image <= 1.0)).all())
    try:
        pgmio.write_pgm(str(path), image)
    except ValueError:
        assert not in_range and not path.exists()
        return
    assert in_range
    expected = np.rint(image * 255.0).astype(np.uint8)
    np.testing.assert_array_equal(pgmio.read_pgm(str(path)), expected)


pgm_headers = st.builds(
    lambda w, h, maxval, sep, body: f"P5{sep}{w} {h}{sep}{maxval}".encode("ascii") + body,
    st.integers(-2, 2**40),
    st.integers(-2, 2**40),
    st.sampled_from([0, 255, 256, 65535]),
    st.sampled_from(["\n", " ", "\n# note\n", "\t"]),
    st.binary(max_size=64),
)


@FAST
@given(blob=st.one_of(hostile(VALID_PGM), pgm_headers))
def test_read_pgm_loads_or_raises_value_error(workdir, blob):
    path = _write(workdir / "hostile.pgm", blob)
    try:
        image = pgmio.read_pgm(path)
    except ValueError:
        return
    assert image.dtype == np.uint8 and image.ndim == 2


@FAST
@given(data=st.data())
def test_load_checkpoint_loads_or_raises_checkpoint_error(workdir, valid_checkpoint, data):
    blob = data.draw(hostile(valid_checkpoint))
    path = _write(workdir / "hostile.pnet", blob)
    try:
        model = pm.load_checkpoint(path)
    except pm.CheckpointError:
        return
    assert [p.shape for p in pm.parameters(model)] == pm.parameter_shapes(model.filters)


@FAST
@given(data=st.data())
def test_load_baseline_loads_or_raises_baseline_file_error(workdir, valid_baseline, data):
    blob = data.draw(hostile(valid_baseline))
    path = _write(workdir / "hostile.pbas", blob)
    try:
        model = classify.load_baseline(path)
    except classify.BaselineFileError:
        return
    assert model.svm_weights.shape == (len(CLASS_NAMES), model.vocab_size + 1)


@pytest.fixture(scope="module")
def dataset_root(workdir):
    root = str(workdir / "dataset")
    images = np.random.default_rng(6).random((6, 8, 12, 1)).astype(np.float32)
    write_dataset(root, images, np.repeat(np.arange(3), 2), master_seed=1)
    return root, _read(os.path.join(root, pgmio.MANIFEST_NAME))


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _manifest_variants(valid: bytes):
    manifest = json.loads(valid)
    keys = sorted(manifest) + ["counts." + name for name in CLASS_NAMES]

    def replace(key_and_value):
        key, value = key_and_value
        edited = json.loads(valid)
        if key.startswith("counts."):
            edited["counts"][key[len("counts.") :]] = value
        else:
            edited[key] = value
        return json.dumps(edited).encode("utf-8")

    return st.one_of(
        hostile(valid),
        json_values.map(lambda v: json.dumps(v).encode("utf-8")),
        st.tuples(st.sampled_from(keys), json_values).map(replace),
    )


@FAST
@given(data=st.data())
def test_read_manifest_and_dataset_load_or_raise_value_error(dataset_root, data):
    root, valid = dataset_root
    blob = data.draw(_manifest_variants(valid))
    _write(os.path.join(root, pgmio.MANIFEST_NAME), blob)
    try:
        manifest = pgmio.read_manifest(root)
    except ValueError:
        pass
    else:
        assert isinstance(manifest["counts"], dict)
    try:
        images, labels = pgmio.read_dataset(root)
    except (ValueError, FileNotFoundError):
        return
    assert images.shape[0] == len(labels) and images.shape[3] == 1
