"""Acceptance checks for the shipped claims, one printed line each.

Run with -s to watch the lines appear; every test prints

    criterion NN <name>: PASS/FAIL (detail)

before asserting, so the verdict is visible even when a later assert
trips. The heavy fixtures (the seed-7 synthetic dataset, one trained
network, one trained baseline) are built once and shared; the module is
sized for a single desktop CPU core and takes about ten minutes.
"""

import os
import time

import numpy as np
import pytest

from fd import central_diff_grad, kink_pattern, rel_error
from parasnet import CRYPTO, cli, evaluation as ev, ops, synth, tsne as ts
from parasnet import model as pm
from parasnet import training as tr
from parasnet.baseline import classify

MASTER_SEED = 7
TRAIN_PER_CLASS = 300
TEST_PER_CLASS = 100
TRAIN_EPOCHS = 10
SWEEP_EPOCHS = 2


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)


@pytest.fixture(scope="module")
def dataset():
    config = synth.GenConfig()
    train = synth.gen_dataset(config, MASTER_SEED, "train", TRAIN_PER_CLASS)
    test = synth.gen_dataset(config, MASTER_SEED, "test", TEST_PER_CLASS)
    return train, test


@pytest.fixture(scope="module")
def trained(dataset):
    train, test = dataset
    net = pm.build_model(8, seed=0)
    config = tr.TrainConfig(epochs=TRAIN_EPOCHS, seed=0)
    started = time.perf_counter()
    rep = tr.fit(net, train.images, train.labels, test.images, test.labels, config)
    seconds = time.perf_counter() - started
    return net, rep, seconds


@pytest.fixture(scope="module")
def baseline(dataset):
    train, test = dataset
    clf = classify.train_baseline(
        train.images, train.labels, classify.BaselineTrainConfig(seed=0)
    )
    confusion = ev.evaluate(clf, test.images, test.labels)
    return clf, confusion


def test_c01_parameter_count():
    started = time.perf_counter()
    net = pm.build_model(8, seed=0)
    per_layer = pm.layer_param_counts(net)
    total = pm.param_count(net)
    elapsed = time.perf_counter() - started
    ok = (
        per_layer == [80, 584, 584, 584, 584, 41088, 387]
        and total == 43891
        and elapsed < 1.0
    )
    report(1, "parameter count", ok, f"total {total}, {elapsed:.2f}s")
    assert per_layer == [80, 584, 584, 584, 584, 41088, 387]
    assert total == 43891
    assert elapsed < 1.0


def test_c02_shape_trace():
    expected = [
        (242, 322, 8), (121, 161, 8),
        (119, 159, 8), (59, 79, 8),
        (57, 77, 8), (28, 38, 8),
        (26, 36, 8), (13, 18, 8),
        (11, 16, 8), (5, 8, 8),
        (128,), (3,),
    ]
    started = time.perf_counter()
    net = pm.build_model(8, seed=0)
    image = np.random.default_rng(0).random((1, 244, 324, 1), dtype=np.float32)
    probs, hidden, cache = pm.forward_batch(net, image, want_cache=True)

    traced = []
    for stage in range(5):
        traced.append(tuple(cache.conv_pre[stage].shape[1:]))
        if stage < 4:
            # pooled maps are the next stage's input
            traced.append(tuple(cache.inputs[stage + 1].shape[1:]))
    # the cache flattens the last pooled map, so recompute its shape
    traced.append(ops.maxpool_2x2(cache.conv_pre[4][0]).shape)
    traced.append(tuple(hidden.shape[1:]))
    traced.append(tuple(probs.shape[1:]))
    elapsed = time.perf_counter() - started
    ok = traced == expected and pm.layer_shapes(8) == expected and elapsed < 1.0
    report(2, "shape trace", ok, f"{elapsed:.2f}s")
    assert traced == expected
    assert pm.layer_shapes(8) == expected
    assert elapsed < 1.0


def test_c03_gradient_suite():
    started = time.perf_counter()
    step = 1e-5
    worst_op = 0.0  # per-layer checks, all constructed away from kinks
    worst_e2e = 0.0
    counts: dict[str, int] = {}
    rng = np.random.default_rng(0)

    for _ in range(20):
        image = rng.random((5, 6, 2))
        kernels = rng.standard_normal((3, 3, 2, 3)) * 0.5
        bias = rng.standard_normal(3) * 0.1
        up = rng.standard_normal((3, 4, 3))
        loss = lambda: float(np.sum(ops.conv2d_valid(image, kernels, bias) * up))
        grads = ops.conv2d_backward(image, kernels, up)
        worst_op = max(
            worst_op,
            rel_error(grads.d_input, central_diff_grad(loss, image, step)),
            rel_error(grads.d_params[0], central_diff_grad(loss, kernels, step)),
            rel_error(grads.d_params[1], central_diff_grad(loss, bias, step)),
        )
    counts["conv"] = 20

    for _ in range(20):
        # magnitudes well clear of the kink at zero, random signs
        x = rng.uniform(0.2, 1.5, (4, 5)) * np.sign(rng.standard_normal((4, 5)))
        up = rng.standard_normal((4, 5))
        loss = lambda: float(np.sum(ops.relu(x) * up))
        got = ops.relu_backward(x, up).d_input
        worst_op = max(worst_op, rel_error(got, central_diff_grad(loss, x, step)))
    counts["relu"] = 20

    for _ in range(20):
        # distinct values in every window so no perturbation flips a max
        x = rng.permuted(np.arange(144, dtype=np.float64)).reshape(6, 8, 3) * 0.1
        up = rng.standard_normal((3, 4, 3))
        loss = lambda: float(np.sum(ops.maxpool_2x2(x) * up))
        got = ops.maxpool_2x2_backward(x, up).d_input
        worst_op = max(worst_op, rel_error(got, central_diff_grad(loss, x, step)))
    counts["maxpool"] = 20

    for _ in range(20):
        x = rng.standard_normal(7)
        w = rng.standard_normal((7, 4)) * 0.5
        b = rng.standard_normal(4) * 0.1
        up = rng.standard_normal(4)
        loss = lambda: float(np.sum(ops.dense(x, w, b) * up))
        grads = ops.dense_backward(x, w, up)
        worst_op = max(
            worst_op,
            rel_error(grads.d_input, central_diff_grad(loss, x, step)),
            rel_error(grads.d_params[0], central_diff_grad(loss, w, step)),
            rel_error(grads.d_params[1], central_diff_grad(loss, b, step)),
        )
    counts["dense"] = 20

    for i in range(20):
        x = rng.standard_normal((3, 6))
        _, mask = ops.dropout(x, 0.5, "train", np.random.default_rng(100 + i))
        up = rng.standard_normal((3, 6))
        # the mask is frozen, making the layer a fixed elementwise scale
        loss = lambda: float(np.sum(x * mask * up))
        got = ops.dropout_backward(mask, up).d_input
        worst_op = max(worst_op, rel_error(got, central_diff_grad(loss, x, step)))
    counts["dropout"] = 20

    for _ in range(20):
        z = rng.standard_normal(3) * 2.0
        up = rng.standard_normal(3)
        loss = lambda: float(np.sum(ops.softmax(z) * up))
        got = ops.softmax_backward(ops.softmax(z), up).d_input
        worst_op = max(worst_op, rel_error(got, central_diff_grad(loss, z, step)))
    counts["softmax"] = 20

    # end to end: full-network loss against sampled parameters, skipping
    # perturbations that cross a ReLU or pooling decision boundary
    net = pm.build_model(2, seed=9, dtype=np.float64, height=94, width=94)
    x = rng.random((2, 94, 94, 1))
    targets = np.eye(3)[[0, 2]]

    def loss_and_kinks():
        probs, _, cache = pm.forward_batch(net, x, want_cache=True)
        value, _ = tr.bce_loss_batch(probs, targets)
        return value, kink_pattern(cache)

    probs, _, cache = pm.forward_batch(net, x, want_cache=True)
    _, d_probs = tr.bce_loss_batch(probs, targets)
    grads = pm.backward_batch(net, cache, d_probs)
    picker = np.random.default_rng(1)
    checked = 0
    for p, g in zip(pm.parameters(net), grads):
        flat = p.reshape(-1)
        for idx in picker.choice(p.size, size=min(3, p.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + step
            plus, pat_plus = loss_and_kinks()
            flat[idx] = orig - step
            minus, pat_minus = loss_and_kinks()
            flat[idx] = orig
            if pat_plus != pat_minus:
                continue
            fd_val = (plus - minus) / (2 * step)
            got = float(g.reshape(-1)[int(idx)])
            denom = max(abs(fd_val), abs(got), 1e-8)
            worst_e2e = max(worst_e2e, abs(fd_val - got) / denom)
            checked += 1
    counts["end_to_end"] = checked

    elapsed = time.perf_counter() - started
    ok = (
        worst_op < 1e-6
        and worst_e2e < 1e-4
        and all(n >= 20 for n in counts.values())
        and elapsed < 60.0
    )
    report(
        3, "gradient suite", ok,
        f"per-op worst {worst_op:.1e}, end-to-end worst {worst_e2e:.1e}, "
        f"{sum(counts.values())} instances, {elapsed:.1f}s",
    )
    assert worst_op < 1e-6
    assert worst_e2e < 1e-4
    assert all(n >= 20 for n in counts.values()), counts
    assert elapsed < 60.0


def test_c04_reported_accuracy_fixtures():
    keypoint_rows = ev.ConfusionMatrix(
        np.array([[1000, 0, 0], [155, 845, 0], [5, 0, 995]])
    )
    network_rows = ev.ConfusionMatrix(
        np.array([[1000, 0, 0], [44, 956, 0], [5, 0, 995]])
    )
    got = (
        keypoint_rows.per_class_accuracy()[1],
        keypoint_rows.per_class_accuracy()[2],
        network_rows.per_class_accuracy()[1],
        network_rows.per_class_accuracy()[2],
    )
    ok = got == (0.845, 0.995, 0.956, 0.995)
    report(4, "accuracy fixtures", ok, "/".join(f"{v:.3f}" for v in got))
    assert got == (0.845, 0.995, 0.956, 0.995)


def test_c05_desk_scale_training(trained):
    _, rep, seconds = trained
    best = rep.best_accuracy
    ok = best >= 0.95 and TRAIN_EPOCHS <= 30 and seconds < 15 * 60
    report(
        5, "desk-scale training", ok,
        f"best {best:.4f} in {TRAIN_EPOCHS} epochs, {seconds / 60:.1f} min",
    )
    assert best >= 0.95
    assert TRAIN_EPOCHS <= 30
    assert seconds < 15 * 60


def test_c06_filter_sweep(dataset):
    train, test = dataset
    config = tr.TrainConfig(epochs=SWEEP_EPOCHS, seed=0)
    result = ev.filter_sweep(
        [2, 4, 8, 16],
        train.images, train.labels, test.images, test.labels,
        config, init_seed=0,
    )
    acc = {row.filters: row.best_accuracy for row in result.rows}
    ok = acc[2] < acc[8] and acc[16] - acc[8] <= 0.02
    report(
        6, "filter sweep", ok,
        " ".join(f"F{f}={acc[f]:.4f}" for f in (2, 4, 8, 16)),
    )
    assert acc[2] < acc[8]
    assert acc[16] - acc[8] <= 0.02


def test_c07_throughput(dataset, trained, baseline):
    _, test = dataset
    net, _, _ = trained
    clf, _ = baseline
    images = test.images[:16]
    cnn = ev.benchmark(ev.CnnClassifier(net).predict_one, images, warmup=3, iters=40)
    base = ev.benchmark(clf.predict_one, images, warmup=2, iters=15)
    ratio = cnn.fps / base.fps
    ok = ratio >= 2.0 and cnn.p50_ms < 50.0
    report(
        7, "throughput", ok,
        f"cnn {cnn.p50_ms:.1f} ms/img {cnn.fps:.0f} fps, "
        f"baseline {base.fps:.0f} fps, ratio {ratio:.1f}x",
    )
    assert ratio >= 2.0
    assert cnn.p50_ms < 50.0


def test_c08_embedding_separates_classes(dataset, trained):
    _, test = dataset
    net, _, _ = trained
    features = ev.hidden_features(net, test.images)
    assert len(features) >= 300
    config = ts.TsneConfig(perplexity=30.0, iterations=1000, seed=0)
    embedding = ts.tsne(features, config)
    silhouette = ev.silhouette_score(embedding, test.labels)

    rng = np.random.default_rng(0)
    probe = np.concatenate([
        rng.normal(0.0, 1.0, (100, 8)),
        rng.normal(6.0, 1.0, (100, 8)),
        rng.normal(-6.0, 1.0, (100, 8)),
    ])
    probe_labels = np.repeat([0, 1, 2], 100)
    probe_sil = ev.silhouette_score(ts.tsne(probe, config), probe_labels)

    ok = silhouette >= 0.2 and probe_sil >= 0.5
    report(
        8, "embedding silhouette", ok,
        f"features {silhouette:.3f}, gaussian probe {probe_sil:.3f}",
    )
    assert silhouette >= 0.2
    assert probe_sil >= 0.5


def test_c09_determinism(tmp_path):
    def tree_bytes(root):
        found = {}
        for dirpath, _, filenames in os.walk(root):
            for name in filenames:
                full = os.path.join(dirpath, name)
                with open(full, "rb") as fh:
                    found[os.path.relpath(full, root)] = fh.read()
        return found

    def run(argv):
        assert cli.main(argv) == 0

    mismatches = []

    for tag in ("a", "b"):
        run(["gen", "--out", str(tmp_path / f"g{tag}"), "--seed", "7",
             "--train", "3", "--test", "2"])
    if tree_bytes(tmp_path / "ga") != tree_bytes(tmp_path / "gb"):
        mismatches.append("gen")

    data = str(tmp_path / "ga")
    for tag in ("a", "b"):
        run(["train", "--threads", "1", "--data", data, "--filters", "2",
             "--epochs", "1", "--seed", "3",
             "--ckpt", str(tmp_path / f"t{tag}.pnet"),
             "--history", str(tmp_path / f"t{tag}.csv")])
    for suffix in (".pnet", ".csv"):
        if (tmp_path / f"ta{suffix}").read_bytes() != (tmp_path / f"tb{suffix}").read_bytes():
            mismatches.append(f"train{suffix}")

    for tag in ("a", "b"):
        run(["sweep", "--threads", "1", "--data", data, "--filters", "1,2",
             "--epochs", "1", "--out", str(tmp_path / f"s{tag}.csv")])
    if (tmp_path / "sa.csv").read_bytes() != (tmp_path / "sb.csv").read_bytes():
        mismatches.append("sweep")

    for tag in ("a", "b"):
        run(["embed", "--threads", "1", "--ckpt", str(tmp_path / "ta.pnet"),
             "--data", data, "--perplexity", "2", "--iters", "40",
             "--out", str(tmp_path / f"e{tag}.csv")])
    if (tmp_path / "ea.csv").read_bytes() != (tmp_path / "eb.csv").read_bytes():
        mismatches.append("embed")

    ok = not mismatches
    report(9, "determinism", ok,
           "gen/train/sweep/embed byte-identical" if ok else f"differs: {mismatches}")
    assert not mismatches


def test_c10_baseline_misses_crypto(trained, baseline):
    _, rep, _ = trained
    _, base_cm = baseline
    cnn_cm = ev.ConfusionMatrix(rep.confusion)
    base_crypto = float(base_cm.per_class_accuracy()[CRYPTO])
    cnn_crypto = float(cnn_cm.per_class_accuracy()[CRYPTO])

    off = base_cm.counts.copy()
    np.fill_diagonal(off, 0)
    total_errors = int(off.sum())
    crypto_errors = int(off[CRYPTO].sum())
    concentrated = total_errors > 0 and crypto_errors > total_errors / 2

    ok = base_crypto < cnn_crypto and concentrated
    report(
        10, "baseline crypto deficit", ok,
        f"baseline {base_crypto:.3f} < cnn {cnn_crypto:.3f}, "
        f"{crypto_errors}/{total_errors} errors in the crypto row",
    )
    assert base_crypto < cnn_crypto
    assert concentrated


def test_c11_checkpoint_round_trip(trained, tmp_path):
    net, _, _ = trained
    path = str(tmp_path / "model.pnet")
    pm.save_checkpoint(net, path)
    loaded = pm.load_checkpoint(path)
    exact = all(
        np.array_equal(a, b)
        for a, b in zip(pm.parameters(net), pm.parameters(loaded))
    )

    with open(path, "rb") as fh:
        blob = fh.read()
    bad_magic = bytearray(blob)
    bad_magic[0] ^= 0xFF
    bad_version = bytearray(blob)
    bad_version[4] ^= 0xFF
    rejected = 0
    for payload, expected in [
        (bytes(bad_magic), pm.CheckpointMagicError),
        (bytes(bad_version), pm.CheckpointVersionError),
        (blob[: len(blob) // 2], pm.CheckpointTruncatedError),
        (blob + b"\x00\x01", pm.CheckpointError),
    ]:
        corrupt = str(tmp_path / "corrupt.pnet")
        with open(corrupt, "wb") as fh:
            fh.write(payload)
        try:
            pm.load_checkpoint(corrupt)
        except expected as err:
            assert str(err)
            rejected += 1

    ok = exact and rejected == 4
    report(11, "checkpoint integrity", ok,
           f"bit-exact, {rejected}/4 corruptions rejected")
    assert exact
    assert rejected == 4
