"""One executable for the whole workflow, from dataset to benchmark.

Subcommands:
  gen             write a synthetic dataset (train and test splits)
  train           fit the CNN, save a checkpoint and a history CSV
  eval            confusion matrix of a checkpoint on a dataset split
  sweep           train at several filter widths and tabulate accuracy
  embed           t-SNE of the last hidden layer to CSV
  baseline-train  fit the keypoint-histogram classifier
  baseline-eval   confusion matrix of a saved baseline model
  bench           single-image latency of the CNN against the baseline,
                  as the median of three timed runs

Every run prints its resolved configuration up front, so that line plus
the seeds in it reproduce the run. PARASNET_OUTDIR moves all default
output paths. Heavy imports happen after argument parsing, which lets
--threads cap the BLAS pool through environment variables before numpy
is loaded; when the library was imported beforehand the cap is best
effort only.
"""

from __future__ import annotations

import argparse
import os
import sys

# bench times each pipeline this many times and reports the median
BENCH_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# evaluation.MIN_TIMED_ITERS and tsne.MIN_PERPLEXITY, written out so that
# parsing imports no numpy
MIN_TIMED_ITERS = 10
MIN_PERPLEXITY = 2.0


def _outdir() -> str:
    return os.environ.get("PARASNET_OUTDIR", ".")


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _int_at_least(text: str, minimum: int, expected: str) -> int:
    """text as an integer of at least minimum; the usage error for any
    other text says what was expected, where argparse would name the
    type function."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "a positive integer")


def _bench_iters(text: str) -> int:
    return _int_at_least(text, MIN_TIMED_ITERS, f"at least {MIN_TIMED_ITERS}")


def _seed(text: str) -> int:
    """A generator seed: numpy takes only non-negative integers."""
    return _int_at_least(text, 0, "a non-negative integer")


def _float(text: str) -> float:
    """text as a float, or NaN, which fails every range test, for text
    that is not a number."""
    try:
        return float(text)
    except ValueError:
        return float("nan")


def _positive_finite(text: str) -> float:
    value = _float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _perplexity(text: str) -> float:
    value = _float(text)
    if not MIN_PERPLEXITY <= value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"expected a finite number of at least {MIN_PERPLEXITY:g}, got {text!r}"
        )
    return value


def _gap_threshold(text: str) -> float:
    """The baseline's naive Bayes blending gap: a number in [0, 1]."""
    value = _float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


def _filter_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad filter list {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"bad filter list {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    out = _outdir()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads", type=_positive_int, default=None,
        help="cap BLAS worker threads; 1 makes runs bit-reproducible, and gen and "
             "batch inference then share their images with one forked child per "
             "further usable CPU (taskset limits them) with byte-identical output",
    )

    train_opts = argparse.ArgumentParser(add_help=False)
    train_opts.add_argument("--epochs", type=_positive_int, default=30)
    train_opts.add_argument("--batch", type=_positive_int, default=8)
    train_opts.add_argument("--lr", type=_positive_finite, default=0.001)
    train_opts.add_argument("--seed", type=_seed, default=0)
    train_opts.add_argument("--no-augment", action="store_true",
                            help="disable shifts, flips, rotations and zooms during training")

    parser = argparse.ArgumentParser(
        prog="parasnet", description=__doc__.split("\n", 1)[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="write a synthetic dataset")
    p.add_argument("--out", default=os.path.join(out, "dataset"),
                   help="dataset root directory")
    p.add_argument("--seed", type=_seed, default=7, help="master generator seed")
    p.add_argument("--train", type=_positive_int, default=300,
                   help="training images per class")
    p.add_argument("--test", type=_positive_int, default=100,
                   help="test images per class")
    p.add_argument("--full-scale", action="store_true",
                   help="5000/1000 images per class instead of --train/--test")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", parents=[common, train_opts], help="train the CNN")
    p.add_argument("--data", required=True, help="dataset root (train/ and test/)")
    p.add_argument("--filters", type=_positive_int, default=8,
                   help="first-layer filter count F")
    p.add_argument("--ckpt", default=os.path.join(out, "model.pnet"),
                   help="checkpoint output path")
    p.add_argument("--history", default=os.path.join(out, "train_history.csv"),
                   help="per-epoch CSV output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a checkpoint on a dataset split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--out", default=os.path.join(out, "confusion.csv"))
    p.set_defaults(func=lambda args: _evaluate(_load_cnn(args.ckpt), args))

    p = sub.add_parser("sweep", parents=[common, train_opts],
                       help="accuracy across filter widths")
    p.add_argument("--data", required=True)
    p.add_argument("--filters", type=_filter_list, default=[2, 4, 8, 16],
                   help="comma-separated filter counts")
    p.add_argument("--init-seed", type=_seed, default=0,
                   help="weight initialization seed, shared by all widths")
    p.add_argument("--out", default=os.path.join(out, "sweep.csv"))
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("embed", parents=[common],
                       help="t-SNE embedding of hidden features")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--perplexity", type=_perplexity, default=30.0)
    p.add_argument("--iters", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=os.path.join(out, "embedding.csv"))
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("baseline-train", parents=[common],
                       help="train the keypoint-histogram classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", type=_positive_int, default=64,
                   help="visual vocabulary size")
    p.add_argument("--svm-epochs", type=_positive_int, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    # classify.GAP_THRESHOLD, written out so that parsing imports no numpy
    p.add_argument("--gap", type=_gap_threshold, default=0.2,
                   help="confidence gap in [0, 1] under which naive Bayes blends in")
    p.add_argument("--out", default=os.path.join(out, "baseline.pbas"))
    p.set_defaults(func=_cmd_baseline_train)

    p = sub.add_parser("baseline-eval", parents=[common],
                       help="evaluate a saved baseline model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--out", default=os.path.join(out, "baseline_confusion.csv"))
    p.set_defaults(func=lambda args: _evaluate(_load_baseline(args.model), args))

    p = sub.add_parser("bench", parents=[common],
                       help="single-image latency and throughput")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--baseline", default=None,
                   help="optional baseline model to time on the same images")
    p.add_argument("--images", type=_positive_int, default=16,
                   help="distinct images to cycle through")
    p.add_argument("--iters", type=_bench_iters, default=50)
    p.add_argument("--warmup", type=_positive_int, default=3)
    p.add_argument("--out", default=os.path.join(out, "bench.csv"))
    p.set_defaults(func=_cmd_bench)

    return parser


def _echo(args: argparse.Namespace) -> None:
    skip = {"func", "command"}
    pairs = [(k, v) for k, v in sorted(vars(args).items()) if k not in skip]
    print(f"[{args.command}] " + " ".join(f"{k}={v}" for k, v in pairs))


def _gen_range(root: str, config, seed: int, split: str, start: int, stop: int) -> None:
    """Writes images start..stop-1 of a split, image k being sample
    k // NUM_CLASSES of class k % NUM_CLASSES: interleaved, the classes
    share every range alike, and so do their unequal render times."""
    from . import NUM_CLASSES, pgmio, synth

    for k in range(start, stop):
        label, index = k % NUM_CLASSES, k // NUM_CLASSES
        image = synth.gen_sample(label, index, config, seed, split)
        pgmio.write_pgm(pgmio.image_path(root, label, index), image)


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import NUM_CLASSES, pgmio, shards, synth

    config = synth.GenConfig()
    train_n, test_n = (5000, 1000) if args.full_scale else (args.train, args.test)
    for split, per_class in (("train", train_n), ("test", test_n)):
        root = os.path.join(args.out, split)
        pgmio.start_dataset(root)
        # each image is written as it is generated, so no split is held whole
        shards.map_ranges(
            _gen_range, (root, config, args.seed, split), NUM_CLASSES * per_class
        )
        pgmio.write_manifest(
            root, config.height, config.width, args.seed, [per_class] * NUM_CLASSES,
            extra={"split": split},
        )
        print(f"wrote {NUM_CLASSES * per_class} images under {root}")
    return 0


def _read_split(pgmio, root: str, split: str):
    return pgmio.read_dataset(os.path.join(root, split))


def _train_config(args: argparse.Namespace):
    from . import training

    return training.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        seed=args.seed,
        augment=not args.no_augment,
    )


def _cmd_train(args: argparse.Namespace) -> int:
    from . import evaluation, pgmio, training
    from . import model as pm

    train_images, train_labels = _read_split(pgmio, args.data, "train")
    test_images, test_labels = _read_split(pgmio, args.data, "test")
    h, w = train_images.shape[1:3]
    net = pm.build_model(args.filters, seed=args.seed, height=h, width=w)
    pm.check_savable(net)
    config = _train_config(args)
    report = training.fit(
        net, train_images, train_labels, test_images, test_labels, config,
        log=lambda e: print(
            f"epoch {e.epoch:3d}  loss {e.train_loss:.4f}  "
            f"test acc {e.test_accuracy:.4f}  ({e.seconds:.1f}s)"
        ),
    )
    net.meta["filters"] = str(args.filters)
    net.meta["epochs"] = str(args.epochs)
    _ensure_parent(args.ckpt)
    pm.save_checkpoint(net, args.ckpt)
    _ensure_parent(args.history)
    report.to_csv(args.history)
    print(evaluation.ConfusionMatrix(report.confusion))
    print(f"final test accuracy {report.final_accuracy:.4f}")
    print(f"checkpoint -> {args.ckpt} ({pm.param_count(net)} parameters)")
    print(f"history -> {args.history}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from . import evaluation, pgmio

    train_images, train_labels = _read_split(pgmio, args.data, "train")
    test_images, test_labels = _read_split(pgmio, args.data, "test")
    config = _train_config(args)
    result = evaluation.filter_sweep(
        args.filters, train_images, train_labels, test_images, test_labels,
        config, init_seed=args.init_seed,
    )
    _ensure_parent(args.out)
    result.to_csv(args.out)
    for row in result.rows:
        print(
            f"F={row.filters:<3d} params={row.params:<7d} "
            f"best={row.best_accuracy:.4f} final={row.final_accuracy:.4f}"
        )
    print(f"sweep -> {args.out}")
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    from . import evaluation, pgmio, tsne
    from . import model as pm

    net = pm.load_checkpoint(args.ckpt)
    images, labels = _read_split(pgmio, args.data, args.split)
    features = evaluation.hidden_features(net, images)
    config = tsne.TsneConfig(
        perplexity=args.perplexity, iterations=args.iters, seed=args.seed
    )
    embedding = tsne.tsne(features, config)
    _ensure_parent(args.out)
    with open(args.out, "w") as fh:
        fh.write("x,y,label\n")
        for (x, y), label in zip(embedding, labels):
            fh.write(f"{x:.6f},{y:.6f},{int(label)}\n")
    line = f"embedded {len(images)} images"
    # a silhouette compares clusters, so a split of one class has none
    if len(set(labels.tolist())) >= 2:
        line += f", silhouette {evaluation.silhouette_score(embedding, labels):.4f}"
    print(line)
    print(f"embedding -> {args.out}")
    return 0


def _cmd_baseline_train(args: argparse.Namespace) -> int:
    from . import pgmio
    from .baseline import classify

    images, labels = _read_split(pgmio, args.data, "train")
    config = classify.BaselineTrainConfig(
        vocab_size=args.vocab, svm_epochs=args.svm_epochs, seed=args.seed
    )
    clf = classify.train_baseline(images, labels, config, log=print)
    clf.model.meta = {
        "gap_threshold": str(args.gap),
        "seed": str(args.seed),
        "vocab_size": str(clf.model.vocab_size),
    }
    _ensure_parent(args.out)
    classify.save_baseline(clf.model, args.out)
    print(f"baseline model -> {args.out}")
    return 0


def _load_baseline(path: str):
    """A saved baseline, classifying with the gap it was trained with."""
    from .baseline import classify

    model = classify.load_baseline(path)
    try:
        gap = _gap_threshold(model.meta.get("gap_threshold", str(classify.GAP_THRESHOLD)))
    except argparse.ArgumentTypeError as err:
        raise classify.BaselineFileError(f"{path}: gap_threshold: {err}") from None
    return classify.SiftBowClassifier(model, gap_threshold=gap)


def _load_cnn(path: str):
    from . import evaluation
    from . import model as pm

    return evaluation.CnnClassifier(pm.load_checkpoint(path))


def _evaluate(clf, args: argparse.Namespace) -> int:
    """eval and baseline-eval: the confusion of clf on a dataset split."""
    from . import CLASS_NAMES, evaluation, pgmio

    images, labels = _read_split(pgmio, args.data, args.split)
    matrix = evaluation.evaluate(clf, images, labels)
    _ensure_parent(args.out)
    matrix.to_csv(args.out)
    print(matrix)
    for name, acc in zip(CLASS_NAMES, matrix.per_class_accuracy()):
        print(f"{name} accuracy {acc:.4f}")
    print(f"overall accuracy {matrix.accuracy():.4f}")
    print(f"confusion -> {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import platform

    import numpy as np

    from . import evaluation, pgmio

    cnn = _load_cnn(args.ckpt)
    images, _ = _read_split(pgmio, args.data, args.split)
    images = images[: args.images]
    pipelines = [("cnn", cnn.predict_one)]
    if args.baseline is not None:
        pipelines.append(("baseline", _load_baseline(args.baseline).predict_one))
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS)
    print(
        f"env nproc={os.cpu_count()} {threads} "
        f"numpy={np.__version__} python={platform.python_version()}"
    )
    lines = ["pipeline,p50_ms,p90_ms,p99_ms,fps"]
    fps = []
    for name, predict_one in pipelines:
        reports = [
            evaluation.benchmark(predict_one, images, warmup=args.warmup, iters=args.iters)
            for _ in range(BENCH_REPEATS)
        ]
        runs = {
            key: [getattr(rep, key) for rep in reports]
            for key in ("p50_ms", "p90_ms", "p99_ms", "fps")
        }
        med = {key: float(np.median(values)) for key, values in runs.items()}
        lines.append(
            f"{name},{med['p50_ms']:.3f},{med['p90_ms']:.3f},{med['p99_ms']:.3f},"
            f"{med['fps']:.2f}"
        )
        print(
            f"{name:<9} p50 {med['p50_ms']:8.2f} ms "
            f"({min(runs['p50_ms']):.2f}-{max(runs['p50_ms']):.2f})   "
            f"p90 {med['p90_ms']:8.2f} ms   p99 {med['p99_ms']:8.2f} ms   "
            f"{med['fps']:8.1f} fps ({min(runs['fps']):.1f}-{max(runs['fps']):.1f})"
        )
        fps.append(med["fps"])
    print(f"medians of {BENCH_REPEATS} runs, min-max in brackets")
    _ensure_parent(args.out)
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if len(fps) == 2:
        print(f"cnn throughput is {fps[0] / fps[1]:.1f}x the baseline's")
    print(f"report -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        for var in BLAS_THREAD_VARS:
            os.environ[var] = str(args.threads)
    _echo(args)
    from .baseline.classify import BaselineFileError
    from .model import CheckpointError

    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, CheckpointError, BaselineFileError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
