"""End-to-end runs of the command line against a micro dataset."""

import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dataset_writer import write_dataset
from forking import needs_fork, no_children, rerun_single_threaded
from parasnet import cli, evaluation, pgmio, synth, tsne
from parasnet.baseline import classify
from parasnet.model import load_checkpoint, param_count


def tree_bytes(root):
    """Map of relative path -> file bytes for a directory tree."""
    found = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("ds") / "data")
    code = cli.main(["gen", "--out", root, "--seed", "7", "--train", "3", "--test", "2"])
    assert code == 0
    return root


class TestGen:
    def test_writes_both_splits_with_manifests(self, dataset):
        for split, per_class in (("train", 3), ("test", 2)):
            for name in ("others", "crypto", "giardia"):
                files = os.listdir(os.path.join(dataset, split, name))
                assert len(files) == per_class
            assert os.path.exists(os.path.join(dataset, split, "manifest.json"))

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        again = str(tmp_path / "again")
        code = cli.main(
            ["gen", "--out", again, "--seed", "7", "--train", "3", "--test", "2"]
        )
        assert code == 0
        first = tree_bytes(dataset)
        second = tree_bytes(again)
        assert first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], rel

    def test_different_seed_changes_the_images(self, dataset, tmp_path):
        other = str(tmp_path / "other")
        cli.main(["gen", "--out", other, "--seed", "8", "--train", "3", "--test", "2"])
        a = tree_bytes(dataset)
        b = tree_bytes(other)
        changed = [rel for rel in a if rel.endswith(".pgm") and a[rel] != b[rel]]
        assert changed

    def test_peak_memory_does_not_grow_with_the_image_count(self, tmp_path):
        def peak(train, out):
            tracemalloc.start()
            try:
                code = cli.main(["gen", "--out", str(out), "--train", str(train), "--test", "1"])
                bytes_at_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return bytes_at_peak

        peak(1, tmp_path / "warm")  # fills the generator's lazy caches
        one, four = peak(1, tmp_path / "one"), peak(4, tmp_path / "four")
        cfg = synth.GenConfig()
        # nine more images may not cost even one more float32 frame
        assert four - one < cfg.height * cfg.width * 4

    def test_outdir_env_var_supplies_the_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PARASNET_OUTDIR", str(tmp_path))
        code = cli.main(["gen", "--seed", "1", "--train", "1", "--test", "1"])
        assert code == 0
        assert os.path.exists(tmp_path / "dataset" / "train" / "manifest.json")

    @needs_fork
    def test_forked_tree_is_byte_identical_to_the_serial_one(
        self, dataset, tmp_path, cpus, monkeypatch
    ):
        made_here = []
        gen_sample = synth.gen_sample

        def recorded(label, index, config, seed, split):
            made_here.append((split, label, index))
            return gen_sample(label, index, config, seed, split)

        monkeypatch.setattr(synth, "gen_sample", recorded)
        # the dataset fixture's 9 and 6 images ran in this process alone
        cpus(2)
        forked = str(tmp_path / "forked")
        argv = ["gen", "--out", forked, "--seed", "7", "--train", "3", "--test", "2"]
        assert cli.main(argv) == 0
        assert tree_bytes(forked) == tree_bytes(dataset)
        # this process made the first of two ranges, the classes interleaved
        # (others 0, crypto 0, giardia 0, others 1, ...), and a child the rest
        assert made_here == [
            ("train", 0, 0), ("train", 1, 0), ("train", 2, 0), ("train", 0, 1),
            ("test", 0, 0), ("test", 1, 0), ("test", 2, 0),
        ]
        assert no_children()

    @needs_fork
    def test_a_forked_failure_leaves_no_manifest(self, tmp_path, cpus, monkeypatch, capsys):
        out = tmp_path / "data"
        argv = ["gen", "--out", str(out), "--train", "3", "--test", "2"]
        assert cli.main([*argv, "--seed", "1"]) == 0
        cpus(2)
        parent = os.getpid()
        gen_sample = synth.gen_sample

        def full_disk_at_crypto_2(label, index, config, seed, split):
            # image 7 of the train split, in the forked child's range
            if (label, index) == (1, 2):
                assert os.getpid() != parent
                raise OSError(28, "No space left on device")
            return gen_sample(label, index, config, seed, split)

        monkeypatch.setattr(synth, "gen_sample", full_disk_at_crypto_2)
        capsys.readouterr()
        assert cli.main([*argv, "--seed", "2"]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        # seed 2 rewrote some of seed 1's images, so the split is gone, not mixed
        assert not (out / "train" / pgmio.MANIFEST_NAME).exists()
        with pytest.raises(FileNotFoundError, match="manifest"):
            pgmio.read_dataset(str(out / "train"))
        assert no_children()

    @needs_fork
    def test_a_killed_child_exits_1_and_leaves_no_manifest(
        self, tmp_path, cpus, monkeypatch, capsys
    ):
        out = tmp_path / "data"
        argv = ["gen", "--out", str(out), "--seed", "3", "--train", "3", "--test", "2"]
        cpus(2)
        parent = os.getpid()
        gen_sample = synth.gen_sample

        def killed_in_test_split(label, index, config, seed, split):
            if split == "test" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return gen_sample(label, index, config, seed, split)

        monkeypatch.setattr(synth, "gen_sample", killed_in_test_split)
        capsys.readouterr()
        began = time.monotonic()
        assert cli.main(argv) == 1
        assert time.monotonic() - began < 30
        err = capsys.readouterr().err
        assert err.startswith("error: forked child ") and "killed by SIGKILL" in err
        # the train split was whole before the test split began
        assert (out / "train" / pgmio.MANIFEST_NAME).exists()
        assert not (out / "test" / pgmio.MANIFEST_NAME).exists()
        assert no_children()

    def test_forked_tests_run_in_a_single_threaded_process(self):
        rerun_single_threaded(*(
            f"{__file__}::TestGen::{name}" for name in (
                "test_forked_tree_is_byte_identical_to_the_serial_one",
                "test_a_forked_failure_leaves_no_manifest",
                "test_a_killed_child_exits_1_and_leaves_no_manifest",
            )
        ))


class TestTrain:
    def test_checkpoint_has_the_advertised_parameter_count(self, dataset, tmp_path):
        ckpt = str(tmp_path / "m.pnet")
        history = str(tmp_path / "h.csv")
        code = cli.main([
            "train", "--data", dataset, "--filters", "8", "--epochs", "1",
            "--ckpt", ckpt, "--history", history,
        ])
        assert code == 0
        assert param_count(load_checkpoint(ckpt)) == 43891
        with open(history) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "epoch,train_loss,test_accuracy"
        assert len(lines) == 2

    def test_rerun_writes_identical_checkpoint_and_history(self, dataset, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            ckpt = str(tmp_path / f"{tag}.pnet")
            history = str(tmp_path / f"{tag}.csv")
            code = cli.main([
                "train", "--data", dataset, "--filters", "2", "--epochs", "1",
                "--seed", "3", "--ckpt", ckpt, "--history", history,
            ])
            assert code == 0
            outputs.append((Path(ckpt).read_bytes(), Path(history).read_bytes()))
        assert outputs[0] == outputs[1]

    def test_non_default_input_size_fails_before_training(self, tmp_path, capsys):
        # a checkpoint could not hold a 94x94 model, so train refuses it
        # up front rather than after the run
        root = str(tmp_path / "small")
        images = np.zeros((3, 94, 94, 1), np.float32)
        labels = np.array([0, 1, 2])
        for split in ("train", "test"):
            write_dataset(os.path.join(root, split), images, labels, 0)
        ckpt = tmp_path / "m.pnet"
        code = cli.main([
            "train", "--data", root, "--filters", "2", "--epochs", "1",
            "--ckpt", str(ckpt), "--history", str(tmp_path / "h.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "244x324" in err[0]
        assert not ckpt.exists()
        assert not (tmp_path / "h.csv").exists()

    def test_missing_dataset_fails_with_the_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        code = cli.main(["train", "--data", missing, "--epochs", "1"])
        assert code == 1
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "0", "-0.1", "abc"])
    def test_lr_must_be_positive_and_finite(self, dataset, tmp_path, capsys, lr):
        ckpt = tmp_path / "m.pnet"
        with pytest.raises(SystemExit) as err:
            cli.main([
                "train", "--data", dataset, "--filters", "2", "--epochs", "1",
                f"--lr={lr}", "--ckpt", str(ckpt), "--history", str(tmp_path / "h.csv"),
            ])
        assert err.value.code == 2
        assert "positive finite number" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_echoes_resolved_config(self, dataset, tmp_path, capsys):
        cli.main([
            "train", "--data", dataset, "--filters", "2", "--epochs", "1",
            "--ckpt", str(tmp_path / "m.pnet"),
            "--history", str(tmp_path / "h.csv"),
        ])
        out = capsys.readouterr().out
        line = out.splitlines()[0]
        assert line.startswith("[train] ")
        for piece in ("filters=2", "epochs=1", "batch=8", "lr=0.001", "seed=0"):
            assert piece in line


@pytest.fixture(scope="module")
def ckpt(dataset, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ck") / "m.pnet")
    cli.main([
        "train", "--data", dataset, "--filters", "2", "--epochs", "1",
        "--ckpt", path, "--history", os.devnull,
    ])
    return path


class TestEval:
    def test_writes_confusion_csv(self, dataset, ckpt, tmp_path):
        out = str(tmp_path / "c.csv")
        code = cli.main(["eval", "--ckpt", ckpt, "--data", dataset, "--out", out])
        assert code == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "actual,predicted_others,predicted_crypto,predicted_giardia"
        total = sum(
            int(cell) for line in lines[1:] for cell in line.split(",")[1:]
        )
        assert total == 6

    def test_missing_checkpoint_names_the_path(self, dataset, tmp_path, capsys):
        missing = str(tmp_path / "missing.pnet")
        code = cli.main(["eval", "--ckpt", missing, "--data", dataset])
        assert code == 1
        assert missing in capsys.readouterr().err

    def test_embed_writes_one_row_per_image(self, dataset, ckpt, tmp_path, capsys):
        out = str(tmp_path / "e.csv")
        code = cli.main([
            "embed", "--ckpt", ckpt, "--data", dataset, "--out", out,
            "--perplexity", "2", "--iters", "40",
        ])
        assert code == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == 1 + 6
        assert re.search(r"^embedded 6 images, silhouette -?[\d.]+$",
                         capsys.readouterr().out, re.M)

    def test_embed_of_a_one_class_split_skips_the_silhouette(self, ckpt, tmp_path, capsys):
        root = str(tmp_path / "one")
        images = np.random.default_rng(0).random((7, 244, 324, 1)).astype(np.float32)
        write_dataset(os.path.join(root, "test"), images, np.zeros(7, np.int64), 0)
        out = tmp_path / "e.csv"
        code = cli.main([
            "embed", "--ckpt", ckpt, "--data", root, "--out", str(out),
            "--perplexity", "2", "--iters", "40",
        ])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert "embedded 7 images" in captured.out.splitlines()
        assert "silhouette" not in captured.out
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,label"
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["0"] * 7

    @pytest.mark.parametrize("perplexity", ["nan", "inf"])
    def test_embed_rejects_a_non_finite_perplexity(self, tmp_path, capsys, perplexity):
        # a usage error, raised before the missing checkpoint is opened
        out = tmp_path / "e.csv"
        with pytest.raises(SystemExit) as err:
            cli.main([
                "embed", "--ckpt", str(tmp_path / "missing.pnet"),
                "--data", str(tmp_path), "--out", str(out),
                "--perplexity", perplexity, "--iters", "5",
            ])
        assert err.value.code == 2
        assert (
            f"argument --perplexity: expected a finite number of at least 2, "
            f"got '{perplexity}'"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_embed_rejects_a_huge_finite_perplexity(self, dataset, ckpt, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code = cli.main([
            "embed", "--ckpt", ckpt, "--data", dataset, "--out", str(out),
            "--perplexity", "1e308", "--iters", "5",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "perplexity 1e+308" in err
        assert not out.exists()

    def test_bench_reports_the_cnn(self, dataset, ckpt, tmp_path, capsys):
        out = str(tmp_path / "b.csv")
        code = cli.main([
            "bench", "--ckpt", ckpt, "--data", dataset, "--out", out,
            "--images", "2", "--iters", "10", "--warmup", "1",
        ])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        env = [line for line in printed if line.startswith("env ")]
        assert len(env) == 1
        for piece in ("nproc=", "OPENBLAS_NUM_THREADS=", "OMP_NUM_THREADS=",
                      "MKL_NUM_THREADS=", "numpy=", "python="):
            assert piece in env[0]
        # median, then the min-max of the three runs, for p50 and fps
        cnn = [line for line in printed if line.startswith("cnn ")]
        assert len(cnn) == 1
        assert re.search(r"p50 +[\d.]+ ms \([\d.]+-[\d.]+\)", cnn[0])
        assert re.search(r"[\d.]+ fps \([\d.]+-[\d.]+\)", cnn[0])
        assert "medians of 3 runs, min-max in brackets" in printed
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "pipeline,p50_ms,p90_ms,p99_ms,fps"
        assert lines[1].startswith("cnn,")
        assert len(lines) == 2


class TestSweep:
    def test_writes_a_row_per_width(self, dataset, tmp_path):
        out = str(tmp_path / "s.csv")
        code = cli.main([
            "sweep", "--data", dataset, "--filters", "1,2", "--epochs", "1",
            "--out", out,
        ])
        assert code == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "filters,params,best_accuracy,final_accuracy"
        assert len(lines) == 3
        assert lines[1].startswith("1,")
        assert lines[2].startswith("2,")

    def test_bad_filter_list_is_a_usage_error(self, dataset):
        with pytest.raises(SystemExit) as err:
            cli.main(["sweep", "--data", dataset, "--filters", "2,zero"])
        assert err.value.code == 2


class TestBaselineCommands:
    def test_train_then_eval_round_trip(self, dataset, tmp_path):
        model = str(tmp_path / "b.pbas")
        code = cli.main([
            "baseline-train", "--data", dataset, "--vocab", "8",
            "--svm-epochs", "5", "--out", model,
        ])
        assert code == 0
        out = str(tmp_path / "bc.csv")
        code = cli.main([
            "baseline-eval", "--model", model, "--data", dataset, "--out", out,
        ])
        assert code == 0
        assert os.path.exists(out)


    def test_bench_classifies_with_the_trained_gap(
        self, dataset, ckpt, tmp_path, monkeypatch
    ):
        model = str(tmp_path / "b.pbas")
        code = cli.main([
            "baseline-train", "--data", dataset, "--vocab", "8",
            "--svm-epochs", "5", "--gap", "0.35", "--out", model,
        ])
        assert code == 0
        gaps = []
        timed = evaluation.benchmark

        def spy(predict_one, *args, **kwargs):
            gaps.append(getattr(predict_one.__self__, "gap_threshold", None))
            return timed(predict_one, *args, **kwargs)

        monkeypatch.setattr(evaluation, "benchmark", spy)
        code = cli.main([
            "bench", "--ckpt", ckpt, "--data", dataset, "--baseline", model,
            "--out", str(tmp_path / "b.csv"),
            "--images", "2", "--iters", "10", "--warmup", "1",
        ])
        assert code == 0
        # three timed runs of each pipeline
        assert gaps == [None, None, None, 0.35, 0.35, 0.35]


BAD_GAPS = ["nan", "inf", "5", "-1", "abc"]


@pytest.fixture(scope="module")
def baseline_model(dataset, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("baseline") / "b.pbas")
    code = cli.main([
        "baseline-train", "--data", dataset, "--vocab", "8", "--svm-epochs", "5",
        "--out", path,
    ])
    assert code == 0
    return path


class TestGapThreshold:
    @pytest.mark.parametrize("gap", BAD_GAPS)
    def test_eval_rejects_a_stored_gap_outside_the_unit_interval(
        self, dataset, baseline_model, tmp_path, capsys, gap
    ):
        model = classify.load_baseline(baseline_model)
        model.meta["gap_threshold"] = gap
        path = str(tmp_path / "bad.pbas")
        classify.save_baseline(model, path)
        out = tmp_path / "bc.csv"
        code = cli.main([
            "baseline-eval", "--model", path, "--data", dataset, "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert path in err and "gap_threshold" in err and repr(gap) in err
        assert not out.exists()

    @pytest.mark.parametrize("gap", BAD_GAPS)
    def test_train_rejects_a_gap_outside_the_unit_interval_before_training(
        self, dataset, tmp_path, capsys, gap
    ):
        out = tmp_path / "b.pbas"
        with pytest.raises(SystemExit) as err:
            cli.main(["baseline-train", "--data", dataset, "--gap", gap, "--out", str(out)])
        assert err.value.code == 2
        assert "[0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gap", ["0", "1"])
    def test_eval_accepts_a_stored_gap_in_the_unit_interval(
        self, dataset, baseline_model, tmp_path, gap
    ):
        model = classify.load_baseline(baseline_model)
        model.meta["gap_threshold"] = gap
        path = str(tmp_path / "ok.pbas")
        classify.save_baseline(model, path)
        assert cli._load_baseline(path).gap_threshold == float(gap)


class TestUsageErrors:
    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["gen", "--bogus"])
        assert err.value.code == 2

    def test_threads_must_be_positive(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["gen", "--threads", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--seed", "-1"],
            ["train", "--data", "{data}", "--epochs", "1", "--seed", "-1"],
            ["sweep", "--data", "{data}", "--epochs", "1", "--seed", "-1"],
            ["sweep", "--data", "{data}", "--epochs", "1", "--init-seed", "-1"],
            ["embed", "--ckpt", "{ckpt}", "--data", "{data}", "--seed", "-1"],
            ["baseline-train", "--data", "{data}", "--seed", "-1"],
        ],
        ids=["gen", "train", "sweep", "sweep-init-seed", "embed", "baseline-train"],
    )
    def test_a_negative_seed_is_a_usage_error_before_anything_is_written(
        self, dataset, ckpt, tmp_path, monkeypatch, capsys, argv
    ):
        # every default output path then lies under tmp_path
        monkeypatch.setenv("PARASNET_OUTDIR", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        argv = [arg.format(data=dataset, ckpt=ckpt) for arg in argv]
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        option = argv[-2]
        assert f"argument {option}: expected a non-negative integer, got -1" in (
            capsys.readouterr().err
        )
        assert os.listdir(tmp_path) == []

    def test_too_few_bench_iters_is_a_usage_error_before_any_file_is_read(
        self, tmp_path, capsys
    ):
        # the checkpoint and the dataset are missing, so a run that got as
        # far as reading either would exit 1
        with pytest.raises(SystemExit) as err:
            cli.main([
                "bench", "--ckpt", str(tmp_path / "missing.pnet"),
                "--data", str(tmp_path / "none"), "--out", str(tmp_path / "b.csv"),
                "--iters", "5",
            ])
        assert err.value.code == 2
        assert "argument --iters: expected at least 10, got 5" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--train", "abc"], "argument --train: expected a positive integer, got 'abc'"),
            (["gen", "--seed", "x"], "argument --seed: expected a non-negative integer, got 'x'"),
            (
                ["bench", "--ckpt", "m.pnet", "--data", "d", "--iters", "abc"],
                "argument --iters: expected at least 10, got 'abc'",
            ),
        ],
        ids=["positive-int", "seed", "bench-iters"],
    )
    def test_a_non_integer_is_a_usage_error_that_names_the_option(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert message in stderr
        for name in ("_positive_int", "_seed", "_bench_iters", "_int_at_least"):
            assert name not in stderr

    def test_threads_one_is_accepted(self, tmp_path):
        code = cli.main([
            "gen", "--out", str(tmp_path / "d"), "--threads", "1",
            "--train", "1", "--test", "1",
        ])
        assert code == 0


class TestParser:
    def test_gap_default_is_the_classifier_constant(self):
        args = cli.build_parser().parse_args(["baseline-train", "--data", "d"])
        assert args.gap == classify.GAP_THRESHOLD

    def test_perplexity_bound_is_the_tsne_constant(self):
        parser = cli.build_parser()
        lowest = tsne.MIN_PERPLEXITY
        argv = ["embed", "--ckpt", "m.pnet", "--data", "d", "--perplexity"]
        assert parser.parse_args(argv + [repr(lowest)]).perplexity == lowest
        with pytest.raises(SystemExit):
            parser.parse_args(argv + [repr(float(np.nextafter(lowest, 0.0)))])

    def test_bench_iters_bound_is_the_benchmark_constant(self):
        parser = cli.build_parser()
        lowest = evaluation.MIN_TIMED_ITERS
        argv = ["bench", "--ckpt", "m.pnet", "--data", "d", "--iters"]
        assert parser.parse_args(argv + [str(lowest)]).iters == lowest
        with pytest.raises(SystemExit):
            parser.parse_args(argv + [str(lowest - 1)])

    def test_parsing_any_subcommand_imports_no_numpy(self):
        # --threads caps BLAS through environment variables, which only
        # work when numpy is first imported after parsing
        script = """
import sys
from parasnet import cli

parser = cli.build_parser()
for argv in (
    ["gen"],
    ["train", "--data", "d"],
    ["eval", "--ckpt", "m.pnet", "--data", "d"],
    ["sweep", "--data", "d", "--filters", "2,4"],
    ["embed", "--ckpt", "m.pnet", "--data", "d", "--perplexity", "5"],
    ["baseline-train", "--data", "d", "--gap", "0.3"],
    ["baseline-eval", "--model", "b.pbas", "--data", "d"],
    ["bench", "--ckpt", "m.pnet", "--data", "d", "--threads", "1", "--iters", "10"],
):
    parser.parse_args(argv)
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if "numpy" in m)
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        )
        assert result.returncode == 0, result.stderr
