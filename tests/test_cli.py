"""End-to-end runs of the command line against a micro dataset."""

import os
import re
import tracemalloc

import numpy as np
import pytest

from parasnet import cli, evaluation, pgmio, synth
from parasnet.baseline import classify
from parasnet.model import expected_param_count, load_checkpoint, param_count


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
        assert param_count(load_checkpoint(ckpt)) == expected_param_count(8)
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
            outputs.append((open(ckpt, "rb").read(), open(history, "rb").read()))
        assert outputs[0] == outputs[1]

    def test_non_default_input_size_fails_before_training(self, tmp_path, capsys):
        # a checkpoint could not hold a 94x94 model, so train refuses it
        # up front rather than after the run
        root = str(tmp_path / "small")
        images = np.zeros((3, 94, 94, 1), np.float32)
        labels = np.array([0, 1, 2])
        for split in ("train", "test"):
            pgmio.write_dataset(os.path.join(root, split), images, labels, 0)
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

    def test_embed_writes_one_row_per_image(self, dataset, ckpt, tmp_path):
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

    @pytest.mark.parametrize("perplexity", ["nan", "inf"])
    def test_embed_rejects_a_non_finite_perplexity(
        self, dataset, ckpt, tmp_path, capsys, perplexity
    ):
        out = tmp_path / "e.csv"
        code = cli.main([
            "embed", "--ckpt", ckpt, "--data", dataset, "--out", str(out),
            "--perplexity", perplexity, "--iters", "5",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "perplexity must be finite" in err
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

    def test_threads_one_is_accepted(self, tmp_path):
        code = cli.main([
            "gen", "--out", str(tmp_path / "d"), "--threads", "1",
            "--train", "1", "--test", "1",
        ])
        assert code == 0
