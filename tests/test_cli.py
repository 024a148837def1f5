"""Command-line surface: verbs, run directories, exit codes, file contracts."""

import csv
import json
import math
import os
import re

import numpy as np
import pytest

from ecglearn.cli import main
from ecglearn.config import (FilterConfig, RunConfig, config_from_dict,
                             config_to_dict)
from ecglearn.errors import ConfigError
from ecglearn.run import run_evaluate, run_sweep, run_train
from ecglearn.signal import FilterSpec
from ecglearn.transfer import save_checkpoint
from test_dataio import (MALFORMED_HEADERS, MALFORMED_LABELS_CSV,
                         MALFORMED_MANIFEST, MALFORMED_META, corrupt_manifest,
                         corrupt_meta, write_import_source,
                         write_malformed_record)
from test_metrics import time_limit
from test_transfer import (ADAPT_HEAD_REFUSES, MALFORMED_CKPT_HEADERS,
                           MISMATCHED_TENSOR_TABLES, mismatched_checkpoint,
                           rewrite_header, trained_small_model)


def cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "ds"
    rc = cli("prepare", "--out", path, "--synthetic", "--classes", 2,
             "--per-class", 24, "--task", "multiclass", "--length", 500,
             "--seed", 3)
    assert rc == 0
    return path


def write_config(tmp_path, dataset, **overrides):
    cfg = config_to_dict(RunConfig())
    cfg["manifest"] = str(dataset)
    cfg["preprocess"]["segment_len"] = 96
    cfg["preprocess"]["filter"] = None
    cfg["preprocess"]["max_len"] = None
    cfg["model"] = {"architecture": "ResNet18_1D",
                    "hyperparams": {"base_width": 4}}
    cfg["optimizer"].update({"lr": 1e-3, "batch_size": 8, "epochs": 2,
                             "patience": 5})
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def set_args(items):
    return [arg for item in items for arg in ("--set", item)]


def move_class_out_of_train(dataset, name):
    """Rewrite manifest.csv so every ``name`` record of folds 1-8 is in fold 9."""
    path = dataset / "manifest.csv"
    header, *rows = path.read_text().splitlines()
    for i, row in enumerate(rows):
        rid, rpath, labels, fold = row.split(",")
        if labels == name and int(fold) <= 8:
            rows[i] = ",".join((rid, rpath, labels, "9"))
    path.write_text("\n".join([header, *rows]) + "\n")


# train settings refused before the run directory exists: (the arguments,
# the same arguments with the setting fixed, what the error says)
TRAIN_REFUSALS = {
    "unknown-architecture": (set_args(["model.architecture=Foo"]),
                             set_args(["model.architecture=ResNet18_1D"]),
                             "unknown architecture 'Foo'"),
    "base-width-zero": (set_args(['model.hyperparams={"base_width": 0}']),
                        set_args(['model.hyperparams={"base_width": 4}']),
                        "'base_width' must be an integer >= 1, got 0"),
    "alpha-above-one": (set_args(["loss.alpha=1.5"]), set_args(["loss.alpha=0.5"]),
                        "alpha must be in (0, 1), got 1.5"),
    "gamma-infinite": (set_args(["loss.gamma=Infinity"]),
                       set_args(["loss.gamma=2.0"]),
                       "gamma must be >= 0 and finite, got inf"),
    "overlapping-folds": (set_args(["split.val_folds=[1]"]),
                          set_args(["split.val_folds=[9]"]),
                          "split: train/val/test folds must be disjoint"),
    "empty-test-split": (set_args(["split.train_folds=[1,2,3,4,5,6,7,8,10]",
                                   "split.test_folds=[11]"]),
                         set_args(["split.train_folds=[1,2,3,4,5,6,7,8]",
                                   "split.test_folds=[10]"]),
                         "split 'test' (folds [11]) selects no records"),
    "segment-len-zero": (set_args(["preprocess.segment_len=0"]),
                         set_args(["preprocess.segment_len=96"]),
                         "preprocess: segment_len must be >= 1, got 0"),
    "filter-order-zero": (set_args(["preprocess.filter.order=0"]),
                          set_args(["preprocess.filter.order=2"]),
                          "preprocess.filter: filter order must be >= 1, got 0"),
    "low-cut-above-high-cut": (set_args(["preprocess.filter.low_cut=50.0"]),
                               set_args(["preprocess.filter.low_cut=1.0"]),
                               "preprocess.filter: need 0 < low_cut < high_cut, "
                               "got 50.0, 45.0"),
    "seed-negative": (["--seed", "-1"], ["--seed", "1"],
                      "seed must be a non-negative integer, got -1"),
    # the dataset holds no class-c1 record in a train fold
    "weighted-bce-no-train-positives": (set_args(["loss.kind=weighted_bce"]),
                                        set_args(["loss.kind=focal"]),
                                        "classes [1] have no positive examples"),
}


class TestPrepare:
    def test_synthetic_round_counts(self, tmp_path, capsys):
        rc = cli("prepare", "--out", tmp_path / "d", "--synthetic",
                 "--classes", 2, "--per-class", 64, "--task", "multiclass",
                 "--length", 400)
        assert rc == 0
        out = capsys.readouterr().out
        assert "128 records" in out
        assert "class c0: 64 positive" in out

    def test_pe_shaped_counts(self, tmp_path, capsys):
        rc = cli("prepare", "--out", tmp_path / "d", "--pe-shaped",
                 "--length", 400)
        assert rc == 0
        out = capsys.readouterr().out
        assert "927 records" in out
        assert "fold 10: 103" in out

    def test_missing_mode_is_config_error(self, tmp_path):
        assert cli("prepare", "--out", tmp_path / "d") == 2

    def test_import_missing_label_column(self, tmp_path, capsys):
        (tmp_path / "labels.csv").write_text("id,path\nr0,x\n")
        rc = cli("prepare", "--out", tmp_path / "d", "--import-dir", tmp_path,
                 "--labels", tmp_path / "labels.csv", "--task", "multilabel")
        assert rc == 2
        assert "labels" in capsys.readouterr().err

    def test_import_with_fold_column(self, tmp_path, capsys):
        # existing record files plus a label CSV carrying 10-fold assignments
        from ecglearn.dataio import write_wfdb_record
        rng = np.random.default_rng(0)
        src = tmp_path / "raw"
        lines = ["id,labels,fold"]
        for i in range(20):
            write_wfdb_record(src / f"rec{i}", rng.normal(size=(12, 200)),
                              fs=500.0)
            lines.append(f"rec{i},{'norm' if i % 2 else 'mi'},{(i % 10) + 1}")
        (src / "labels.csv").write_text("\n".join(lines) + "\n")
        rc = cli("prepare", "--out", tmp_path / "d", "--import-dir", src,
                 "--labels", src / "labels.csv", "--task", "multilabel",
                 "--name", "imported-folds")
        assert rc == 0
        out = capsys.readouterr().out
        assert "20 records" in out
        assert "fold 9: 2" in out and "fold 10: 2" in out

    @pytest.mark.parametrize("per_class", ["abc", "3,x", "-5", "0", "3,0"])
    def test_malformed_per_class_is_config_error(self, tmp_path, capsys, per_class):
        rc = cli("prepare", "--out", tmp_path / "d", "--synthetic",
                 "--classes", 2, "--per-class", per_class, "--task", "multiclass",
                 "--length", 400)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--per-class" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("source, length", [("--synthetic", 0), ("--synthetic", -5),
                                                ("--pe-shaped", 0)])
    def test_non_positive_length_is_config_error(self, tmp_path, capsys, source,
                                                 length):
        args = ["--classes", 2, "--per-class", 3] if source == "--synthetic" else []
        rc = cli("prepare", "--out", tmp_path / "d", source, *args,
                 "--length", length)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--length" in err
        assert not (tmp_path / "d").exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        rc = cli("prepare", "--out", tmp_path / "d", "--synthetic",
                 "--classes", 2, "--per-class", 24, "--length", 400, "--seed", -1)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "seed must be a non-negative integer, got -1" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("fold", ["x", "2.5", ""])
    def test_import_non_integer_fold_is_data_error(self, tmp_path, capsys, fold):
        from ecglearn.dataio import write_wfdb_record
        src = tmp_path / "raw"
        for i in range(3):
            write_wfdb_record(src / f"rec{i}", np.zeros((12, 10)), fs=500.0)
        (src / "labels.csv").write_text(
            f"id,labels,fold\nrec0,a,1\nrec1,b,2\nrec2,a,{fold}\n")
        rc = cli("prepare", "--out", tmp_path / "d", "--import-dir", src,
                 "--labels", src / "labels.csv", "--task", "multilabel")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"labels.csv line 4: fold {fold!r} is not an integer" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_LABELS_CSV))
    def test_malformed_import_source_is_data_error(self, tmp_path, capsys, case):
        labels = write_import_source(tmp_path / "raw", case)
        rc = cli("prepare", "--out", tmp_path / "d", "--import-dir",
                 tmp_path / "raw", "--labels", labels, "--task", "multilabel")
        assert rc == 2
        out, err = capsys.readouterr()
        text = MALFORMED_LABELS_CSV[case][2]
        # a CSV fault is the error itself; a bad record is listed on stdout
        assert err.startswith("error: ")
        assert (f"malformed record {text}" in out if case == "mixed-fs"
                else text in err)
        assert not (tmp_path / "d").exists()

    def test_import_without_labels_is_config_error(self, tmp_path, capsys):
        write_import_source(tmp_path / "raw")
        rc = cli("prepare", "--out", tmp_path / "d", "--import-dir", tmp_path / "raw")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--labels" in err

    @pytest.mark.parametrize("folds", [0, -1])
    def test_import_fold_count_below_one_is_split_error(self, tmp_path, capsys,
                                                        folds):
        labels = write_import_source(tmp_path / "raw")
        rc = cli("prepare", "--out", tmp_path / "d", "--import-dir",
                 tmp_path / "raw", "--labels", labels, "--task", "multilabel",
                 "--folds", folds)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"k >= 1 folds, got {folds}" in err
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_train_produces_run_directory(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset)
        run_dir = tmp_path / "run1"
        rc = cli("train", "--config", cfg, "--out", run_dir)
        assert rc == 0
        assert (run_dir / "config.json").exists()
        assert (run_dir / "history.csv").exists()
        assert (run_dir / "best.ckpt").exists()
        metrics = json.loads((run_dir / "metrics.json").read_text())
        for key in ("accuracy", "f1", "map", "gmean", "auc", "sensitivity",
                    "specificity", "ppv"):
            assert key in metrics

    def test_existing_run_dir_rejected(self, tmp_path, dataset):
        cfg = write_config(tmp_path, dataset)
        run_dir = tmp_path / "run2"
        run_dir.mkdir()
        (run_dir / "junk").write_text("x")
        assert cli("train", "--config", cfg, "--out", run_dir) == 2

    def test_override_recorded_in_snapshot(self, tmp_path, dataset):
        cfg = write_config(tmp_path, dataset)
        run_dir = tmp_path / "run3"
        rc = cli("train", "--config", cfg, "--out", run_dir, "--lr", 0.0005)
        assert rc == 0
        snap = json.loads((run_dir / "config.json").read_text())
        assert snap["optimizer"]["lr"] == 0.0005

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lr_rejected_before_loading(self, tmp_path, capsys, value):
        run_dir = tmp_path / "run"
        rc = cli("train", "--data", tmp_path / "no-such-dataset", "--out", run_dir,
                 "--lr", value)
        assert rc == 2
        assert "lr must be finite" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_unknown_config_key_rejected(self, tmp_path, dataset):
        cfg = write_config(tmp_path, dataset)
        data = json.loads(cfg.read_text())
        data["optimzer"] = {"lr": 0.1}
        cfg.write_text(json.dumps(data))
        assert cli("train", "--config", cfg, "--out", tmp_path / "r") == 2

    @pytest.mark.parametrize("case", sorted(TRAIN_REFUSALS))
    def test_refused_before_run_dir_exists(self, tmp_path, dataset, capsys, case):
        bad, fixed, message = TRAIN_REFUSALS[case]
        if case == "weighted-bce-no-train-positives":
            move_class_out_of_train(dataset, "c1")
        out = tmp_path / "run"
        argv = ["train", "--config", write_config(tmp_path, dataset), "--out", out]
        # in process, an unhandled error (a traceback) would raise out of cli()
        assert cli(*argv, *bad) == 2
        stdout, err = capsys.readouterr()
        assert err.startswith("error: ") and message in err
        assert "epoch" not in stdout
        assert not out.exists()
        assert cli(*argv, *fixed) == 0
        assert (out / "metrics.json").exists()

    @pytest.mark.parametrize("verb", ["train", "sweep", "prepare", "report"])
    def test_out_naming_a_file_refused(self, tmp_path, dataset, capsys, verb):
        out = tmp_path / "afile"
        out.write_text("x")
        if verb == "prepare":
            argv = [verb, "--synthetic", "--per-class", 10, "--length", 200]
        elif verb == "report":
            run = tmp_path / "run"
            run.mkdir()
            (run / "metrics.json").write_text(json.dumps(GOOD_METRICS))
            argv = [verb, run]
        else:
            argv = [verb, "--config", write_config(tmp_path, dataset)]
        if verb == "sweep":
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({"optimizer.lr": [0.001]}))
            argv += ["--grid", grid]
        before = sorted(tmp_path.rglob("*"))
        assert cli(*argv, "--out", out) == 2
        stdout, err = capsys.readouterr()
        assert err.startswith("error: ")
        kind = {"prepare": "dataset", "report": "report"}.get(verb, "run")
        assert f"{kind} directory {out} exists and is not a directory" in err
        assert "epoch" not in stdout
        assert sorted(tmp_path.rglob("*")) == before
        assert out.read_text() == "x"

    @pytest.mark.parametrize("verb", ["train", "sweep", "evaluate"])
    def test_no_dataset_is_refused(self, tmp_path, verb, capsys):
        argv = [verb]
        if verb == "sweep":
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({"optimizer.lr": [0.001]}))
            argv += ["--grid", grid]
        if verb == "evaluate":
            argv += ["--checkpoint", tmp_path / "no.ckpt"]
        assert cli(*argv, "--out", tmp_path / "run") == 2
        assert capsys.readouterr().err == (
            "error: no dataset: set manifest in the config or pass --data\n")
        assert not (tmp_path / "run").exists()

    def test_library_run_names_an_unset_manifest(self, tmp_path):
        cfg = RunConfig(out_dir=str(tmp_path / "run"))
        for call in (lambda: run_train(cfg),
                     lambda: run_evaluate(tmp_path / "no.ckpt", cfg)):
            with pytest.raises(ConfigError, match="manifest"):
                call()
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_validation_exits_one(self, tmp_path, capsys):
        # the training loss stays finite while the validation logits are NaN
        data = tmp_path / "small"
        assert cli("prepare", "--out", data, "--synthetic", "--per-class", 10,
                   "--length", 400) == 0
        cfg = write_config(tmp_path, data)
        with time_limit(60):
            rc = cli("train", "--config", cfg, "--set", "preprocess.segment_len=256",
                     "--lr", 1e12, "--batch-size", 32, "--out", tmp_path / "run")
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: non-finite logit nan in evaluation batch 0 after epoch 1\n")

    def test_snapshot_rerun_reproduces_history(self, tmp_path, dataset):
        cfg = write_config(tmp_path, dataset)
        run_a = tmp_path / "runA"
        assert cli("train", "--config", cfg, "--out", run_a) == 0
        snapshot = run_a / "config.json"
        run_b = tmp_path / "runB"
        assert cli("train", "--config", snapshot, "--out", run_b) == 0
        assert (run_a / "history.csv").read_bytes() == \
               (run_b / "history.csv").read_bytes()


class TestPreprocessConfig:
    @pytest.mark.parametrize("preprocess, message", [
        ({"filter": {"order": 0, "low_cut": 50.0}, "segment_len": 0},
         "preprocess.filter: filter order must be >= 1, got 0"),
        ({"filter": {"low_cut": 50.0}},
         "preprocess.filter: need 0 < low_cut < high_cut, got 50.0, 45.0"),
        ({"filter": {"low_cut": math.nan}}, "preprocess.filter: need 0 < low_cut"),
        ({"filter": {"high_cut": math.inf}},
         "preprocess.filter: high_cut must be finite, got inf"),
        ({"segment_len": 0}, "preprocess: segment_len must be >= 1, got 0"),
        ({"max_len": 0}, "preprocess: max_len must be >= 1, got 0"),
    ], ids=["order-zero", "low-above-high", "low-nan", "high-inf",
            "segment-len-zero", "max-len-zero"])
    def test_refused_when_read(self, tmp_path, preprocess, message):
        data = {"manifest": str(tmp_path / "absent"), "preprocess": preprocess}
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(RunConfig, data)

    def test_max_len_may_be_null(self):
        cfg = config_from_dict(RunConfig, {"preprocess": {"max_len": None}})
        assert cfg.preprocess.max_len is None

    def test_filter_defaults_are_filter_specs(self):
        spec = FilterSpec(fs=500.0)
        assert vars(FilterConfig()) == {"order": spec.order,
                                        "low_cut": spec.low_cut,
                                        "high_cut": spec.high_cut}


class TestFinetuneAndVerify:
    def test_head_only_keeps_backbone_hashes(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset)
        pre = tmp_path / "pre"
        assert cli("train", "--config", cfg, "--out", pre) == 0
        ft = tmp_path / "ft"
        rc = cli("finetune", "--config", cfg, "--out", ft,
                 "--from-checkpoint", pre / "best.ckpt", "--mode", "head",
                 "--seed", 11)
        assert rc == 0
        capsys.readouterr()
        rc = cli("verify-checkpoint", pre / "best.ckpt",
                 "--compare", ft / "best.ckpt", "--ignore-prefix", "head.")
        assert rc == 0
        out = capsys.readouterr().out
        assert "IDENTICAL" in out

    def test_all_weights_changes_backbone(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset)
        pre = tmp_path / "pre"
        assert cli("train", "--config", cfg, "--out", pre) == 0
        ft = tmp_path / "ft-all"
        rc = cli("finetune", "--config", cfg, "--out", ft,
                 "--from-checkpoint", pre / "best.ckpt", "--mode", "all")
        assert rc == 0
        capsys.readouterr()
        rc = cli("verify-checkpoint", pre / "best.ckpt",
                 "--compare", ft / "best.ckpt", "--ignore-prefix", "head.")
        assert rc == 0
        assert "DIFFER" in capsys.readouterr().out

    def test_architecture_mismatch_fails_before_training(self, tmp_path, dataset):
        cfg = write_config(tmp_path, dataset)
        pre = tmp_path / "pre"
        assert cli("train", "--config", cfg, "--out", pre) == 0
        bad_cfg = write_config(tmp_path, dataset,
                               model={"architecture": "AlexNet1D",
                                      "hyperparams": {"width": 8}})
        rc = cli("finetune", "--config", bad_cfg, "--out", tmp_path / "x",
                 "--from-checkpoint", pre / "best.ckpt", "--mode", "all")
        assert rc == 2
        assert not (tmp_path / "x" / "history.csv").exists()

    def test_empty_split_refused_before_run_dir_exists(self, tmp_path, dataset,
                                                      capsys):
        cfg = write_config(tmp_path, dataset)
        pre = tmp_path / "pre"
        assert cli("train", "--config", cfg, "--out", pre) == 0
        capsys.readouterr()
        bad, _, message = TRAIN_REFUSALS["empty-test-split"]
        rc = cli("finetune", "--config", cfg, "--out", tmp_path / "ft",
                 "--from-checkpoint", pre / "best.ckpt", "--mode", "all", *bad)
        assert rc == 2
        stdout, err = capsys.readouterr()
        assert err.startswith("error: ") and message in err
        assert "epoch" not in stdout and not (tmp_path / "ft").exists()

    def test_verify_reports_checkpoint_facts(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset)
        pre = tmp_path / "pre"
        assert cli("train", "--config", cfg, "--out", pre) == 0
        capsys.readouterr()
        assert cli("verify-checkpoint", pre / "best.ckpt", "--hashes") == 0
        out = capsys.readouterr().out
        assert "checkpoint OK" in out
        assert "ResNet18_1D" in out
        assert "head.weight" in out


GOOD_METRICS = dict.fromkeys(["accuracy", "f1", "map", "gmean", "auc", "sensitivity",
                              "specificity", "ppv"], 0.5)


class TestSweepEvaluateReport:
    def test_sweep_leaderboard(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "preprocess.normalization": ["zscore", "l2"],
            "optimizer.lr": [0.001, 0.0005],
        }))
        sweep_dir = tmp_path / "sweep"
        rc = cli("sweep", "--config", cfg, "--grid", grid, "--out", sweep_dir)
        assert rc == 0
        rows = (sweep_dir / "leaderboard.csv").read_text().strip().splitlines()
        assert len(rows) == 5  # header + 4 combinations
        f1s = [float(r.split(",")[-2]) for r in rows[1:]]
        assert f1s == sorted(f1s, reverse=True)
        assert all((sweep_dir / f"run-{i:03d}").exists() for i in range(4))

    @pytest.mark.parametrize("content", [None, "{not json", "[]", "{}",
                                         '{"optimizer.lr": 0.001}',
                                         '{"optimizer.lr": []}'],
                             ids=["missing", "invalid", "list", "empty",
                                  "scalar-values", "empty-values"])
    def test_sweep_bad_grid_file_is_config_error(self, tmp_path, dataset,
                                                 capsys, content):
        cfg = write_config(tmp_path, dataset)
        grid = tmp_path / "grid.json"
        if content is not None:
            grid.write_text(content)
        rc = cli("sweep", "--config", cfg, "--grid", grid,
                 "--out", tmp_path / "sweep")
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("grid", [{"optimizer.lr": "0.1"},
                                      {"optimizer.lr": []}, {}],
                             ids=["string-values", "empty-values", "empty"])
    def test_library_sweep_checks_its_grid(self, tmp_path, dataset, grid):
        sweep_dir = tmp_path / "sweep"
        cfg = RunConfig(manifest=str(dataset), out_dir=str(sweep_dir))
        with pytest.raises(ConfigError, match="sweep grid"):
            run_sweep(cfg, grid)
        assert not sweep_dir.exists()

    def test_sweep_unknown_key_is_failed_row(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"nosuch.lr": [1]}))
        sweep_dir = tmp_path / "sweep"
        rc = cli("sweep", "--config", cfg, "--grid", grid, "--out", sweep_dir)
        assert rc == 0
        with open(sweep_dir / "leaderboard.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["run"] == "run-000" and row["nosuch.lr"] == "1"
        assert row["status"].startswith("failed: ")
        assert "unknown keys ['nosuch']" in row["status"]

    def test_sweep_rows_come_from_the_runs(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"model.architecture": ["Foo", "ResNet18_1D"],
                                    "optimizer.lr": [0.001, 0.0005]}))
        sweep_dir = tmp_path / "sweep"
        assert cli("sweep", "--config", cfg, "--grid", grid, "--out", sweep_dir) == 0
        with open(sweep_dir / "leaderboard.csv", newline="") as fh:
            rows = {row["run"]: row for row in csv.DictReader(fh)}
        assert sorted(rows) == [f"run-{i:03d}" for i in range(4)]
        for name, row in rows.items():
            run_dir = sweep_dir / name
            if row["model.architecture"] == "'Foo'":
                assert row["status"].startswith("failed: unknown architecture")
                assert not run_dir.exists()
                continue
            assert row["status"] == "ok"
            with open(run_dir / "history.csv", newline="") as fh:
                best = max(float(r["val_f1"]) for r in csv.DictReader(fh))
            metrics = json.loads((run_dir / "metrics.json").read_text())
            assert float(row["val_f1"]) == best
            assert float(row["test_f1"]) == metrics["f1"]

    def test_evaluate_outputs_report(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset)
        pre = tmp_path / "pre"
        assert cli("train", "--config", cfg, "--out", pre) == 0
        capsys.readouterr()
        rc = cli("evaluate", "--config", pre / "config.json",
                 "--checkpoint", pre / "best.ckpt", "--split", "val")
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["split"] == "val"
        assert 0.0 <= report["f1"] <= 1.0

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_evaluate_out_file_refused_before_loading(self, tmp_path, dataset,
                                                      capsys, where):
        out_file = (tmp_path / "no-such-dir" / "report.json"
                    if where == "missing-dir" else tmp_path)
        cfg = write_config(tmp_path, dataset)
        before = sorted(tmp_path.rglob("*"))
        # the checkpoint is never read: a missing one would exit 1
        rc = cli("evaluate", "--config", cfg, "--checkpoint", tmp_path / "no.ckpt",
                 "--out-file", out_file)
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: --out-file {out_file}: ")
        assert sorted(tmp_path.rglob("*")) == before

    def test_report_tables_and_radial_json(self, tmp_path, dataset, capsys):
        cfg = write_config(tmp_path, dataset)
        runs = []
        for i in range(2):
            rd = tmp_path / f"runr{i}"
            assert cli("train", "--config", cfg, "--out", rd,
                       "--seed", i) == 0
            runs.append(rd)
        out = tmp_path / "summary"
        rc = cli("report", *runs, "--out", out)
        assert rc == 0
        table = (out / "report.csv").read_text().strip().splitlines()
        assert len(table) == 3
        radial = json.loads((out / f"radial-{runs[0].name}.json").read_text())
        assert set(radial) == {"auc", "sensitivity", "specificity", "ppv"}
        md = (out / "report.md").read_text()
        metrics0 = json.loads((runs[0] / "metrics.json").read_text())
        assert f"{metrics0['f1']:.4f}" in md

    def test_report_refuses_two_runs_of_one_name(self, tmp_path, capsys):
        runs = [tmp_path / "a" / "run", tmp_path / "b" / "run"]
        for run in runs:
            run.mkdir(parents=True)
            (run / "metrics.json").write_text(json.dumps(GOOD_METRICS))
        out = tmp_path / "summary"
        assert cli("report", *runs, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"runs {runs[0]} and {runs[1]} share the name 'run'" in err
        assert not out.exists()

    def test_report_skips_incomplete_run(self, tmp_path, dataset, capsys):
        incomplete = tmp_path / "broken-run"
        incomplete.mkdir()
        out = tmp_path / "summary2"
        rc = cli("report", incomplete, "--out", out)
        assert rc == 0
        assert "skipped" in capsys.readouterr().out

    @pytest.mark.parametrize("files, message", [
        ({"metrics.json": "{not json"}, "metrics.json: invalid JSON"),
        ({"metrics.json": "[]"}, "metrics.json: not a JSON object"),
        ({"metrics.json": json.dumps({"f1": 0.5})},
         "metrics.json: missing or non-numeric accuracy"),
        ({"metrics.json": json.dumps({**GOOD_METRICS, "map": None})},
         "metrics.json: missing or non-numeric map"),
        ({"metrics.json": json.dumps(GOOD_METRICS), "config.json": "[1,"},
         "config.json: invalid JSON"),
        ({"metrics.json": json.dumps(GOOD_METRICS), "config.json": "[]"},
         "config.json: not a run config"),
    ], ids=["invalid-metrics", "metrics-list", "metrics-no-accuracy", "metrics-null",
            "invalid-config", "config-list"])
    def test_report_names_malformed_run_file(self, tmp_path, capsys, files, message):
        run = tmp_path / "run"
        run.mkdir()
        for name, text in files.items():
            (run / name).write_text(text)
        rc = cli("report", run, "--out", tmp_path / "summary")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestOutputDiscipline:
    def test_input_dataset_never_modified(self, tmp_path, dataset):
        def fingerprint(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        before = fingerprint(dataset)
        cfg = write_config(tmp_path, dataset)
        assert cli("train", "--config", cfg, "--out", tmp_path / "ro") == 0
        assert fingerprint(dataset) == before

    def test_default_output_root_env_var(self, tmp_path, dataset, monkeypatch):
        monkeypatch.setenv("ECGLEARN_RUNS", str(tmp_path / "root"))
        cfg_path = write_config(tmp_path, dataset)
        data = json.loads(cfg_path.read_text())
        data["out_dir"] = ""
        cfg_path.write_text(json.dumps(data))
        assert cli("train", "--config", cfg_path) == 0
        created = list((tmp_path / "root").iterdir())
        assert len(created) == 1 and created[0].name.startswith("train-")


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert cli("train", "--config", tmp_path / "nope.json",
                   "--out", tmp_path / "r") == 2

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        rc = cli("verify-checkpoint", tmp_path / "nope.ckpt")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.ckpt" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_import_lists_malformed_header(self, tmp_path, capsys, case):
        from ecglearn.dataio import write_wfdb_record
        src = tmp_path / "raw"
        for i in range(3):
            write_wfdb_record(src / f"ok{i}", np.zeros((12, 10)), fs=500.0)
        write_malformed_record(src / "r", case)
        (src / "labels.csv").write_text("id,labels\nok0,a\nok1,b\nok2,a\nr,b\n")
        rc = cli("prepare", "--out", tmp_path / "d", "--import-dir", src,
                 "--labels", src / "labels.csv", "--task", "multilabel")
        assert rc == 2
        out, err = capsys.readouterr()
        assert "malformed record r: r.hea: " in out
        assert err.startswith("error: 1 malformed records")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_META))
    def test_malformed_meta_is_data_error(self, tmp_path, dataset, capsys, case):
        corrupt_meta(dataset, case)
        rc = cli("train", "--config", write_config(tmp_path, dataset),
                 "--data", dataset, "--out", tmp_path / "r")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "meta.json" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFEST))
    def test_malformed_manifest_is_data_error(self, tmp_path, dataset, capsys, case):
        line_no = corrupt_manifest(dataset, case)
        rc = cli("train", "--config", write_config(tmp_path, dataset),
                 "--data", dataset, "--out", tmp_path / "r")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest.csv line {line_no}: ")

    @pytest.mark.parametrize("case", sorted(MALFORMED_CKPT_HEADERS))
    def test_malformed_checkpoint_header_is_runtime_error(self, tmp_path, capsys,
                                                          case):
        path = save_checkpoint(trained_small_model(), {"source": "none"},
                               tmp_path / "m.ckpt")
        rewrite_header(path, MALFORMED_CKPT_HEADERS[case])
        assert cli("verify-checkpoint", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: m.ckpt: corrupt header")

    @pytest.mark.parametrize("case", sorted(MISMATCHED_TENSOR_TABLES))
    def test_mismatched_tensor_table_is_runtime_error(self, tmp_path, capsys,
                                                      case):
        path = mismatched_checkpoint(tmp_path / "m.ckpt", case)
        good = save_checkpoint(trained_small_model(), {"source": "none"},
                               tmp_path / "good.ckpt")
        for argv in ([path], [good, "--compare", path]):
            assert cli("verify-checkpoint", *argv) == 1
            assert capsys.readouterr().err.startswith("error: m.ckpt: ")

    @pytest.mark.parametrize("case", ADAPT_HEAD_REFUSES)
    def test_finetune_from_mismatched_table_makes_no_run_dir(self, tmp_path,
                                                             dataset, capsys,
                                                             case):
        path = mismatched_checkpoint(tmp_path / "m.ckpt", case)
        rc = cli("finetune", "--config", write_config(tmp_path, dataset),
                 "--out", tmp_path / "ft", "--from-checkpoint", path,
                 "--mode", "all")
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: m.ckpt: ")
        assert not (tmp_path / "ft").exists()

    def test_corrupt_checkpoint_is_runtime_error(self, tmp_path, dataset):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        cfg = write_config(tmp_path, dataset)
        rc = cli("evaluate", "--config", cfg, "--checkpoint", bad)
        assert rc == 1
