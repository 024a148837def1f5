"""Run orchestration: wiring configs to datasets, models, training, reports.

Every command writes into a run directory: the resolved config snapshot
(config.json), per-epoch history (history.csv), the best checkpoint
(best.ckpt), and the test-split metric report (metrics.json). Re-running a
snapshot under its recorded seed reproduces history and parameters
bit-for-bit. Output never touches the input dataset directory.

A run is refused before its directory exists: train and finetune make every
input first, so a refused command leaves nothing and can be re-run as it is.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from pathlib import Path

import numpy as np

from .config import (RunConfig, _read_json, apply_override, config_from_dict,
                     config_to_dict)
from .dataio import (BatchLoader, DatasetManifest, load_manifest, load_records,
                     split_indices)
from .errors import ConfigError, EcglearnError
from .learn import (MetricsReport, TrainResult, class_weights_from_counts,
                    evaluate, focal_loss, history_row_names, train_model,
                    weighted_bce)
from .models import ModelSpec, build
from .signal import FilterSpec
from .transfer import (FineTuneMode, adapt_head, finetune, load_checkpoint,
                       save_checkpoint)

__all__ = ["default_output_root", "prepare_run_dir", "run_train",
           "run_finetune", "run_evaluate", "run_sweep", "run_report",
           "RADIAL_KEYS"]

OUTPUT_ROOT_ENV = "ECGLEARN_RUNS"
RADIAL_KEYS = ("auc", "sensitivity", "specificity", "ppv")
_TABLE_KEYS = ("accuracy", "f1", "map", "gmean")


def default_output_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))


def _free_run_dir(cfg: RunConfig, name_hint: str) -> Path:
    out = Path(cfg.out_dir) if cfg.out_dir else default_output_root() / name_hint
    if out.exists() and not out.is_dir():
        raise ConfigError(f"run directory {out} exists and is not a directory")
    if out.exists() and any(out.iterdir()):
        raise ConfigError(f"run directory {out} already exists and is not empty")
    return out


def prepare_run_dir(cfg: RunConfig, name_hint: str) -> Path:
    out = _free_run_dir(cfg, name_hint)
    out.mkdir(parents=True, exist_ok=True)
    return out


class ResolvedData:
    def __init__(self, cfg: RunConfig):
        self.manifest: DatasetManifest = load_manifest(cfg.manifest)
        self.indices = split_indices(self.manifest, cfg.split)
        self.records = load_records(self.manifest, cfg.manifest)
        f = cfg.preprocess.filter
        self.filter_spec = None if f is None else FilterSpec(self.manifest.fs, **vars(f))
        self._cfg = cfg

    def loader(self, split: str, training: bool) -> BatchLoader:
        pp = self._cfg.preprocess
        return BatchLoader(
            [self.records[i] for i in self.indices[split]], self.manifest.task,
            batch_size=self._cfg.optimizer.batch_size,
            segment_len=pp.segment_len, normalization=pp.normalization,
            filter_spec=self.filter_spec, max_len=pp.max_len,
            augment=self._cfg.augment if training else None,
            seed=self._cfg.seed, training=training)


def _make_loss(cfg: RunConfig, data: ResolvedData):
    if cfg.loss.kind == "focal":
        return lambda logits, y: focal_loss(logits, y, gamma=cfg.loss.gamma,
                                            alpha=cfg.loss.alpha)
    train_labels = np.stack(
        [data.records[i].labels.values for i in data.indices["train"]])
    weights = class_weights_from_counts(train_labels)
    return lambda logits, y: weighted_bce(logits, y, weights)


def _write_history(path: Path, history: list[dict]):
    names = history_row_names()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in history:
            writer.writerow([repr(row[n]) if isinstance(row[n], float) else row[n]
                             for n in names])


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run(cfg: RunConfig, log, checkpoint_path=None, mode=None
         ) -> tuple[Path, TrainResult, MetricsReport]:
    """Train from scratch, or fine-tune ``checkpoint_path`` in ``mode``.

    Nothing is written until the checkpoint (which names the default run
    directory), a free run directory, the splits, records, model, loss and
    train and val loaders are made; the test loader is built after training.
    """
    ckpt = None if checkpoint_path is None else load_checkpoint(checkpoint_path)
    if ckpt is None:
        run_dir = _free_run_dir(cfg, f"train-{cfg.model.architecture}")
    else:
        run_dir = _free_run_dir(cfg, f"finetune-{ckpt.spec.architecture}")
        if cfg.model.architecture.lower() != ckpt.spec.architecture.lower():
            raise ConfigError(
                f"config architecture {cfg.model.architecture!r} does not "
                f"match checkpoint architecture {ckpt.spec.architecture!r}")
        if {**ckpt.spec.hyperparams, **cfg.model.hyperparams} != ckpt.spec.hyperparams:
            raise ConfigError(
                "config hyperparams conflict with the checkpoint; fine-tuning "
                f"must reuse {ckpt.spec.hyperparams}")
    data = ResolvedData(cfg)
    provenance = {"source": data.manifest.name, "seed": cfg.seed}
    snapshot = config_to_dict(cfg)
    if ckpt is None:
        model = build(ModelSpec(cfg.model.architecture, data.manifest.task,
                                cfg.model.hyperparams), cfg.seed)
    else:
        mode = FineTuneMode(mode)
        model = adapt_head(ckpt, data.manifest.task, seed=cfg.seed)
        provenance.update(pretrained_on=ckpt.provenance.get("source", "none"),
                          finetune_mode=mode.value)
        snapshot["_invocation"] = {"from_checkpoint": str(checkpoint_path),
                                   "mode": mode.value}
    loss_fn = _make_loss(cfg, data)
    loaders = (data.loader("train", training=True),
               data.loader("val", training=False))

    run_dir.mkdir(parents=True, exist_ok=True)
    _write_json(run_dir / "config.json", {**snapshot, "out_dir": str(run_dir)})
    if ckpt is None:
        result = train_model(model, *loaders, loss_fn, cfg.optimizer, log=log)
    else:
        result = finetune(model, mode, *loaders, loss_fn, cfg.optimizer, log=log)
    _write_history(run_dir / "history.csv", result.history)
    save_checkpoint(model, {**provenance, "epochs": len(result.history),
                            "best_epoch": result.best_epoch,
                            "best_val_f1": result.best_val_f1},
                    run_dir / "best.ckpt", seed=cfg.seed)
    report = evaluate(model, data.loader("test", training=False))
    _write_json(run_dir / "metrics.json", {"split": "test", **report.to_dict()})
    return run_dir, result, report


def run_train(cfg: RunConfig, log=None) -> Path:
    """Train from scratch per the config; returns the run directory."""
    return _run(cfg, log)[0]


def run_finetune(cfg: RunConfig, checkpoint_path: str | Path,
                 mode: FineTuneMode, log=None) -> Path:
    """Adapt a pretrained checkpoint's head to this dataset and fine-tune.

    The config's architecture and hyperparameters must match the checkpoint,
    and its tensors the architecture; mismatches fail before the run
    directory is made.
    """
    return _run(cfg, log, checkpoint_path, mode)[0]


def run_evaluate(checkpoint_path: str | Path, cfg: RunConfig,
                 split: str = "test") -> dict:
    """Evaluate a checkpoint on a dataset split; returns the report dict."""
    ckpt = load_checkpoint(checkpoint_path)
    data = ResolvedData(cfg)
    if ckpt.spec.task != data.manifest.task:
        raise ConfigError(
            f"checkpoint task {ckpt.spec.task.to_dict()} does not match "
            f"dataset task {data.manifest.task.to_dict()}")
    model = ckpt.to_model()
    report = evaluate(model, data.loader(split, training=False))
    return {"split": split, **report.to_dict()}


def run_sweep(base_cfg: RunConfig, grid: dict[str, list], log=None) -> Path:
    """Cartesian sweep of dotted-path overrides, sequential, shared seed.

    ``grid`` maps dotted config keys to non-empty value lists (checked before
    the sweep directory is made). Each combination trains in its own
    subdirectory. Failures are recorded in the leaderboard and the sweep
    continues. The leaderboard is sorted by best validation F1, descending.
    """
    if not isinstance(grid, dict) or not grid:
        raise ConfigError(f"sweep grid must be a non-empty object, got {grid!r}")
    for key, values in grid.items():
        if not isinstance(key, str) or not isinstance(values, list) or not values:
            raise ConfigError(f"sweep grid {key!r}: expected a non-empty list, "
                              f"got {values!r}")
    sweep_dir = prepare_run_dir(base_cfg, "sweep")
    keys = sorted(grid)
    rows = []
    for combo_idx, values in enumerate(itertools.product(*(grid[k] for k in keys))):
        overrides = dict(zip(keys, values))
        data = config_to_dict(base_cfg)
        for key, value in overrides.items():
            apply_override(data, key, json.dumps(value))
        data["out_dir"] = str(sweep_dir / f"run-{combo_idx:03d}")
        row = {"run": f"run-{combo_idx:03d}",
               **{k: repr(v) for k, v in overrides.items()}}
        try:
            _, result, test = _run(config_from_dict(RunConfig, data), log)
            row.update(status="ok", val_f1=result.best_val_f1, test_f1=test.f1)
        except EcglearnError as e:
            row.update(status=f"failed: {e}", val_f1=float("-inf"),
                       test_f1=float("nan"))
        rows.append(row)
        if log:
            log(f"{row['run']}: {row['status']}")

    rows.sort(key=lambda r: -r["val_f1"])
    columns = ["run", *keys, "status", "val_f1", "test_f1"]
    with open(sweep_dir / "leaderboard.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return sweep_dir


def run_report(run_dirs: list[str | Path], out_dir: str | Path,
               log=None) -> Path:
    """Aggregate completed runs into a metric table plus radial-plot data.

    Emits report.md and report.csv (rows = runs; columns = accuracy, F1, MAP,
    G-mean) and one radial-<run>.json per run with the comparison axes
    (AUC, sensitivity, specificity, PPV). Incomplete run directories are
    skipped with a warning. Every run is read before anything is written: a
    malformed metrics.json or config.json is a ConfigError naming the file,
    and so are two runs of one name and an ``out_dir`` that is a file.
    """
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"report directory {out} exists and is not a directory")
    table, radial = [], {}      # radial: run name -> (directory, axes)
    for rd in run_dirs:
        rd = Path(rd)
        metrics_path = rd / "metrics.json"
        if not metrics_path.exists():
            if log:
                log(f"warning: {rd} has no metrics.json; skipped")
            continue
        metrics = _read_json(metrics_path)
        if not isinstance(metrics, dict):
            raise ConfigError(f"{metrics_path}: not a JSON object")
        bad = [k for k in (*_TABLE_KEYS, *RADIAL_KEYS)
               if not isinstance(metrics.get(k), (int, float))]
        if bad:
            raise ConfigError(f"{metrics_path}: missing or non-numeric {', '.join(bad)}")
        cfg_path = rd / "config.json"
        cfg = _read_json(cfg_path) if cfg_path.exists() else {}
        if not isinstance(cfg, dict) or not isinstance(cfg.get("model", {}), dict):
            raise ConfigError(f"{cfg_path}: not a run config (no model object)")
        name = rd.name
        if name in radial:
            raise ConfigError(f"runs {radial[name][0]} and {rd} share the name {name!r}")
        table.append({
            "run": name,
            "architecture": cfg.get("model", {}).get("architecture", "?"),
            **{k: metrics[k] for k in _TABLE_KEYS},
        })
        radial[name] = rd, {k: metrics[k] for k in RADIAL_KEYS}

    out.mkdir(parents=True, exist_ok=True)
    for name, (_, axes) in radial.items():
        _write_json(out / f"radial-{name}.json", axes)
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["run", "architecture", *_TABLE_KEYS])
        writer.writeheader()
        writer.writerows(table)

    lines = ["| Run | Architecture | Acc | F1 | MAP | GM |",
             "|---|---|---|---|---|---|"]
    for row in table:
        lines.append(f"| {row['run']} | {row['architecture']} "
                     f"| {row['accuracy']:.4f} | {row['f1']:.4f} "
                     f"| {row['map']:.4f} | {row['gmean']:.4f} |")
    (out / "report.md").write_text("\n".join(lines) + "\n")
    return out
