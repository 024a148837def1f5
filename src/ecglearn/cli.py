"""Operator command line.

Verbs: prepare, train, finetune, sweep, evaluate, report, verify-checkpoint.
Exit codes are a stable scripting contract: 0 success, 1 runtime failure,
2 configuration/validation error (argparse usage errors also exit 2).
All outputs go to run directories; input datasets are never modified.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (RunConfig, _read_json, apply_override, config_from_dict,
                     config_to_dict)
from .dataio import (DatasetManifest, TaskKind, generate_imbalanced_binary,
                     generate_synthetic_dataset, import_dataset, save_dataset)
from .errors import (AugmentError, ConfigError, DataError, EcglearnError,
                     ModelError, SignalError, SplitError)
from .run import run_evaluate, run_finetune, run_report, run_sweep, run_train
from .transfer import FineTuneMode, load_checkpoint, tensor_hashes

_VALIDATION_ERRORS = (ConfigError, DataError, SplitError, ModelError,
                      SignalError, AugmentError)


def _echo(msg: str):
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# prepare


def _print_dataset_summary(manifest: DatasetManifest):
    counts = manifest.class_counts()
    _echo(f"dataset {manifest.name!r}: {len(manifest)} records, "
          f"task {manifest.task.kind.value}({manifest.task.k}), fs {manifest.fs:g}")
    for name, c in zip(manifest.task.classes, counts):
        _echo(f"  class {name}: {int(c)} positive")
    folds = manifest.folds()
    fold_ids = sorted(set(int(f) for f in folds))
    summary = ", ".join(f"fold {f}: {int((folds == f).sum())}" for f in fold_ids)
    _echo(f"  folds: {summary}")


def _cmd_prepare(args) -> int:
    if (args.pe_shaped or args.synthetic) and args.length < 1:
        raise ConfigError(f"--length takes a sample count >= 1, got {args.length}")
    if args.pe_shaped:
        manifest, records = generate_imbalanced_binary(
            222, 602, 39, 64, seed=args.seed, length=args.length,
            signature_amp=args.signature_amp)
    elif args.synthetic:
        try:
            counts = [int(x) for x in args.per_class.split(",")]
            if min(counts) < 1:
                raise ValueError
        except ValueError:
            raise ConfigError(f"--per-class takes a count >= 1 or comma-separated "
                              f"counts, got {args.per_class!r}") from None
        per_class = counts if "," in args.per_class else counts[0]
        manifest, records = generate_synthetic_dataset(
            args.classes, per_class, TaskKind(args.task), seed=args.seed,
            length=args.length, signature_amp=args.signature_amp)
    elif args.import_dir:
        if args.labels is None:
            raise ConfigError("--import-dir needs --labels (the label CSV)")
        manifest, records = import_dataset(
            args.import_dir, args.labels, args.task, n_folds=args.folds,
            seed=args.seed, name=args.name, log=_echo)
    else:
        raise ConfigError("choose --synthetic, --pe-shaped, or --import-dir")
    save_dataset(manifest, records, args.out)
    _print_dataset_summary(manifest)
    _echo(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train / finetune


def _load_config(args) -> RunConfig:
    data = _read_json(args.config) if args.config else config_to_dict(RunConfig())
    if not isinstance(data, dict):
        raise ConfigError(f"{args.config}: config must be a JSON object")
    alias = {"lr": "optimizer.lr", "epochs": "optimizer.epochs",
             "batch_size": "optimizer.batch_size", "seed": "seed",
             "data": "manifest", "out": "out_dir"}
    for attr, dotted in alias.items():
        value = getattr(args, attr, None)
        if value is not None:
            apply_override(data, dotted, json.dumps(value))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key.path=value, got {item!r}")
        key, _, value = item.partition("=")
        apply_override(data, key, value)
    cfg = config_from_dict(RunConfig, data)
    if not cfg.manifest:
        raise ConfigError("no dataset: set manifest in the config or pass --data")
    return cfg


def _report_run(run_dir: Path) -> int:
    metrics = json.loads((run_dir / "metrics.json").read_text())
    _echo(f"run directory: {run_dir}")
    _echo(f"test f1 {metrics['f1']:.4f}  accuracy {metrics['accuracy']:.4f}")
    return 0


def _cmd_train(args) -> int:
    return _report_run(run_train(_load_config(args), log=_echo))


def _cmd_finetune(args) -> int:
    return _report_run(run_finetune(_load_config(args), args.from_checkpoint,
                                    FineTuneMode(args.mode), log=_echo))


def _cmd_sweep(args) -> int:
    sweep_dir = run_sweep(_load_config(args), _read_json(args.grid), log=_echo)
    _echo(f"sweep directory: {sweep_dir}")
    _echo((sweep_dir / "leaderboard.csv").read_text().strip())
    return 0


def _cmd_evaluate(args) -> int:
    out_file = Path(args.out_file) if args.out_file else None
    if out_file and (out_file.is_dir() or not out_file.parent.is_dir()):
        raise ConfigError(f"--out-file {out_file}: not a file in an existing directory")
    report = run_evaluate(args.checkpoint, _load_config(args), split=args.split)
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_file:
        out_file.write_text(text + "\n")
        _echo(f"wrote {args.out_file}")
    else:
        _echo(text)
    return 0


def _cmd_report(args) -> int:
    out = run_report(args.run_dirs, args.out, log=_echo)
    _echo((out / "report.md").read_text().strip())
    return 0


def _cmd_verify_checkpoint(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    ckpt.to_model()     # checks tensor names and shapes
    n_params = sum(int(np.prod(t.shape)) for t in ckpt.tensors.values())
    _echo(f"checkpoint OK: {args.checkpoint}")
    _echo(f"  architecture {ckpt.spec.architecture} "
          f"({ckpt.spec.task.kind.value}, k={ckpt.spec.task.k})")
    _echo(f"  fingerprint {ckpt.fingerprint}")
    _echo(f"  tensors {len(ckpt.tensors)}, values {n_params:,}")
    _echo(f"  provenance {json.dumps(ckpt.provenance, sort_keys=True)}")
    if args.hashes:
        for name, digest in tensor_hashes(ckpt.tensors).items():
            _echo(f"  {digest}  {name}")
    if args.compare:
        other = load_checkpoint(args.compare)
        other.to_model()
        mine = tensor_hashes(ckpt.tensors)
        theirs = tensor_hashes(other.tensors)
        names = sorted(set(mine) | set(theirs))
        skip = args.ignore_prefix or ()
        differing = [n for n in names
                     if not any(n.startswith(p) for p in skip)
                     and mine.get(n) != theirs.get(n)]
        if differing:
            _echo(f"DIFFER ({len(differing)} tensors): " + ", ".join(differing))
        else:
            _echo("IDENTICAL (all compared tensors match)")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_config_options(p: argparse.ArgumentParser):
    p.add_argument("--config", help="run config JSON (defaults when omitted)")
    p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                   help="override a config entry (repeatable)")
    p.add_argument("--data", help="dataset directory (overrides manifest)")
    p.add_argument("--out", help="run directory (must not exist)")
    p.add_argument("--lr", type=float, help="override optimizer.lr")
    p.add_argument("--epochs", type=int, help="override optimizer.epochs")
    p.add_argument("--batch-size", dest="batch_size", type=int,
                   help="override optimizer.batch_size")
    p.add_argument("--seed", type=int, help="override seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecglearn",
        description="12-lead ECG classification: preprocessing, training, "
                    "transfer learning, and reporting")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build a dataset directory")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.add_argument("--synthetic", action="store_true",
                   help="generate a labeled synthetic dataset")
    p.add_argument("--pe-shaped", action="store_true", dest="pe_shaped",
                   help="synthetic binary set with 824 train (222/602) and "
                        "103 test (39/64)")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--per-class", dest="per_class", default="64")
    p.add_argument("--task", default="multiclass",
                   choices=[k.value for k in TaskKind])
    p.add_argument("--length", type=int, default=2500)
    p.add_argument("--signature-amp", dest="signature_amp", type=float,
                   default=0.35)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--import-dir", dest="import_dir",
                   help="directory of existing record files to import")
    p.add_argument("--labels", help="label CSV (id,labels[,fold]) for --import-dir")
    p.add_argument("--folds", type=int, default=10,
                   help="fold count when the label CSV has no fold column")
    p.add_argument("--name", default="imported", help="dataset tag")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("train", help="train a model from scratch")
    _add_config_options(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("finetune", help="fine-tune from a checkpoint")
    _add_config_options(p)
    p.add_argument("--from-checkpoint", dest="from_checkpoint", required=True)
    p.add_argument("--mode", required=True,
                   choices=[m.value for m in FineTuneMode])
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("sweep", help="grid sweep over config overrides")
    _add_config_options(p)
    p.add_argument("--grid", required=True,
                   help="JSON file mapping dotted config keys to value lists")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a split")
    _add_config_options(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--out-file", dest="out_file",
                   help="write the report JSON here instead of stdout")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="aggregate runs into tables + plot data")
    p.add_argument("run_dirs", nargs="+", help="completed run directories")
    p.add_argument("--out", required=True, help="directory for tables and JSON")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("verify-checkpoint", help="validate a checkpoint file")
    p.add_argument("checkpoint")
    p.add_argument("--hashes", action="store_true",
                   help="print per-tensor sha256 digests")
    p.add_argument("--compare", help="second checkpoint to diff against")
    p.add_argument("--ignore-prefix", dest="ignore_prefix", action="append",
                   help="tensor name prefix to exclude from --compare")
    p.set_defaults(func=_cmd_verify_checkpoint)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EcglearnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
