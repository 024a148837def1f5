"""Checkpoints, head adaptation, and fine-tuning protocols.

Checkpoint layout (language-neutral, bit-exact, seekable):

    bytes 0..7    magic "ECGLCKPT"
    bytes 8..15   header length, little-endian uint64
    header        UTF-8 JSON: version, architecture fingerprint, full model
                  description, seed, provenance, and a tensor table
                  (name/shape/dtype/offset/nbytes, offsets into the data
                  section, names sorted)
    data          concatenated little-endian tensor blocks

Saved state includes normalization running statistics, so save -> load
round-trips reproduce eval behavior bitwise. Files are written atomically
(temp file + rename). ``adapt_head`` rebuilds the architecture for a new
task, freshly initializes the head, and copies every non-head tensor
bitwise; ``finetune`` trains either all weights or the head only (the frozen
backbone is pinned in eval mode so none of its tensors can change).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .dataio.batches import BatchLoader
from .dataio.labels import TaskSpec
from .errors import CheckpointError, ModelError
from .learn.optim import OptimizerConfig
from .learn.train import LossFn, TrainResult, train_model
from .models import Model, ModelSpec, build

__all__ = [
    "FineTuneMode", "Checkpoint", "save_checkpoint", "load_checkpoint",
    "adapt_head", "finetune", "tensor_hashes",
]

_MAGIC = b"ECGLCKPT"
_VERSION = 1

_KNOWN_SOURCES = ("PTB-XL", "CPSC18", "MedalCare", "none")


class FineTuneMode(str, Enum):
    ALL_WEIGHTS = "all"
    HEAD_ONLY = "head"


def _validate_source(source: str):
    if source in _KNOWN_SOURCES or source.startswith("synthetic:"):
        return
    raise CheckpointError(
        f"provenance source {source!r} not recognized; expected one of "
        f"{', '.join(_KNOWN_SOURCES)} or 'synthetic:<tag>'")


def _stored_dtype(tensors: dict[str, np.ndarray]) -> np.dtype:
    """The widest stored tensor dtype; float32 when there are no tensors."""
    return max((arr.dtype for arr in tensors.values()),
               key=lambda d: d.itemsize, default=np.dtype(np.float32))


@dataclass
class Checkpoint:
    version: int
    fingerprint: str
    spec: ModelSpec
    seed: int
    provenance: dict
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def to_model(self, seed: int | None = None) -> Model:
        """Rebuild the architecture in the stored tensors' dtype and restore
        every tensor bitwise."""
        model = build(self.spec, seed if seed is not None else self.seed,
                      _stored_dtype(self.tensors))
        model.load_state_dict(self.tensors)
        return model


_DTYPE_CODES = {np.dtype(np.float32): "<f4", np.dtype(np.float64): "<f8"}


def _dtype_code(arr: np.ndarray) -> str:
    try:
        return _DTYPE_CODES[arr.dtype]
    except KeyError:
        raise CheckpointError(f"unsupported tensor dtype {arr.dtype}") from None


def save_checkpoint(model: Model, provenance: dict, path: str | Path,
                    seed: int | None = None) -> Path:
    """Serialize parameters + buffers with provenance; atomic replace."""
    provenance = dict(provenance)
    _validate_source(provenance.get("source", "none"))
    path = Path(path)
    state = model.state_dict()
    names = sorted(state)
    table = []
    offset = 0
    for name in names:
        arr = state[name]
        nbytes = arr.size * arr.itemsize
        table.append({"name": name, "shape": list(arr.shape),
                      "dtype": _dtype_code(arr), "offset": offset,
                      "nbytes": nbytes})
        offset += nbytes
    header = {
        "version": _VERSION,
        "fingerprint": model.spec.fingerprint(),
        "spec": model.spec.to_dict(),
        "seed": model.seed if seed is None else seed,
        "provenance": provenance,
        "tensors": table,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(tmp, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for name in names:
            arr = state[name]
            fh.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"),
                                                      copy=False).tobytes())
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str | Path, validate_shapes: bool = True) -> Checkpoint:
    """Parse and validate a checkpoint; a corrupt file never yields a model.

    Validation: magic and version, declared vs actual data size (truncation),
    fingerprint against the embedded model description, each tensor starting
    where the previous one ends (the layout ``save_checkpoint`` writes), and
    (by default) name/shape agreement with a freshly built instance of that
    description.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e.strerror}") from None
    if len(data) < 16 or data[:8] != _MAGIC:
        raise CheckpointError(f"{path.name}: not a checkpoint file")
    header_len = int.from_bytes(data[8:16], "little")
    if len(data) < 16 + header_len:
        raise CheckpointError(f"{path.name}: truncated header")
    try:
        header = json.loads(data[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path.name}: corrupt header ({e})") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path.name}: corrupt header (not a JSON object)")
    missing = [k for k in ("version", "spec", "fingerprint", "tensors") if k not in header]
    if missing:
        raise CheckpointError(f"{path.name}: corrupt header (missing {', '.join(missing)})")
    if header["version"] != _VERSION:
        raise CheckpointError(
            f"{path.name}: format version {header['version']} is not "
            f"supported (this build reads version {_VERSION})")
    try:
        spec = ModelSpec.from_dict(header["spec"])
        expected = sum(t["nbytes"] for t in header["tensors"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path.name}: corrupt header ({e!r})") from None
    if spec.fingerprint() != header["fingerprint"]:
        raise CheckpointError(
            f"{path.name}: fingerprint mismatch; the embedded model "
            "description does not match the recorded fingerprint")

    base = 16 + header_len
    if len(data) - base != expected:
        raise CheckpointError(
            f"{path.name}: data section holds {len(data) - base} bytes, header "
            f"declares {expected} (file truncated or padded)")
    tensors, offset = {}, 0
    try:
        for entry in header["tensors"]:
            name, code, nbytes = entry["name"], entry["dtype"], entry["nbytes"]
            if code not in _DTYPE_CODES.values():
                raise ValueError(f"tensor {name!r}: dtype {code!r} is not one of "
                                 f"{', '.join(_DTYPE_CODES.values())}")
            dtype = np.dtype(code)
            if entry["offset"] != offset:
                raise ValueError(f"tensor {name!r} at offset {entry['offset']}, "
                                 f"expected {offset}")
            arr = np.frombuffer(data, dtype, nbytes // dtype.itemsize, base + offset)
            if arr.nbytes != nbytes:
                raise ValueError(f"tensor {name!r}: nbytes {nbytes} is not a whole "
                                 f"number of {dtype} items")
            tensors[name] = arr.reshape(entry["shape"]).astype(dtype.newbyteorder("="))
            offset += nbytes
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path.name}: corrupt header ({e!r})") from None
    ckpt = Checkpoint(version=header["version"], fingerprint=header["fingerprint"],
                      spec=spec, seed=header.get("seed", 0),
                      provenance=header.get("provenance", {}), tensors=tensors)
    if validate_shapes:
        try:
            build(spec, seed=0).load_state_dict(tensors)
        except ModelError as e:
            raise CheckpointError(
                f"{path.name}: tensors do not match the model description; "
                f"{e}") from None
    return ckpt


def adapt_head(checkpoint: Checkpoint, task: TaskSpec, seed: int) -> Model:
    """New task head, pretrained backbone.

    The head is always freshly initialized (seeded), even when the class
    count matches the checkpoint's; the model is built in the stored tensors'
    dtype and every non-head tensor is copied bitwise.
    """
    new_spec = ModelSpec(architecture=checkpoint.spec.architecture,
                         task=task, hyperparams=checkpoint.spec.hyperparams)
    model = build(new_spec, seed, _stored_dtype(checkpoint.tensors))
    prefix = model.head_prefix
    ckpt_backbone = {n for n in checkpoint.tensors if not n.startswith(prefix)}
    if not any(n.startswith(prefix) for n in checkpoint.tensors):
        raise CheckpointError(
            f"checkpoint for {checkpoint.spec.architecture} has no "
            f"{prefix}* tensors; cannot adapt its head")
    state = model.state_dict()
    model_backbone = {n for n in state if not n.startswith(prefix)}
    if ckpt_backbone != model_backbone:
        raise CheckpointError(
            "backbone tensors do not line up for head adaptation; "
            f"only-in-checkpoint={sorted(ckpt_backbone - model_backbone)}, "
            f"only-in-model={sorted(model_backbone - ckpt_backbone)}")
    for name in model_backbone:
        state[name] = checkpoint.tensors[name]
    model.load_state_dict(state)
    return model


def finetune(model: Model, mode: FineTuneMode, train_loader: BatchLoader,
             val_loader: BatchLoader, loss_fn: LossFn,
             cfg: OptimizerConfig, log=None) -> TrainResult:
    """Fine-tune all weights, or the head only with the backbone frozen."""
    mode = FineTuneMode(mode)
    if mode is FineTuneMode.HEAD_ONLY:
        model.freeze_backbone()
    else:
        model.unfreeze_all()
    return train_model(model, train_loader, val_loader, loss_fn, cfg, log=log)


def tensor_hashes(state: dict[str, np.ndarray]) -> dict[str, str]:
    """sha256 of each tensor's raw little-endian bytes; auditably comparable."""
    out = {}
    for name in sorted(state):
        arr = np.ascontiguousarray(state[name])
        out[name] = hashlib.sha256(
            arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        ).hexdigest()
    return out
