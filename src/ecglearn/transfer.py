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
(temp file + rename). ``load_checkpoint`` checks the file; whatever makes a
model from it (``to_model``, ``adapt_head``) builds once and checks tensor
names and shapes. ``adapt_head`` rebuilds the architecture for a new task,
freshly initializes the head, and copies every non-head tensor bitwise;
``finetune`` trains either all weights or the head only (the frozen backbone
is pinned in eval mode so none of its tensors can change).
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
    filename: str = "checkpoint"    # names the file in error messages

    def to_model(self, seed: int | None = None) -> Model:
        """Rebuild the architecture in the stored tensors' dtype and restore
        every tensor bitwise."""
        return self._make(self.spec, self.seed if seed is None else seed,
                          lambda model: self.tensors)

    def _make(self, spec: ModelSpec, seed: int, state_for) -> Model:
        """Build ``spec`` once and load ``state_for(model)`` into it."""
        try:
            model = build(spec, seed, _stored_dtype(self.tensors))
            model.load_state_dict(state_for(model))
        except ModelError as e:
            raise CheckpointError(
                f"{self.filename}: tensors do not match the model "
                f"description; {e}") from None
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


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Parse and check a checkpoint file; no model is built.

    Checks: magic and version, header fields, fingerprint against the
    embedded model description, declared vs actual data size (truncation),
    each tensor's dtype and its start where the previous one ends (the
    layout ``save_checkpoint`` writes). ``to_model`` and ``adapt_head``
    check tensor names and shapes when they build the model.
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
    seed, provenance = header.get("seed", 0), header.get("provenance", {})
    if type(seed) is not int or seed < 0:
        raise CheckpointError(f"{path.name}: corrupt header (seed must be a "
                              f"non-negative integer, got {seed!r})")
    if not isinstance(provenance, dict):
        raise CheckpointError(f"{path.name}: corrupt header (provenance must "
                              f"be an object, got {provenance!r})")
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
    return Checkpoint(version=header["version"], fingerprint=header["fingerprint"],
                      spec=spec, seed=seed, provenance=provenance,
                      tensors=tensors, filename=path.name)


def adapt_head(checkpoint: Checkpoint, task: TaskSpec, seed: int) -> Model:
    """New task head, pretrained backbone.

    The head is always freshly initialized (seeded), even when the class
    count matches the checkpoint's; the model is built in the stored tensors'
    dtype and every non-head tensor is copied bitwise. Tensor names must be
    the architecture's, head included; the old head's shapes are not read.
    """
    new_spec = ModelSpec(architecture=checkpoint.spec.architecture,
                         task=task, hyperparams=checkpoint.spec.hyperparams)

    def fresh_head(model: Model) -> dict[str, np.ndarray]:
        head = {n: p.data for n, p in model.named_parameters().items()
                if n.startswith(model.head_prefix)}
        return {n: head.get(n, arr) for n, arr in checkpoint.tensors.items()}

    return checkpoint._make(new_spec, seed, fresh_head)


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
