"""Declarative model descriptions and their canonical fingerprint."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..errors import ModelError
from ..dataio.labels import TaskSpec

__all__ = ["ModelSpec", "ARCHITECTURE_NAMES", "HYPERPARAM_DEFAULTS"]

# per-architecture hyperparameters and their defaults; width knobs allow the
# reduced-size builds used for gradient checking. A default's type sets the
# rule for its values: an int takes an integer >= 1, a float (dropout) a
# number in [0, 1).
HYPERPARAM_DEFAULTS: dict[str, dict] = {
    "AlexNet1D": {"width": 64, "dropout": 0.5},
    "VGG11bn1D": {"width": 64},
    "ResNet18_1D": {"base_width": 64},
    "EEGNet2D": {"f1": 8, "depth_mult": 2, "f2": 16, "kern_length": 250,
                 "dropout": 0.25},
    "CRNN_LSTM": {"base_width": 64, "hidden_size": 256, "num_layers": 2},
    "CRNN_GRU": {"base_width": 64, "hidden_size": 256, "num_layers": 2},
    "AttResNet": {"base_width": 64, "embed_dim": 512, "num_heads": 4},
    "TransformerEnc": {"embed_dim": 512, "num_heads": 4, "num_layers": 4,
                       "ffn_dim": 1024, "stem_kernel": 15, "stem_stride": 8,
                       "max_tokens": 512, "dropout": 0.1},
    "ResTransformer": {"base_width": 64, "embed_dim": 512, "num_heads": 4,
                       "num_layers": 2, "ffn_dim": 1024, "max_tokens": 512,
                       "dropout": 0.1},
}

ARCHITECTURE_NAMES = tuple(HYPERPARAM_DEFAULTS)

_CANON = {name.lower(): name for name in ARCHITECTURE_NAMES}


@dataclass(frozen=True)
class ModelSpec:
    """Architecture name, task head, and resolved hyperparameters."""

    architecture: str
    task: TaskSpec
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        canon = _CANON.get(self.architecture.lower())
        if canon is None:
            raise ModelError(
                f"unknown architecture {self.architecture!r}; "
                f"choose from {', '.join(ARCHITECTURE_NAMES)}")
        object.__setattr__(self, "architecture", canon)
        defaults = HYPERPARAM_DEFAULTS[canon]
        unknown = set(self.hyperparams) - set(defaults)
        if unknown:
            raise ModelError(
                f"{canon}: unknown hyperparameters {sorted(unknown)}; "
                f"valid keys: {sorted(defaults)}")
        for key, value in self.hyperparams.items():
            dropout = isinstance(defaults[key], float)
            typed = (isinstance(value, (int, float) if dropout else int)
                     and not isinstance(value, bool))
            if not (typed and (0 <= value < 1 if dropout else value >= 1)):
                rule = "a number in [0, 1)" if dropout else "an integer >= 1"
                raise ModelError(f"{canon}: hyperparameter {key!r} must be "
                                 f"{rule}, got {value!r}")
        resolved = {**defaults, **self.hyperparams}
        object.__setattr__(self, "hyperparams", resolved)

    @property
    def k(self) -> int:
        return self.task.k

    def to_dict(self) -> dict:
        return {"architecture": self.architecture,
                "task": self.task.to_dict(),
                "hyperparams": dict(sorted(self.hyperparams.items()))}

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        return ModelSpec(architecture=d["architecture"],
                         task=TaskSpec.from_dict(d["task"]),
                         hyperparams=dict(d.get("hyperparams", {})))

    def fingerprint(self) -> str:
        """sha256 of the canonical (sorted-key) JSON serialization."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
