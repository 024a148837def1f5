"""Run configuration: a complete, serializable experiment description.

A RunConfig plus the dataset directory fully determines a run, including
every stochastic stream. Configs serialize to JSON; loading checks each
value's type and the split's folds, and rejects unknown keys (typos must fail
loudly, or the snapshot-reproducibility contract breaks). CLI overrides are
applied with dotted paths before validation.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path

from .augment import AugmentConfig
from .dataio.splits import SplitPlan
from .errors import ConfigError
from .learn.losses import _check_focal_params
from .learn.optim import OptimizerConfig
from .signal import NormalizationMethod

__all__ = ["FilterConfig", "PreprocessConfig", "LossConfig", "ModelConfig",
           "SplitConfig", "RunConfig", "config_to_dict", "config_from_dict",
           "apply_override"]


@dataclass(frozen=True)
class FilterConfig:
    order: int = 2
    low_cut: float = 1.0
    high_cut: float = 45.0


@dataclass(frozen=True)
class PreprocessConfig:
    filter: FilterConfig | None = field(default_factory=FilterConfig)
    max_len: int | None = 5000
    segment_len: int = 2048
    normalization: NormalizationMethod = NormalizationMethod.ZSCORE


@dataclass(frozen=True)
class LossConfig:
    kind: str = "focal"            # "focal" or "weighted_bce"
    gamma: float = 2.0
    alpha: float = 0.7

    def __post_init__(self):
        if self.kind not in ("focal", "weighted_bce"):
            raise ConfigError(f"loss kind must be 'focal' or 'weighted_bce', "
                              f"got {self.kind!r}")
        _check_focal_params(self.gamma, self.alpha)


@dataclass(frozen=True)
class ModelConfig:
    architecture: str = "ResNet18_1D"
    hyperparams: dict = field(default_factory=dict)


SplitConfig = SplitPlan     # the split section's type, by its former name


@dataclass(frozen=True)
class RunConfig:
    manifest: str = ""
    out_dir: str = ""
    seed: int = 0
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    split: SplitPlan = field(default_factory=SplitPlan)


# ---------------------------------------------------------------------------
# generic strict dataclass <-> dict conversion


def _read_json(path: str | Path):
    """Decode a JSON file; an unreadable or malformed file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e.strerror}") from None
    except ValueError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None


def config_to_dict(obj):
    if is_dataclass(obj):
        return {f.name: config_to_dict(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [config_to_dict(x) for x in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, dict):
        return {k: config_to_dict(v) for k, v in obj.items()}
    return obj


# scalar annotation -> (the JSON types it takes, what an error calls it); a
# JSON true or false is a bool, an int subclass, so only a bool field takes it
_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"),
            bool: (bool, "a boolean"), str: (str, "a string")}


def _convert(annotation, value, path: str):
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if value is None:
            if len(args) == len(typing.get_args(annotation)):
                raise ConfigError(f"{path}: null not allowed")
            return None
        return _convert(args[0], value, path)
    if annotation is dict or origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
        return dict(value)
    if origin in (tuple, list, frozenset):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        args = typing.get_args(annotation)
        elem = args[0] if args else float
        items = (_convert(elem, v, f"{path}[{i}]") for i, v in enumerate(value))
        return frozenset(items) if origin is frozenset else tuple(items)
    if is_dataclass(annotation):
        return config_from_dict(annotation, value, path)
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        try:
            return annotation(value)
        except ValueError:
            valid = ", ".join(e.value for e in annotation)
            raise ConfigError(f"{path}: {value!r} is not one of [{valid}]") from None
    if annotation in _SCALARS:
        accepted, wording = _SCALARS[annotation]
        if not isinstance(value, accepted) or (isinstance(value, bool)
                                               and annotation is not bool):
            raise ConfigError(f"{path}: expected {wording}, got {value!r}")
        return annotation(value)
    return value


def config_from_dict(cls, data: dict, path: str = "") -> object:
    """Build a dataclass tree from a dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or cls.__name__}: expected an object")
    hints = typing.get_type_hints(cls)
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        where = path or cls.__name__
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; "
                          f"valid keys: {sorted(known)}")
    kwargs = {}
    for name, f in known.items():
        sub_path = f"{path}.{name}" if path else name
        if name in data:
            kwargs[name] = _convert(hints[name], data[name], sub_path)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{sub_path}: required key missing")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except Exception as e:
        raise ConfigError(f"{path or cls.__name__}: {e}") from None


def apply_override(data: dict, dotted_key: str, raw_value: str) -> dict:
    """Set a dotted path in a config dict; values parse as JSON, else strings."""
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node = data
    parts = dotted_key.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value
    return data
