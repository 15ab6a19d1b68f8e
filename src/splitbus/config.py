"""Experiment and training configuration, plus the flat key=value file format.

A config file is a sequence of ``section.key = value`` lines ('#' starts a
comment).  Unknown keys are rejected loudly — silent typos in experiment
configs are how wrong numbers end up in tables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from .data import Task


class ConfigError(ValueError):
    """Bad configuration; the CLI maps this to exit code 2."""


class Mode(enum.Enum):
    """Execution modes of the trainer.

    - ``pubsub``: worker pools exchanging through per-batch channels with
      waiting deadlines, plus the tapering parameter-server schedule.
    - ``lockstep``: one worker pair, strictly alternating exchange; the
      classic serial baseline.
    - ``sync_ps``: worker pools in strict batch-aligned rendezvous with a
      parameter-server average after every iteration.
    - ``async``: one worker pair, free-running through depth-1 channels.
    - ``async_ps``: free-running worker pools with a parameter-server
      average at the end of every epoch.
    """

    PUBSUB = "pubsub"
    LOCKSTEP = "lockstep"
    SYNC_PS = "sync_ps"
    ASYNC = "async"
    ASYNC_PS = "async_ps"


SINGLE_PAIR_MODES = (Mode.LOCKSTEP, Mode.ASYNC)


@dataclass
class ModelShape:
    active_hidden: list[int] = field(default_factory=lambda: [32])
    passive_hidden: list[int] = field(default_factory=lambda: [32])
    active_embed: int = 8
    passive_embed: int = 8
    top_hidden: list[int] = field(default_factory=lambda: [16])

    def __post_init__(self) -> None:
        for width in self.active_hidden + self.passive_hidden + self.top_hidden:
            if width < 1:
                raise ConfigError("hidden widths must be positive")
        if self.active_embed < 1 or self.passive_embed < 1:
            raise ConfigError("embedding widths must be positive")


@dataclass
class TrainConfig:
    mode: Mode = Mode.PUBSUB
    batch_size: int = 256
    workers_active: int = 8
    workers_passive: int = 10
    learning_rate: float = 0.001
    epochs: int = 20
    sync_base_interval: int = 5
    deadline_seconds: float = 10.0
    embed_capacity: int = 5
    grad_capacity: int = 5
    privacy_mu: float = math.inf
    privacy_scale_constant: float = 1.0
    privacy_queries: int | None = None  # default: one epoch's batch count
    loss_target: float | None = None  # stop once mean train loss dips below
    seed: int = 0
    skew_active_seconds: float = 0.0
    skew_passive_seconds: float = 0.0
    lookahead: int | None = None  # None: mode-dependent default
    max_retries: int = 1
    target_metric: float | None = 0.91  # time-to-target threshold (AUC)
    shape: ModelShape = field(default_factory=ModelShape)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.workers_active < 1 or self.workers_passive < 1:
            raise ConfigError("worker counts must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be positive")
        if self.sync_base_interval < 1:
            raise ConfigError("sync_base_interval must be >= 1")
        if self.deadline_seconds <= 0:
            raise ConfigError("deadline_seconds must be positive")
        if self.embed_capacity < 1 or self.grad_capacity < 1:
            raise ConfigError("channel capacities must be >= 1")
        if not (self.privacy_mu > 0):
            raise ConfigError("privacy_mu must be positive (inf disables noise)")
        if self.max_retries < 0:
            raise ConfigError("max_retries cannot be negative")
        if self.lookahead is not None and self.lookahead < 1:
            raise ConfigError("lookahead must be >= 1 when set")

    def for_mode(self, mode: Mode) -> "TrainConfig":
        """A copy adjusted for ``mode`` (single-pair modes force one worker each)."""
        cfg = replace(self, mode=mode)
        if mode in SINGLE_PAIR_MODES:
            cfg = replace(cfg, workers_active=1, workers_passive=1)
        return cfg


@dataclass
class DatasetConfig:
    kind: str = "synthetic"  # or "csv"
    rows: int = 10000
    features: int = 50
    informative: int | None = None
    task: Task = Task.CLASSIFICATION
    separation: float = 0.35
    seed: int = 0
    csv_path: str | None = None
    label_column: str | int = "label"

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "csv"):
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "csv" and not self.csv_path:
            raise ConfigError("csv datasets need dataset.csv_path")


@dataclass
class SplitConfig:
    test_fraction: float = 0.3
    active_features: int | None = None  # None: half of the columns
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0, 1)")


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    train: TrainConfig = field(default_factory=TrainConfig)


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _parse_scalar(key: str, text: str, kind: str):
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)  # accepts "inf"
        if kind == "int_list":
            return _parse_int_list(text)
        if kind == "opt_int":
            return None if text.lower() in ("", "none") else int(text)
        if kind == "opt_float":
            return None if text.lower() in ("", "none") else float(text)
    except ValueError:
        raise ConfigError(f"cannot parse value {text!r} for key {key!r}") from None
    return text


# key -> (target section, attribute, parse kind)
_KEYMAP: dict[str, tuple[str, str, str]] = {
    "dataset.kind": ("dataset", "kind", "str"),
    "dataset.rows": ("dataset", "rows", "int"),
    "dataset.features": ("dataset", "features", "int"),
    "dataset.informative": ("dataset", "informative", "opt_int"),
    "dataset.task": ("dataset", "task", "task"),
    "dataset.separation": ("dataset", "separation", "float"),
    "dataset.seed": ("dataset", "seed", "int"),
    "dataset.csv_path": ("dataset", "csv_path", "str"),
    "dataset.label_column": ("dataset", "label_column", "label"),
    "split.test_fraction": ("split", "test_fraction", "float"),
    "split.active_features": ("split", "active_features", "opt_int"),
    "split.seed": ("split", "seed", "int"),
    "model.active_hidden": ("shape", "active_hidden", "int_list"),
    "model.passive_hidden": ("shape", "passive_hidden", "int_list"),
    "model.active_embed": ("shape", "active_embed", "int"),
    "model.passive_embed": ("shape", "passive_embed", "int"),
    "model.top_hidden": ("shape", "top_hidden", "int_list"),
    "train.mode": ("train", "mode", "mode"),
    "train.batch_size": ("train", "batch_size", "int"),
    "train.workers_active": ("train", "workers_active", "int"),
    "train.workers_passive": ("train", "workers_passive", "int"),
    "train.learning_rate": ("train", "learning_rate", "float"),
    "train.epochs": ("train", "epochs", "int"),
    "train.sync_base_interval": ("train", "sync_base_interval", "int"),
    "train.deadline_ms": ("train", "deadline_seconds", "ms"),
    "train.embed_capacity": ("train", "embed_capacity", "int"),
    "train.grad_capacity": ("train", "grad_capacity", "int"),
    "train.privacy_mu": ("train", "privacy_mu", "float"),
    "train.privacy_scale_constant": ("train", "privacy_scale_constant", "float"),
    "train.privacy_queries": ("train", "privacy_queries", "opt_int"),
    "train.loss_target": ("train", "loss_target", "opt_float"),
    "train.seed": ("train", "seed", "int"),
    "train.skew_active_ms": ("train", "skew_active_seconds", "ms"),
    "train.skew_passive_ms": ("train", "skew_passive_seconds", "ms"),
    "train.lookahead": ("train", "lookahead", "opt_int"),
    "train.max_retries": ("train", "max_retries", "int"),
    "train.target_metric": ("train", "target_metric", "opt_float"),
}


def parse_key_value_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; '#' comments and blank lines are skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def experiment_from_mapping(values: dict[str, str], source: str = "<config>") -> ExperimentConfig:
    sections: dict[str, dict] = {"dataset": {}, "split": {}, "train": {}, "shape": {}}
    for key, text in values.items():
        if key not in _KEYMAP:
            raise ConfigError(f"{source}: unknown config key {key!r}")
        section, attr, kind = _KEYMAP[key]
        if kind == "task":
            try:
                value = Task(text.lower())
            except ValueError:
                raise ConfigError(f"{source}: unknown task {text!r}") from None
        elif kind == "mode":
            try:
                value = Mode(text.lower())
            except ValueError:
                raise ConfigError(f"{source}: unknown mode {text!r}") from None
        elif kind == "ms":
            value = _parse_scalar(key, text, "float") / 1000.0
        elif kind == "label":
            value = int(text) if text.lstrip("-").isdigit() else text
        elif kind == "str":
            value = text
        else:
            value = _parse_scalar(key, text, kind)
        sections[section][attr] = value
    try:
        shape = ModelShape(**sections["shape"])
        return ExperimentConfig(
            dataset=DatasetConfig(**sections["dataset"]),
            split=SplitConfig(**sections["split"]),
            train=TrainConfig(shape=shape, **sections["train"]),
        )
    except TypeError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def read_key_value_file(path: str, what: str) -> dict[str, str]:
    """``parse_key_value_text`` on a file; an unreadable file is a ``ConfigError`` too."""
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    return parse_key_value_text(text, path)


def load_experiment_config(path: str) -> ExperimentConfig:
    return experiment_from_mapping(read_key_value_file(path, "config"), path)
