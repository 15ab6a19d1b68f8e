"""Experiment and training configuration, plus the flat key=value file format.

:data:`MODE_POLICIES` holds every rule that tells one training mode from
another, one row per :class:`Mode`; the runtime and :meth:`TrainConfig.for_mode`
read them there and nowhere else.

A config file is a sequence of ``section.key = value`` lines ('#' starts a
comment).  Unknown keys are rejected loudly — silent typos in experiment
configs are how wrong numbers end up in tables.  A bad value's message names
its key, in the key's unit, and :func:`experiment_from_mapping` adds the file.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, field, replace
from typing import Callable

from .data import Task
from .schedule import should_sync


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
    - ``async``: one worker pair, free-running.
    - ``async_ps``: free-running worker pools with a parameter-server
      average at the end of every epoch.
    """

    PUBSUB = "pubsub"
    LOCKSTEP = "lockstep"
    SYNC_PS = "sync_ps"
    ASYNC = "async"
    ASYNC_PS = "async_ps"


@dataclass(frozen=True)
class ModePolicy:
    """How one mode coordinates its workers; the only place the modes differ."""

    single_pair: bool  # exactly one worker per party
    lookahead: Callable[[TrainConfig, int], int]  # (cfg, batches per epoch) -> in flight
    waits_expire: bool  # subscribes give up after cfg.deadline_seconds
    rendezvous: bool  # static assignment, replicas averaged after every iteration
    end_sync: Callable[[int, int], bool]  # (base interval, epoch) -> average after it?


def _one_in_flight(cfg: TrainConfig, num_batches: int) -> int:
    return 1  # ``train.lookahead`` does not apply


def _pipelined(cfg: TrainConfig, num_batches: int) -> int:
    # One batch of lookahead hides the other party's latency; a single worker
    # keeps lookahead 1 so the degenerate config stays deterministic.
    return cfg.lookahead or (1 if cfg.workers_passive == 1 else 2)


def _free_running(cfg: TrainConfig, num_batches: int) -> int:
    return cfg.lookahead or num_batches  # never wait before the queue is empty


def _never(base_interval: int, epoch: int) -> bool:
    return False


def _always(base_interval: int, epoch: int) -> bool:
    return True


MODE_POLICIES: dict[Mode, ModePolicy] = {
    #                         single lookahead     expire rendezvous end_sync
    Mode.LOCKSTEP: ModePolicy(True, _one_in_flight, False, False, _never),
    Mode.SYNC_PS: ModePolicy(False, _one_in_flight, False, True, _never),
    Mode.PUBSUB: ModePolicy(False, _pipelined, True, False, should_sync),
    Mode.ASYNC: ModePolicy(True, _free_running, True, False, _never),
    Mode.ASYNC_PS: ModePolicy(False, _free_running, True, False, _always),
}
SINGLE_PAIR_MODES = tuple(m for m, p in MODE_POLICIES.items() if p.single_pair)
# Modes whose passive workers hold one batch at a time: ``lookahead`` does not apply.
ONE_IN_FLIGHT_MODES = tuple(m for m, p in MODE_POLICIES.items() if p.lookahead is _one_in_flight)


@dataclass
class ModelShape:
    active_hidden: list[int] = field(default_factory=lambda: [32])
    passive_hidden: list[int] = field(default_factory=lambda: [32])
    active_embed: int = 8
    passive_embed: int = 8
    top_hidden: list[int] = field(default_factory=lambda: [16])

    def __post_init__(self) -> None:
        for name in ("active_hidden", "passive_hidden", "top_hidden"):
            if min(getattr(self, name), default=1) < 1:
                raise ConfigError(f"model.{name} widths must be positive")
        for name in ("active_embed", "passive_embed"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be positive")


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
    privacy_mu: float = math.inf
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
        for name in ("batch_size", "workers_active", "workers_passive", "epochs",
                     "sync_base_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"train.{name} must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("train.learning_rate must be positive and finite")
        if not 0 < self.deadline_seconds <= threading.TIMEOUT_MAX:  # a wait's longest timeout
            raise ConfigError(f"train.deadline_ms must be in (0, {threading.TIMEOUT_MAX * 1e3:g}]")
        if not (self.privacy_mu > 0):
            raise ConfigError("train.privacy_mu must be positive (inf disables noise)")
        for name in ("skew_active", "skew_passive"):
            if not 0 <= getattr(self, f"{name}_seconds") < math.inf:
                raise ConfigError(f"train.{name}_ms must be finite and non-negative")
        if self.max_retries < 0:
            raise ConfigError("train.max_retries cannot be negative")
        if self.lookahead is not None and self.lookahead < 1:
            raise ConfigError("train.lookahead must be >= 1 when set")

    def for_mode(self, mode: Mode) -> "TrainConfig":
        """A copy adjusted for ``mode``: single-pair modes force one worker
        each, and one-in-flight modes clear ``lookahead``."""
        cfg = replace(self, mode=mode)
        if mode in SINGLE_PAIR_MODES:
            cfg = replace(cfg, workers_active=1, workers_passive=1)
        if mode in ONE_IN_FLIGHT_MODES:
            cfg = replace(cfg, lookahead=None)
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
            raise ConfigError(f"unknown dataset.kind {self.kind!r}; one of synthetic, csv")
        if self.kind == "csv" and not self.csv_path:
            raise ConfigError("csv datasets need dataset.csv_path")
        for name in ("rows", "features"):
            if getattr(self, name) < 2:
                raise ConfigError(f"dataset.{name} must be at least 2")
        if self.informative is not None and not 1 <= self.informative <= self.features:
            raise ConfigError(f"dataset.informative must be in [1, {self.features}] when set")
        if not math.isfinite(self.separation):
            raise ConfigError("dataset.separation must be finite")


@dataclass
class SplitConfig:
    test_fraction: float = 0.3
    active_features: int | None = None  # None: half of the columns
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("split.test_fraction must be in (0, 1)")
        if self.active_features is not None and self.active_features < 1:
            raise ConfigError("split.active_features must be positive when set")


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    source: str = "<config>"  # where the settings came from, named in errors


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _optional(parse):
    """``parse``, except that an empty value or ``none`` means unset."""
    return lambda text: None if text.lower() in ("", "none") else parse(text)


def _member(kind: type[enum.Enum]):
    """A member of ``kind`` named by its value, in any case."""
    def parse(text: str):
        try:
            return kind(text.lower())
        except ValueError:
            choices = ", ".join(member.value for member in kind)
            name = kind.__name__.lower()
            raise ValueError(f"unknown {name} {text!r}; one of {choices}") from None

    return parse


def _milliseconds(text: str) -> float:
    return float(text) / 1000.0


def _label_column(text: str) -> str | int:
    return int(text) if text.lstrip("-").isdigit() else text


# key -> (target section, attribute, parser of the value's text); a parser's
# ValueError becomes a ConfigError naming the key.
_KEYMAP: dict[str, tuple[str, str, Callable[[str], object]]] = {
    "dataset.kind": ("dataset", "kind", str),
    "dataset.rows": ("dataset", "rows", int),
    "dataset.features": ("dataset", "features", int),
    "dataset.informative": ("dataset", "informative", _optional(int)),
    "dataset.task": ("dataset", "task", _member(Task)),
    "dataset.separation": ("dataset", "separation", float),
    "dataset.seed": ("dataset", "seed", int),
    "dataset.csv_path": ("dataset", "csv_path", str),
    "dataset.label_column": ("dataset", "label_column", _label_column),
    "split.test_fraction": ("split", "test_fraction", float),
    "split.active_features": ("split", "active_features", _optional(int)),
    "split.seed": ("split", "seed", int),
    "model.active_hidden": ("shape", "active_hidden", _parse_int_list),
    "model.passive_hidden": ("shape", "passive_hidden", _parse_int_list),
    "model.active_embed": ("shape", "active_embed", int),
    "model.passive_embed": ("shape", "passive_embed", int),
    "model.top_hidden": ("shape", "top_hidden", _parse_int_list),
    "train.mode": ("train", "mode", _member(Mode)),
    "train.batch_size": ("train", "batch_size", int),
    "train.workers_active": ("train", "workers_active", int),
    "train.workers_passive": ("train", "workers_passive", int),
    "train.learning_rate": ("train", "learning_rate", float),
    "train.epochs": ("train", "epochs", int),
    "train.sync_base_interval": ("train", "sync_base_interval", int),
    "train.deadline_ms": ("train", "deadline_seconds", _milliseconds),
    "train.privacy_mu": ("train", "privacy_mu", float),  # accepts "inf"
    "train.privacy_queries": ("train", "privacy_queries", _optional(int)),
    "train.loss_target": ("train", "loss_target", _optional(float)),
    "train.seed": ("train", "seed", int),
    "train.skew_active_ms": ("train", "skew_active_seconds", _milliseconds),
    "train.skew_passive_ms": ("train", "skew_passive_seconds", _milliseconds),
    "train.lookahead": ("train", "lookahead", _optional(int)),
    "train.max_retries": ("train", "max_retries", int),
    "train.target_metric": ("train", "target_metric", _optional(float)),
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
        section, attr, parse = _KEYMAP[key]
        try:
            sections[section][attr] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{source}: bad value for {key}: {exc}") from None
    try:
        return ExperimentConfig(
            dataset=DatasetConfig(**sections["dataset"]),
            split=SplitConfig(**sections["split"]),
            train=TrainConfig(shape=ModelShape(**sections["shape"]), **sections["train"]),
            source=source,
        )
    except ConfigError as exc:
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
