"""Tabular data handling: synthetic generators, CSV I/O, vertical splits, batch plans.

The loaders produce a :class:`LabeledTable`; :func:`split_rows` carves
train/test row sets *first*, and :func:`vertical_split` then deals disjoint
feature columns to the two parties.  Column assignment is a pure function of
(feature count, seed), so calling it with the same seed on the train and
test tables keeps the parties' views consistent.

Batch plans are shared state between the parties: both sides derive the same
plan from the same seed, and every cross-party message is tagged with the
plan position it covers.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass

import numpy as np


class Task(enum.Enum):
    CLASSIFICATION = "classification"
    REGRESSION = "regression"


class DataFormatError(ValueError):
    """Raised when a CSV cell cannot be parsed; the message names row/column."""


@dataclass
class LabeledTable:
    """Features (n, d) with a label column (n, 1); not yet split by party."""

    features: np.ndarray
    labels: np.ndarray
    task: Task

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0], 1):
            raise ValueError("features must be (n, d) and labels (n, 1)")

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


@dataclass
class VerticalDataset:
    """One party-split view: active holds labels, passive holds only features."""

    active_features: np.ndarray
    passive_features: np.ndarray
    labels: np.ndarray
    task: Task
    active_columns: np.ndarray
    passive_columns: np.ndarray

    def __post_init__(self) -> None:
        # Finiteness is checked here, where data enters, not per batch: the
        # model code checks shapes only, and a non-finite loss aborts training.
        for name in ("active_features", "passive_features", "labels"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contain non-finite entries")

    @property
    def num_rows(self) -> int:
        return self.active_features.shape[0]


@dataclass
class Batch:
    batch_id: int
    start: int  # position range within the plan's shuffled order
    stop: int
    indices: np.ndarray  # row indices into the dataset

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def sample_range(self) -> tuple[int, int]:
        return (self.start, self.stop)


@dataclass
class BatchPlan:
    batch_size: int
    num_rows: int
    permutation: np.ndarray
    batches: list[Batch]

    @property
    def num_batches(self) -> int:
        return len(self.batches)


def generate_synthetic(
    num_rows: int,
    num_features: int,
    num_informative: int | None = None,
    task: Task = Task.CLASSIFICATION,
    seed: int = 0,
    separation: float = 0.35,
) -> LabeledTable:
    """Seeded synthetic table.

    Classification: two Gaussian clusters.  Informative columns get a
    class-dependent mean offset of +/- separation * U(0.7, 1.3) on top of
    unit noise; the rest are pure noise.  Labels are balanced by
    construction (difference of at most one row), then shuffled.

    Regression: standard normal features; the target is a linear map of the
    informative columns plus 10% noise.
    """
    if num_rows < 2 or num_features < 1:
        raise ValueError("need at least 2 rows and 1 feature")
    if num_informative is None:
        num_informative = max(1, num_features // 5)
    if not 1 <= num_informative <= num_features:
        raise ValueError("num_informative out of range")
    rng = np.random.default_rng(seed)
    features = rng.normal(0.0, 1.0, size=(num_rows, num_features))
    if task is Task.CLASSIFICATION:
        ones = num_rows // 2
        labels = np.zeros((num_rows, 1))
        labels[:ones] = 1.0
        labels = labels[rng.permutation(num_rows)]
        offsets = separation * rng.uniform(0.7, 1.3, size=num_informative)
        signs = 2.0 * labels - 1.0  # +/- 1 per row
        features[:, :num_informative] += signs * offsets
    else:
        weights = rng.uniform(-1.0, 1.0, size=(num_informative, 1))
        signal = features[:, :num_informative] @ weights
        noise_scale = 0.1 * float(np.std(signal)) or 0.1
        labels = signal + rng.normal(0.0, noise_scale, size=(num_rows, 1))
    return LabeledTable(features, labels, task)


def standardize_columns(features: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance per column; constant columns are only centred."""
    mean = features.mean(axis=0, keepdims=True)
    std = features.std(axis=0, keepdims=True)
    std = np.where(std < 1e-12, 1.0, std)
    return (features - mean) / std


def load_csv(
    path: str,
    label_column: str | int,
    task: Task,
    standardize: bool = True,
    has_header: bool = True,
) -> LabeledTable:
    """Load a numeric CSV into a LabeledTable.

    Parse failures and non-finite values (``nan``, ``inf``) raise
    :class:`DataFormatError` naming the 1-based file row and column.
    Feature columns are standardised at load unless disabled; labels are
    never rescaled, and classification labels must be 0/1.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows:
        raise DataFormatError(f"{path}: file is empty")
    header: list[str] | None = None
    first_data_row = 1
    if has_header:
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        first_data_row = 2
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    width = len(rows[0])
    if isinstance(label_column, str):
        if header is None:
            raise DataFormatError("label column named but file has no header")
        if label_column not in header:
            raise DataFormatError(f"label column {label_column!r} not in header")
        label_idx = header.index(label_column)
    else:
        label_idx = label_column if label_column >= 0 else width + label_column
    if not 0 <= label_idx < width:
        raise DataFormatError(f"label column index {label_column} out of range")

    values = np.empty((len(rows), width))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(
                f"{path}: row {first_data_row + r} has {len(row)} cells, expected {width}"
            )
        for c, cell in enumerate(row):
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: cannot parse {cell!r} at row {first_data_row + r}, "
                    f"column {c + 1}"
                ) from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise DataFormatError(
            f"{path}: non-finite value {rows[r][c]!r} at row {first_data_row + r}, column {c + 1}"
        )
    labels = values[:, label_idx : label_idx + 1].copy()
    features = np.delete(values, label_idx, axis=1)
    if task is Task.CLASSIFICATION and not np.all(np.isin(labels, (0.0, 1.0))):
        raise DataFormatError(f"{path}: classification labels must be 0 or 1")
    if standardize:
        features = standardize_columns(features)
    return LabeledTable(features, labels, task)


def write_csv(path: str, table: LabeledTable) -> None:
    """Write a LabeledTable as CSV (features then a final `label` column).

    Floats are rendered with repr so a write/load round trip is lossless.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{i}" for i in range(table.num_features)] + ["label"])
        for r in range(table.num_rows):
            row = [repr(float(v)) for v in table.features[r]]
            row.append(repr(float(table.labels[r, 0])))
            writer.writerow(row)


def split_rows(
    table: LabeledTable, test_fraction: float = 0.3, seed: int = 0
) -> tuple[LabeledTable, LabeledTable]:
    """Seeded row shuffle, then train/test split (train first)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(table.num_rows)
    n_test = int(round(table.num_rows * test_fraction))
    n_train = table.num_rows - n_test
    if n_train < 1 or n_test < 1:
        raise ValueError("split leaves an empty side")
    train_idx, test_idx = order[:n_train], order[n_train:]
    make = lambda idx: LabeledTable(
        table.features[idx].copy(), table.labels[idx].copy(), table.task
    )
    return make(train_idx), make(test_idx)


def vertical_split(table: LabeledTable, num_active: int, seed: int = 0) -> VerticalDataset:
    """Deal feature columns to the parties via a seeded permutation.

    The active party receives ``num_active`` columns plus the labels; the
    passive party receives the rest and never sees a label.  The column
    permutation depends only on (num_features, seed).
    """
    d = table.num_features
    if not 1 <= num_active < d:
        raise ValueError(f"num_active must be in [1, {d - 1}]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(d)
    active_cols = np.sort(order[:num_active])
    passive_cols = np.sort(order[num_active:])
    return VerticalDataset(
        active_features=table.features[:, active_cols].copy(),
        passive_features=table.features[:, passive_cols].copy(),
        labels=table.labels.copy(),
        task=table.task,
        active_columns=active_cols,
        passive_columns=passive_cols,
    )


def make_batch_plan(num_rows: int, batch_size: int, seed: int = 0) -> BatchPlan:
    """Shuffle row indices and slice them into ceil(n/B) contiguous batches.

    Every batch has exactly ``batch_size`` rows except possibly the last.
    The (start, stop) positions index into the plan's shuffled order and act
    as the alignment tag carried by every cross-party message.
    """
    if num_rows < 1 or batch_size < 1:
        raise ValueError("num_rows and batch_size must be positive")
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(num_rows)
    batches = []
    for batch_id, start in enumerate(range(0, num_rows, batch_size)):
        stop = min(start + batch_size, num_rows)
        batches.append(Batch(batch_id, start, stop, permutation[start:stop]))
    return BatchPlan(batch_size, num_rows, permutation, batches)
