"""Tabular data handling: synthetic generators, CSV I/O, vertical splits, batch plans.

The loaders produce a :class:`LabeledTable`; :func:`split_rows` carves
train/test row sets *first*, and :func:`vertical_split` then deals disjoint
feature columns to the two parties.  Column assignment is a pure function of
(feature count, seed), so calling it with the same seed on the train and
test tables keeps the parties' views consistent.  Both splits write each
output byte once, by a gather from their input, and return fresh arrays:
nothing they return shares memory with the table they were given.

Features are stored in :data:`FEATURE_DTYPE` (float32), the dtype the bottom
models compute in, from the moment a :class:`LabeledTable` exists: the
generator writes them so, and the table casts any other input once, so no
stage after it holds a float64 copy.  The labels stay float64.

Batch plans are shared state between the parties: both sides derive the same
plan from the same seed, and every cross-party message is tagged with the
plan position it covers.
"""

from __future__ import annotations

import csv
import enum
import itertools
from dataclasses import dataclass

import numpy as np

# The dtype of a party's features, and so of the two bottom models that
# consume them: nearly all of a run's multiply-adds are the bottoms', and
# float32 GEMMs take about half the time of float64 ones.
FEATURE_DTYPE = np.float32

# Rows per block when generate_synthetic draws its normals and a LabeledTable
# casts its features: one float64 block is the only temporary besides them.
_BLOCK_ROWS = 1024

# Rows per block when load_csv converts a file: one block's cells, as str
# objects and as numpy's own copy of them during the conversion, are all it
# holds besides the output arrays.  On a 20000x51 file the traced peak is
# 1.25x the output at 256 rows a block and 2.0x at 1024.
_CSV_BLOCK_ROWS = 256


class Task(enum.Enum):
    CLASSIFICATION = "classification"
    REGRESSION = "regression"


class DataFormatError(ValueError):
    """Raised when a CSV cell cannot be parsed; the message names row/column."""


@dataclass
class LabeledTable:
    """Features (n, d) with a label column (n, 1); not yet split by party.

    Features in another dtype are cast to :data:`FEATURE_DTYPE` once, here, as
    ``astype`` rounds, but a finite value past its range raises ``ValueError``
    instead of becoming ``inf``.  NaN and ``inf`` are left to VerticalDataset.
    """

    features: np.ndarray
    labels: np.ndarray
    task: Task

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0], 1):
            raise ValueError("features must be (n, d) and labels (n, 1)")
        if self.features.dtype != FEATURE_DTYPE:
            wide, self.features = self.features, np.empty(self.features.shape, FEATURE_DTYPE)
            limit = np.finfo(FEATURE_DTYPE).max
            for start in range(0, wide.shape[0], _BLOCK_ROWS):
                block = wide[start : start + _BLOCK_ROWS]
                # min/max are cheap; only a block that fails them (NaN does) is searched.
                if block.size and not (-limit <= block.min() and block.max() <= limit):
                    if np.any(np.isfinite(block) & (np.abs(block) > limit)):
                        raise ValueError(f"features hold a value beyond the {limit.dtype} range")
                self.features[start : start + _BLOCK_ROWS] = block

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


@dataclass
class VerticalDataset:
    """One party-split view: active holds labels, passive holds only features.

    The features must be in :data:`FEATURE_DTYPE`, as a table stores them.
    """

    active_features: np.ndarray
    passive_features: np.ndarray
    labels: np.ndarray
    task: Task
    active_columns: np.ndarray
    passive_columns: np.ndarray

    def __post_init__(self) -> None:
        for name in ("active_features", "passive_features"):
            dtype = getattr(self, name).dtype
            if dtype != FEATURE_DTYPE:
                raise ValueError(f"{name} must be {np.dtype(FEATURE_DTYPE)}, got {dtype}")
        # Finiteness is checked here, where data enters, not per batch: the
        # model code checks shapes only, and a non-finite loss aborts training.
        # NaN and inf both carry through min and max, which allocate no mask.
        for name in ("active_features", "passive_features", "labels"):
            x = getattr(self, name)
            if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
                raise ValueError(f"{name} contain non-finite entries")

    @property
    def num_rows(self) -> int:
        return self.active_features.shape[0]


@dataclass(slots=True)
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
    # Normals are drawn a row block at a time, in the stream's order; only the
    # informative columns wait in float64 for the offsets or weights drawn next.
    features = np.empty((num_rows, num_features), FEATURE_DTYPE)
    informative = np.empty((num_rows, num_informative))
    for start in range(0, num_rows, _BLOCK_ROWS):
        block = rng.normal(0.0, 1.0, size=(min(_BLOCK_ROWS, num_rows - start), num_features))
        informative[start : start + _BLOCK_ROWS] = block[:, :num_informative]
        features[start : start + _BLOCK_ROWS, num_informative:] = block[:, num_informative:]
    if task is Task.CLASSIFICATION:
        ones = num_rows // 2
        labels = np.zeros((num_rows, 1))
        labels[:ones] = 1.0
        labels = labels[rng.permutation(num_rows)]
        offsets = separation * rng.uniform(0.7, 1.3, size=num_informative)
        signs = 2.0 * labels - 1.0  # +/- 1 per row
        for start in range(0, num_rows, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            informative[block] += signs[block] * offsets
    else:
        weights = rng.uniform(-1.0, 1.0, size=(num_informative, 1))
        signal = informative @ weights
        noise_scale = 0.1 * float(np.std(signal)) or 0.1
        labels = signal + rng.normal(0.0, noise_scale, size=(num_rows, 1))
    features[:, :num_informative] = informative
    return LabeledTable(features, labels, task)


def standardize_columns(features: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance per column, in place; constant columns are only centred.

    Returns ``features``.  Nothing the size of ``features`` is allocated: the
    sum of squares is taken by ``einsum`` over the centred columns.  A column
    whose magnitude reaches 2**400 is first divided by a power of two, which
    is exact, so that its sums cannot overflow; other columns are scaled by 1.
    """
    _, exponent = np.frexp(np.fmax(features.max(axis=0), -features.min(axis=0)))
    features *= np.ldexp(1.0, np.where(exponent > 400, -exponent, 0))
    features -= features.mean(axis=0, keepdims=True)
    std = np.sqrt(np.einsum("ij,ij->j", features, features) / features.shape[0])
    features /= np.where(std < 1e-12, 1.0, std)
    return features


def load_csv(
    path: str,
    label_column: str | int,
    task: Task,
    standardize: bool = True,
) -> LabeledTable:
    """Load a numeric CSV into a LabeledTable.

    Rows with no cells (blank lines) are skipped.  Parse failures, ragged
    rows and non-finite values (``nan``, ``inf``) raise
    :class:`DataFormatError` naming the 1-based file row and column, blank
    lines included in the count.  Cells convert exactly as ``float(cell)``
    does.  Feature columns are standardised at load unless disabled; labels
    are never rescaled, and classification labels must be 0/1.  Unscaled
    features are parsed into :data:`FEATURE_DTYPE`, and must fit its range.
    """
    capacity = _line_count(path)  # at least the number of data rows
    with open(path, newline="") as handle:
        numbered = ((number, row) for number, row in enumerate(csv.reader(handle), 1) if row)
        first = next(numbered, None)
        if first is None:
            raise DataFormatError(f"{path}: file is empty")
        header = [cell.strip() for cell in first[1]]
        block = list(itertools.islice(numbered, _CSV_BLOCK_ROWS))
        if not block:
            raise DataFormatError(f"{path}: no data rows")
        width = len(block[0][1])
        label_idx = _label_index(label_column, header, width)
        features = np.empty((capacity, width - 1), np.float64 if standardize else FEATURE_DTYPE)
        labels = np.empty((capacity, 1))
        num_rows = 0
        while block:
            stop = num_rows + len(block)
            _store_block(path, block, width, label_idx, features[num_rows:stop],
                         labels[num_rows:stop])
            num_rows = stop
            block = list(itertools.islice(numbered, _CSV_BLOCK_ROWS))
    features, labels = features[:num_rows], labels[:num_rows]
    if task is Task.CLASSIFICATION and not np.all(np.isin(labels, (0.0, 1.0))):
        raise DataFormatError(f"{path}: classification labels must be 0 or 1")
    if standardize:
        features = standardize_columns(features)
    return LabeledTable(features, labels, task)


def _line_count(path: str) -> int:
    """At least the number of CSV records in the file: one per line ending
    (``\\n``, ``\\r\\n`` or a lone ``\\r``) plus an unterminated last line."""
    count = 1
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(1 << 20), b""):
            byte = np.frombuffer(chunk, np.uint8)
            # A \r ends a line unless a \n follows it.  One that ends a chunk
            # counts even if the next chunk starts with \n: the bound only rises.
            lone_cr = (byte[:-1] == ord("\r")) & (byte[1:] != ord("\n"))
            count += np.count_nonzero(byte == ord("\n")) + np.count_nonzero(lone_cr)
            count += chunk.endswith(b"\r")
    return int(count)


def _label_index(label_column: str | int, header: list[str], width: int) -> int:
    if isinstance(label_column, str):
        if label_column not in header:
            raise DataFormatError(f"label column {label_column!r} not in header")
        label_idx = header.index(label_column)
    else:
        label_idx = label_column if label_column >= 0 else width + label_column
    if not 0 <= label_idx < width:
        raise DataFormatError(f"label column index {label_column} out of range")
    return label_idx


def _store_block(
    path: str, block: list[tuple[int, list[str]]], width: int, label_idx: int,
    features: np.ndarray, labels: np.ndarray,
) -> None:
    """Convert one block of (file row number, cells) into rows of ``features`` and ``labels``."""
    row_numbers, rows = zip(*block)
    try:
        # numpy converts each str cell with float(), so the bits are float(cell)'s.
        values = np.array(rows, dtype=np.float64)
    except ValueError:  # a bad cell, or rows of unequal width
        values = None
    if values is None or values.shape[1] != width:  # also a block narrower than the first
        values = _parse_cells(path, rows, row_numbers, width)
    limit = np.full(width, float(np.finfo(features.dtype).max))
    limit[label_idx] = np.finfo(labels.dtype).max
    bad = np.argwhere(~(np.abs(values) <= limit))  # NaN, inf, or past a float32 feature's range
    if bad.size:
        r, c = bad[0]
        kind = "non-finite" if not np.isfinite(values[r, c]) else f"beyond-{features.dtype}-range"
        raise DataFormatError(
            f"{path}: {kind} value {rows[r][c]!r} at row {row_numbers[r]}, column {c + 1}"
        )
    features[:, :label_idx] = values[:, :label_idx]
    features[:, label_idx:] = values[:, label_idx + 1 :]
    labels[:, 0] = values[:, label_idx]


def _parse_cells(
    path: str, rows: tuple[list[str], ...], row_numbers: tuple[int, ...], width: int
) -> np.ndarray:
    """Cell-by-cell conversion that names the first ragged row or bad cell."""
    values = np.empty((len(rows), width))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(
                f"{path}: row {row_numbers[r]} has {len(row)} cells, expected {width}"
            )
        for c, cell in enumerate(row):
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: cannot parse {cell!r} at row {row_numbers[r]}, column {c + 1}"
                ) from None
    return values


def split_rows(
    table: LabeledTable, test_fraction: float = 0.3, seed: int = 0
) -> tuple[LabeledTable, LabeledTable]:
    """Seeded row shuffle, then train/test split (train first).

    Each side's features and labels are fresh C-order arrays gathered from
    ``table`` in one pass; the two sides together hold one more copy of the
    table's rows, and none of them shares memory with ``table``.
    """
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
        np.take(table.features, idx, axis=0), np.take(table.labels, idx, axis=0), table.task
    )
    return make(train_idx), make(test_idx)


def vertical_split(table: LabeledTable, num_active: int, seed: int = 0) -> VerticalDataset:
    """Deal feature columns to the parties via a seeded permutation.

    The active party receives ``num_active`` columns plus the labels; the
    passive party receives the rest and never sees a label.  The column
    permutation depends only on (num_features, seed).  Each party's matrix
    is a fresh C-order array gathered from the table's columns, in the
    table's :data:`FEATURE_DTYPE`, and the labels are copied, so the view
    shares no memory with the table.
    """
    d = table.num_features
    if not 1 <= num_active < d:
        raise ValueError(f"num_active must be in [1, {d - 1}]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(d)
    active_cols = np.sort(order[:num_active])
    passive_cols = np.sort(order[num_active:])
    return VerticalDataset(
        active_features=np.take(table.features, active_cols, axis=1),
        passive_features=np.take(table.features, passive_cols, axis=1),
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
