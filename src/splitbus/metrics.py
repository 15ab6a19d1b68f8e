"""Run metrics: rank-based AUC, RMSE, per-epoch records and JSONL encoding.

One JSON object per epoch, one summary object at the end of a run.  Field
names are part of the file contract consumed by the ``compare`` command and
by downstream notebooks, so they only ever grow, never change meaning.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np


def auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via midrank statistics (trapezoidal).

    Equivalent to the Mann-Whitney U normalisation; ties get the average
    rank, which matches trapezoidal interpolation over tied thresholds.
    """
    labels = np.asarray(labels).ravel()
    scores = np.asarray(scores).ravel()
    if labels.shape != scores.shape:
        raise ValueError("labels/scores length mismatch")
    positives = labels == 1.0
    n_pos = int(positives.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # Tie groups are runs of equal sorted scores, [first, last]; each gets its midrank.
    first = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    last = np.r_[first[1:], labels.size] - 1
    ranks = np.empty(labels.size)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum = float(ranks[positives].sum())
    return (rank_sum - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg)


def rmse(labels: np.ndarray, predictions: np.ndarray) -> float:
    labels = np.asarray(labels).ravel()
    predictions = np.asarray(predictions).ravel()
    if labels.shape != predictions.shape:
        raise ValueError("labels/predictions length mismatch")
    return float(np.sqrt(np.mean((labels - predictions) ** 2)))


@dataclass
class EpochMetrics:
    """One training epoch as seen by the orchestrator."""

    epoch: int
    wall_seconds: float
    mean_train_loss: float
    test_metric: float | None  # AUC for classification, RMSE for regression
    total_wait_seconds: float
    busy_fraction: float
    bytes_published: int  # cumulative, nondecreasing across epochs
    batches_completed: int
    # Both sum the two parties' workers: a batch both parties give up on counts twice.
    batches_skipped: int
    batch_retries: int
    evictions: int  # messages pushed out of a full channel by a newer attempt, this epoch
    sync_performed: bool
    active_wait_seconds: float  # total_wait_seconds split by party
    passive_wait_seconds: float
    max_single_wait: float  # longest single wait of any worker, either party

    def to_json(self) -> str:
        return json.dumps({"record": "epoch", **asdict(self)})


@dataclass
class RunSummary:
    mode: str
    epochs_run: int
    total_wall_seconds: float
    final_train_loss: float
    final_test_metric: float | None
    best_test_metric: float | None
    total_bytes_published: int
    total_batches_skipped: int
    total_batch_retries: int
    total_evictions: int
    ps_syncs: int
    noise_sigma: float
    time_to_target_seconds: float | None
    stopped_early: bool
    transport: str  # "process" or "thread": where the passive pool ran
    # The CPUs each party's threads were pinned to, sorted; both empty when the
    # run did not fork, or had fewer than two CPUs or no way to pin threads.
    cpus_active: list[int]
    cpus_passive: list[int]

    def to_json(self) -> str:
        return json.dumps({"record": "summary", **asdict(self)})


def write_jsonl(path: str, epochs: list[EpochMetrics], summary: RunSummary) -> None:
    with open(path, "w") as handle:
        for row in epochs:
            handle.write(row.to_json() + "\n")
        handle.write(summary.to_json() + "\n")


def time_to_target(
    epochs: list[EpochMetrics], target: float, higher_is_better: bool
) -> float | None:
    """Cumulative wall seconds until the test metric first reaches target."""
    elapsed = 0.0
    for row in epochs:
        elapsed += row.wall_seconds
        if row.test_metric is None or math.isnan(row.test_metric):
            continue
        reached = (
            row.test_metric >= target if higher_is_better else row.test_metric <= target
        )
        if reached:
            return elapsed
    return None
