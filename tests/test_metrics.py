"""AUC/RMSE against loop oracles, plus the JSONL record contract."""

import json
import math

import numpy as np
import pytest

from splitbus.metrics import (
    EpochMetrics,
    RunSummary,
    auc_score,
    rmse,
    time_to_target,
    write_jsonl,
)

from oracles import loop_auc, read_jsonl


def pairwise_auc(labels, scores):
    """O(P*N) definition: fraction of correctly ordered pos/neg pairs."""
    pos = [s for y, s in zip(labels, scores) if y == 1.0]
    neg = [s for y, s in zip(labels, scores) if y == 0.0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def sample_row(epoch=1, **overrides):
    values = dict(
        epoch=epoch, wall_seconds=1.5, mean_train_loss=0.4, test_metric=0.9,
        total_wait_seconds=0.2, busy_fraction=0.8, bytes_published=1000,
        batches_completed=4, batches_skipped=0, batch_retries=0, evictions=0,
        sync_performed=True, active_wait_seconds=0.15, passive_wait_seconds=0.05,
        max_single_wait=0.03,
    )
    values.update(overrides)
    return EpochMetrics(**values)


def sample_summary(**overrides):
    values = dict(
        mode="pubsub", epochs_run=2, total_wall_seconds=3.0,
        final_train_loss=0.3, final_test_metric=0.91, best_test_metric=0.92,
        total_bytes_published=2000, total_batches_skipped=0,
        total_batch_retries=0, total_evictions=0, ps_syncs=2,
        noise_sigma=0.0, time_to_target_seconds=None, stopped_early=False,
        transport="process", cpus_active=[0], cpus_passive=[1],
    )
    values.update(overrides)
    return RunSummary(**values)


class TestAuc:
    def test_perfect_separation(self):
        assert auc_score(
            np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.9, 0.1, 0.8, 0.4])
        ) == 1.0

    def test_all_tied_scores_give_half(self):
        assert auc_score(np.array([1.0, 0.0, 1.0]), np.array([0.5, 0.5, 0.5])) == 0.5

    def test_midrank_hand_case(self):
        labels = np.array([1.0, 0.0, 1.0])
        scores = np.array([0.5, 0.5, 0.9])
        assert auc_score(labels, scores) == 0.75

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            labels = rng.integers(0, 2, size=n).astype(float)
            if labels.min() == labels.max():
                labels[0] = 1.0 - labels[0]
            # quantised scores force plenty of ties
            scores = np.round(rng.normal(size=n), 1)
            assert auc_score(labels, scores) == pytest.approx(
                pairwise_auc(labels, scores), abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("decimals", [1, 2])
    def test_heavy_ties_equal_loop_oracle(self, seed, decimals):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 3000))
        labels = rng.integers(0, 2, size=n).astype(float)
        labels[:2] = (0.0, 1.0)
        scores = np.round(rng.uniform(size=n), decimals)
        assert auc_score(labels, scores) == loop_auc(labels, scores)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_score(np.ones(4), np.linspace(0, 1, 4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            auc_score(np.ones(3), np.ones(4))


class TestRmse:
    def test_hand_case(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 4.0])) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_loop_oracle(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=13)
        p = rng.normal(size=13)
        want = math.sqrt(sum((a - b) ** 2 for a, b in zip(y, p)) / 13)
        assert rmse(y, p) == pytest.approx(want, rel=1e-12)


class TestRecords:
    def test_epoch_json_shape(self):
        obj = json.loads(sample_row().to_json())
        assert obj["record"] == "epoch"
        assert obj["epoch"] == 1
        assert obj["sync_performed"] is True

    def test_jsonl_roundtrip(self, tmp_path):
        rows = [sample_row(1), sample_row(2, test_metric=None, sync_performed=False)]
        summary = sample_summary()
        path = tmp_path / "metrics.jsonl"
        write_jsonl(str(path), rows, summary)
        loaded_rows, loaded_summary = read_jsonl(str(path))
        assert len(loaded_rows) == 2
        assert loaded_rows[1]["test_metric"] is None
        assert loaded_summary["mode"] == "pubsub"
        assert loaded_summary["record"] == "summary"

    def test_per_party_waits_roundtrip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = sample_row(
            total_wait_seconds=0.375, active_wait_seconds=0.25, passive_wait_seconds=0.125,
            max_single_wait=0.0625,
        )
        write_jsonl(str(path), [row], sample_summary())
        (loaded,), _ = read_jsonl(str(path))
        assert loaded["active_wait_seconds"] == 0.25
        assert loaded["passive_wait_seconds"] == 0.125
        assert loaded["max_single_wait"] == 0.0625
        assert loaded["total_wait_seconds"] == 0.375  # unchanged in meaning

    @pytest.mark.parametrize("transport", ["process", "thread"])
    def test_summary_transport_roundtrip(self, tmp_path, transport):
        path = tmp_path / "m.jsonl"
        write_jsonl(str(path), [sample_row()], sample_summary(transport=transport))
        _, loaded = read_jsonl(str(path))
        assert loaded["transport"] == transport
        assert loaded["mode"] == "pubsub"  # the older fields keep their meaning

    @pytest.mark.parametrize("active, passive", [([0, 1], [2, 3]), ([], [])])
    def test_summary_cpu_split_roundtrip(self, tmp_path, active, passive):
        path = tmp_path / "m.jsonl"
        summary = sample_summary(cpus_active=active, cpus_passive=passive)
        write_jsonl(str(path), [sample_row()], summary)
        _, loaded = read_jsonl(str(path))
        assert (loaded["cpus_active"], loaded["cpus_passive"]) == (active, passive)
        assert loaded["transport"] == "process"  # the older fields keep their meaning

    def test_read_ignores_blank_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(sample_row().to_json() + "\n\n" + sample_summary().to_json() + "\n")
        rows, summary = read_jsonl(str(path))
        assert len(rows) == 1 and summary is not None


class TestTimeToTarget:
    def test_cumulative_wall_clock(self):
        rows = [
            sample_row(1, wall_seconds=2.0, test_metric=0.5),
            sample_row(2, wall_seconds=3.0, test_metric=0.95),
        ]
        assert time_to_target(rows, 0.9, higher_is_better=True) == 5.0

    def test_never_reached(self):
        rows = [sample_row(1, test_metric=0.5)]
        assert time_to_target(rows, 0.9, higher_is_better=True) is None

    def test_lower_is_better(self):
        rows = [
            sample_row(1, wall_seconds=1.0, test_metric=2.0),
            sample_row(2, wall_seconds=1.0, test_metric=0.4),
        ]
        assert time_to_target(rows, 0.5, higher_is_better=False) == 2.0

    def test_skips_missing_metrics(self):
        rows = [
            sample_row(1, wall_seconds=1.0, test_metric=None),
            sample_row(2, wall_seconds=1.0, test_metric=0.99),
        ]
        assert time_to_target(rows, 0.9, higher_is_better=True) == 2.0
