"""End-to-end tests of the two-party training runtime.

The anchor is the serial reference trainer: a cooperative single-worker run
must match it bit for bit, epoch by epoch.  Everything else checks mode
semantics (rendezvous, free-running, deadlines) and failure plumbing.
"""

import math
import re
import time
import threading
from dataclasses import replace

import numpy as np
import pytest

from splitbus import broker as bk
from splitbus import nn
from splitbus.config import ConfigError, Mode, ModelShape, TrainConfig
from splitbus.data import Task, generate_synthetic, split_rows, vertical_split
from splitbus.reference import run_reference
from splitbus.runtime import (
    ActiveEngine,
    AlignmentError,
    EpochShared,
    PassiveEngine,
    TrainingAbort,
    WorkQueue,
    batch_loss_mean,
    build_models,
    derive_seed,
    plan_for_epoch,
    run_training,
)
from splitbus.schedule import AggregationSchedule


SMALL_SHAPE = ModelShape(
    active_hidden=[16], passive_hidden=[16], active_embed=4, passive_embed=4,
    top_hidden=[8],
)


def vertical_pair(n=400, d=12, seed=3, task=Task.CLASSIFICATION):
    """Train/test vertical datasets sharing one column assignment."""
    table = generate_synthetic(n, d, task=task, seed=seed)
    train_tab, test_tab = split_rows(table, test_fraction=0.25, seed=seed + 1)
    train = vertical_split(train_tab, num_active=d // 2, seed=seed + 2)
    test = vertical_split(test_tab, num_active=d // 2, seed=seed + 2)
    assert np.array_equal(train.active_columns, test.active_columns)
    return train, test


def models_equal(a: nn.MlpModel, b: nn.MlpModel) -> bool:
    return all(
        np.array_equal(la.weight, lb.weight) and np.array_equal(la.bias, lb.bias)
        for la, lb in zip(a.layers, b.layers)
    )


class TestSerialEquivalence:
    def test_lockstep_and_single_worker_pubsub_match_reference(self):
        train, test = vertical_pair()
        base = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=128, workers_active=1, workers_passive=1,
            learning_rate=0.05, epochs=3, seed=11, shape=SMALL_SHAPE,
        )
        ref = run_reference(train, test, base)
        lockstep = run_training(train, test, base)
        pubsub = run_training(train, test, base.for_mode(Mode.PUBSUB))

        assert lockstep.epoch_train_losses == ref["epoch_train_losses"]
        assert pubsub.epoch_train_losses == ref["epoch_train_losses"]
        for key in ("passive_bottom", "active_bottom", "top"):
            assert models_equal(lockstep.final_models[key], ref["models"][key])
            assert models_equal(pubsub.final_models[key], ref["models"][key])
        metrics = [m for m in ref["epoch_test_metrics"]]
        assert [row.test_metric for row in lockstep.epochs] == metrics

    def test_same_seed_same_run(self):
        train, test = vertical_pair(seed=9)
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=64, workers_active=1, workers_passive=1,
            learning_rate=0.02, epochs=2, seed=4, shape=SMALL_SHAPE,
        )
        first = run_training(train, test, cfg)
        second = run_training(train, test, cfg)
        assert first.epoch_train_losses == second.epoch_train_losses
        for key in first.final_models:
            assert models_equal(first.final_models[key], second.final_models[key])

    def test_different_seed_differs(self):
        train, _ = vertical_pair(seed=9)
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=64, workers_active=1, workers_passive=1,
            learning_rate=0.02, epochs=1, seed=4, shape=SMALL_SHAPE,
        )
        other = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=64, workers_active=1, workers_passive=1,
            learning_rate=0.02, epochs=1, seed=5, shape=SMALL_SHAPE,
        )
        assert run_training(train, None, cfg).epoch_train_losses != \
            run_training(train, None, other).epoch_train_losses


class TestRendezvousMode:
    def test_sync_ps_is_deterministic_and_aggregates_each_iteration(self):
        train, _ = vertical_pair(n=300, d=10, seed=6)
        cfg = TrainConfig(
            mode=Mode.SYNC_PS, batch_size=50, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=2, seed=7, shape=SMALL_SHAPE,
        )
        first = run_training(train, None, cfg)
        second = run_training(train, None, cfg)
        # static batch assignment + per-iteration barrier => bit-reproducible
        assert first.epoch_train_losses == second.epoch_train_losses
        num_batches = math.ceil(225 / 50)  # 300 rows, 25% held out
        iterations = math.ceil(num_batches / 2)
        assert first.summary.ps_syncs == cfg.epochs * iterations
        for row in first.party_stats:
            assert row["passive_completed"] == num_batches
            assert row["active_completed"] == num_batches
            assert row["passive_skipped"] == row["active_skipped"] == 0

    def test_sync_ps_uneven_tail_iteration(self):
        # 5 batches over 3 pairs: the final iteration runs 2 busy pairs + 1 idle
        train, _ = vertical_pair(n=280, d=10, seed=2)
        cfg = TrainConfig(
            mode=Mode.SYNC_PS, batch_size=42, workers_active=3, workers_passive=3,
            learning_rate=0.05, epochs=1, seed=1, shape=SMALL_SHAPE,
        )
        result = run_training(train, None, cfg)
        assert result.epochs[0].batches_completed == 5
        assert result.summary.ps_syncs == math.ceil(5 / 3)

    def test_sync_ps_surplus_workers_change_nothing(self):
        # min(wa, wp) pairs train; the third passive worker must not hold a
        # replica that the parameter server averages in.
        train, _ = vertical_pair(n=300, d=10, seed=6)
        cfg = TrainConfig(
            mode=Mode.SYNC_PS, batch_size=50, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=3, seed=7, shape=SMALL_SHAPE,
        )
        pairs = run_training(train, None, cfg)
        surplus = run_training(train, None, replace(cfg, workers_passive=3))
        assert surplus.epoch_train_losses == pairs.epoch_train_losses
        for key in pairs.final_models:
            assert models_equal(surplus.final_models[key], pairs.final_models[key])


class TestPubsubMode:
    def test_worker_pools_complete_every_batch(self):
        train, test = vertical_pair(n=300, d=10, seed=5)
        cfg = TrainConfig(
            mode=Mode.PUBSUB, batch_size=50, workers_active=2, workers_passive=3,
            learning_rate=0.05, epochs=7, sync_base_interval=5, seed=3,
            shape=SMALL_SHAPE,
        )
        result = run_training(train, test, cfg)
        schedule = AggregationSchedule(5)
        assert [row.sync_performed for row in result.epochs] == [
            schedule.should_sync(t) for t in range(1, 8)
        ]
        for row in result.epochs:
            assert row.batches_completed == 5
            assert row.batches_skipped == 0
            assert math.isfinite(row.mean_train_loss)
        published = [row.bytes_published for row in result.epochs]
        assert published == sorted(published) and published[0] > 0
        assert result.summary.total_evictions == 0
        assert result.summary.ps_syncs == sum(
            1 for t in range(1, 8) if schedule.should_sync(t)
        )

    def test_losses_generally_decrease(self):
        train, _ = vertical_pair(n=400, d=12, seed=8)
        cfg = TrainConfig(
            mode=Mode.PUBSUB, batch_size=64, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=6, seed=2, shape=SMALL_SHAPE,
        )
        losses = run_training(train, None, cfg).epoch_train_losses
        assert losses[-1] < losses[0]


class TestFreeRunningModes:
    def test_async_single_pair_completes(self):
        train, _ = vertical_pair(n=256, d=10, seed=4)
        cfg = TrainConfig(
            mode=Mode.ASYNC, batch_size=32, workers_active=1, workers_passive=1,
            learning_rate=0.02, epochs=3, seed=6, shape=SMALL_SHAPE,
        )
        result = run_training(train, None, cfg)
        assert result.summary.ps_syncs == 0
        for row in result.epochs:
            assert row.batches_completed == 6  # 192 train rows / 32
            assert math.isfinite(row.mean_train_loss)

    def test_async_ps_pools_sync_every_epoch(self):
        train, _ = vertical_pair(n=256, d=10, seed=4)
        cfg = TrainConfig(
            mode=Mode.ASYNC_PS, batch_size=32, workers_active=2, workers_passive=2,
            learning_rate=0.02, epochs=3, seed=6, shape=SMALL_SHAPE,
        )
        result = run_training(train, None, cfg)
        assert result.summary.ps_syncs == 3
        assert all(row.sync_performed for row in result.epochs)
        assert all(row.batches_completed == 6 for row in result.epochs)


class TestBrokerTraffic:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_subscribes_per_batch_do_not_grow_with_epoch_length(self, mode, monkeypatch):
        # 94 batches per epoch, and a slower active party so that free-running
        # passive workers get far ahead.  Polling every batch in flight would
        # cost tens of subscribe calls per batch; oldest-first needs about 4.
        # At lookahead 1 a batch costs exactly one embedding and one gradient
        # subscribe.
        train, _ = vertical_pair(n=4000, d=10, seed=12)
        workers = 1 if mode in (Mode.LOCKSTEP, Mode.ASYNC) else 2
        cfg = TrainConfig(
            mode=mode, batch_size=32, workers_active=workers, workers_passive=workers,
            learning_rate=0.02, epochs=2, seed=3, shape=SMALL_SHAPE,
            skew_active_seconds=0.001,
        )
        real_subscribe = bk.Broker.subscribe
        calls = []

        def counting_subscribe(self, *args):
            calls.append(None)  # list.append is atomic under the GIL
            return real_subscribe(self, *args)

        monkeypatch.setattr(bk.Broker, "subscribe", counting_subscribe)
        result = run_training(train, None, cfg)
        completed = sum(row.batches_completed for row in result.epochs)
        assert completed == cfg.epochs * math.ceil(3000 / 32)
        assert len(calls) / completed <= 5.0
        if mode in (Mode.LOCKSTEP, Mode.SYNC_PS):
            assert len(calls) == 2 * completed


class TestDeadlines:
    def test_passive_alone_skips_every_batch_within_deadline(self):
        # No active party at all: every wait must expire on time, each batch
        # retried once then skipped, and the epoch must still terminate.
        rng_seed = 13
        train, _ = vertical_pair(n=240, d=10, seed=rng_seed)
        plan = plan_for_epoch(train.num_rows, 40, rng_seed, epoch=1)
        passive_init, _, _ = build_models(
            SMALL_SHAPE, 5, train.passive_features.shape[1], train.task, rng_seed
        )
        broker = bk.Broker(plan.num_batches, 5, 5)
        engine = PassiveEngine(
            train.passive_features, passive_init, num_workers=1, eta=0.05,
            sigma=0.0, noise_seed=0, max_retries=1,
        )
        shared = EpochShared(broker, epoch=1)
        queue = WorkQueue([b.batch_id for b in plan.batches])
        started = time.perf_counter()
        stats = engine.run_epoch(plan, queue, shared, deadline=0.05, lookahead=2)
        elapsed = time.perf_counter() - started
        assert shared.failure is None
        assert stats.skipped == plan.num_batches
        assert stats.retries == plan.num_batches
        assert stats.completed == 0
        assert stats.max_single_wait < 0.05 + 0.1  # deadline + scheduling slack
        # 6 batches x 2 attempts x 50 ms, plus generous slack
        assert elapsed < 6 * 2 * 0.05 + 1.0
        broker.close()

    def test_closed_broker_unblocks_workers(self):
        train, _ = vertical_pair(n=80, d=10, seed=1)
        plan = plan_for_epoch(train.num_rows, 40, 1, epoch=1)
        passive_init, _, _ = build_models(
            SMALL_SHAPE, 5, train.passive_features.shape[1], train.task, 1
        )
        broker = bk.Broker(plan.num_batches, 5, 5)
        engine = PassiveEngine(
            train.passive_features, passive_init, num_workers=1, eta=0.05,
            sigma=0.0, noise_seed=0,
        )
        shared = EpochShared(broker, epoch=1)
        queue = WorkQueue([b.batch_id for b in plan.batches])
        closer = threading.Timer(0.1, broker.close)
        closer.start()
        started = time.perf_counter()
        engine.run_epoch(plan, queue, shared, deadline=None, lookahead=1)
        assert time.perf_counter() - started < 5.0  # would hang forever otherwise
        closer.join()


class TestFailurePlumbing:
    def test_misaligned_message_raises(self):
        train, _ = vertical_pair(n=120, d=10, seed=2)
        plan = plan_for_epoch(train.num_rows, 30, 2, epoch=1)
        _, active_init, top_init = build_models(
            SMALL_SHAPE, train.active_features.shape[1], 5, train.task, 2
        )
        engine = ActiveEngine(
            train.active_features, train.labels, train.task,
            active_init, top_init, num_workers=1, eta=0.05,
        )
        broker = bk.Broker(plan.num_batches, 5, 5)
        shared = EpochShared(broker, epoch=1)
        wrong_range = (9999, 10029)  # not what batch 0 covers
        message = bk.ChannelMessage(
            bk.MessageKind.EMBEDDING, 0,
            np.zeros((plan.batches[0].indices.size, SMALL_SHAPE.passive_embed)),
            wrong_range, sender_worker=0, param_version=0,
        )
        from splitbus.runtime import WorkerStats

        with pytest.raises(AlignmentError):
            engine._process_batch(0, plan, 0, message, shared, WorkerStats())
        broker.close()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_aborts_run(self):
        train, _ = vertical_pair(n=96, d=6, seed=0, task=Task.REGRESSION)
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=32, workers_active=1, workers_passive=1,
            learning_rate=1e10, epochs=15, seed=0, shape=SMALL_SHAPE,
            target_metric=None,
        )
        with pytest.raises(TrainingAbort):
            run_training(train, None, cfg)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_worker_failure_ends_run_and_joins_threads(self, mode, monkeypatch):
        train, _ = vertical_pair(n=400, d=10, seed=3)
        workers = 1 if mode in (Mode.LOCKSTEP, Mode.ASYNC) else 2
        cfg = TrainConfig(
            mode=mode, batch_size=20, workers_active=workers, workers_passive=workers,
            learning_rate=0.05, epochs=2, seed=5, shape=SMALL_SHAPE,
        )
        real_backward = nn.backward
        calls = []
        lock = threading.Lock()

        def failing_backward(*args):
            with lock:
                calls.append(None)
                if len(calls) == 7:
                    raise RuntimeError("injected backward failure")
            return real_backward(*args)

        monkeypatch.setattr(nn, "backward", failing_backward)
        baseline = threading.active_count()
        started = time.perf_counter()
        # 300 train rows / B=20 = 15 batches x 3 backward calls: the 7th is in epoch 1
        with pytest.raises(RuntimeError, match="injected backward failure") as failure:
            run_training(train, None, cfg)
        site = r"\[(passive|active) worker [01], epoch 1, batch \d+\]"
        assert re.search(site, str(failure.value)), str(failure.value)
        assert time.perf_counter() - started < 5.0
        assert threading.active_count() == baseline

    def test_single_pair_modes_reject_worker_pools(self):
        train, _ = vertical_pair(n=80, d=6, seed=1)
        cfg = TrainConfig(mode=Mode.LOCKSTEP, workers_active=2, workers_passive=2)
        with pytest.raises(ConfigError):
            run_training(train, None, cfg)


class TestRunAccounting:
    def test_early_stop_on_loss_target(self):
        train, _ = vertical_pair(n=200, d=10, seed=5)
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=50, workers_active=1, workers_passive=1,
            learning_rate=0.01, epochs=50, loss_target=10.0, seed=1,
            shape=SMALL_SHAPE,
        )
        result = run_training(train, None, cfg)
        assert result.summary.stopped_early
        assert result.summary.epochs_run == 1  # CE loss starts well under 10

    def test_noise_entries_accounted(self):
        train, _ = vertical_pair(n=160, d=10, seed=7)
        num_batches = math.ceil(120 / 40)  # 160 rows, 25% held out
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=40, workers_active=1, workers_passive=1,
            learning_rate=0.02, epochs=4, privacy_mu=1.0, seed=2, shape=SMALL_SHAPE,
        )
        result = run_training(train, None, cfg)
        assert result.noise_sigma == pytest.approx(
            40 * math.sqrt(num_batches) / (1.0 * 120)
        )
        expected_entries = cfg.epochs * 120 * SMALL_SHAPE.passive_embed
        assert result.noise_report.entries == expected_entries
        # loose empirical bound; the tight one runs on a much larger sample
        assert result.noise_report.empirical_std == pytest.approx(
            result.noise_sigma, rel=0.25
        )

    def test_privacy_off_draws_nothing(self):
        train, _ = vertical_pair(n=160, d=10, seed=7)
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=40, workers_active=1, workers_passive=1,
            learning_rate=0.02, epochs=2, privacy_mu=math.inf, seed=2,
            shape=SMALL_SHAPE,
        )
        result = run_training(train, None, cfg)
        assert result.noise_sigma == 0.0
        assert result.noise_report.entries == 0

    def test_batch_loss_mean_order_invariant(self):
        scrambled = [(2, 0.5), (0, 0.25), (1, 0.125)]
        assert batch_loss_mean(scrambled) == batch_loss_mean(sorted(scrambled))
        assert batch_loss_mean([(0, 1.5)]) == 1.5
        assert math.isnan(batch_loss_mean([]))

    def test_derive_seed_stable_and_order_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(3, 2, 1)
