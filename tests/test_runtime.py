"""End-to-end tests of the two-party training runtime.

The anchor is the serial reference trainer: a cooperative single-worker run
must match it bit for bit, epoch by epoch.  Everything else checks mode
semantics (rendezvous, free-running, deadlines) and failure plumbing.
"""

import math
import multiprocessing
import os
import re
import signal
import time
import threading
from dataclasses import replace

import numpy as np
import pytest

from splitbus import broker as bk
from splitbus import data
from splitbus import metrics as mt
from splitbus import nn
from splitbus import runtime
from splitbus import transport as tp
from splitbus.config import ConfigError, Mode, ModelShape, ONE_IN_FLIGHT_MODES, TrainConfig
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
from splitbus.schedule import should_sync


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


def models_bit_equal(a: nn.MlpModel, b: nn.MlpModel) -> bool:
    """Every parameter has the same bit pattern (tells -0.0 from 0.0)."""
    return len(a.layers) == len(b.layers) and all(
        np.array_equal(la.weight.view(np.uint64), lb.weight.view(np.uint64))
        and np.array_equal(la.bias.view(np.uint64), lb.bias.view(np.uint64))
        for la, lb in zip(a.layers, b.layers)
    )


TRANSPORTS = ("process", "thread")


def use_transport(monkeypatch, name: str) -> None:
    """Run the passive pool in a forked child (``process``) or a thread."""
    monkeypatch.setattr(runtime, "_transport", lambda passive_in_flight: name)


def capture_brokers(monkeypatch) -> list[bk.Broker]:
    """Every broker built in this process from now on, in order."""
    brokers, real_init = [], bk.Broker.__init__

    def capturing_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        brokers.append(self)

    monkeypatch.setattr(bk.Broker, "__init__", capturing_init)
    return brokers


class TestSerialEquivalence:
    def test_lockstep_and_single_worker_pubsub_match_reference(self, monkeypatch):
        train, test = vertical_pair()
        for transport in TRANSPORTS:  # one child at a time
            use_transport(monkeypatch, transport)
            base = TrainConfig(
                mode=Mode.LOCKSTEP, batch_size=128, workers_active=1, workers_passive=1,
                learning_rate=0.05, epochs=3, seed=11, shape=SMALL_SHAPE,
            )
            ref = run_reference(train, test, base)
            lockstep = run_training(train, test, base)
            pubsub = run_training(train, test, base.for_mode(Mode.PUBSUB))

            assert lockstep.summary.transport == pubsub.summary.transport == transport
            assert lockstep.epoch_train_losses == ref["epoch_train_losses"], transport
            assert pubsub.epoch_train_losses == ref["epoch_train_losses"], transport
            for key in ("passive_bottom", "active_bottom", "top"):
                assert models_bit_equal(lockstep.final_models[key], ref["models"][key]), transport
                assert models_bit_equal(pubsub.final_models[key], ref["models"][key]), transport
            metrics = [m for m in ref["epoch_test_metrics"]]
            assert [row.test_metric for row in lockstep.epochs] == metrics, transport

    def test_reference_bottoms_skip_the_raw_feature_gradient(self, monkeypatch):
        # As in the runtime, only the top model's input gradient is read.
        real_backward, switches = nn.backward, {}

        def recording_backward(model, tape, d_out, **kwargs):
            switches.setdefault(id(model), set()).add(kwargs.get("input_grad", True))
            return real_backward(model, tape, d_out, **kwargs)

        monkeypatch.setattr(nn, "backward", recording_backward)
        train, test = vertical_pair(n=160, d=8, seed=4)
        cfg = TrainConfig(mode=Mode.LOCKSTEP, batch_size=32, epochs=2, seed=5, shape=SMALL_SHAPE)
        models = run_reference(train, test, cfg)["models"]
        assert switches == {
            id(models["passive_bottom"]): {False}, id(models["active_bottom"]): {False},
            id(models["top"]): {True},
        }

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
        assert [row.sync_performed for row in result.epochs] == [
            should_sync(5, t) for t in range(1, 8)
        ]
        for row in result.epochs:
            assert row.batches_completed == 5
            assert row.batches_skipped == 0
            assert math.isfinite(row.mean_train_loss)
        published = [row.bytes_published for row in result.epochs]
        assert published == sorted(published) and published[0] > 0
        assert result.summary.total_evictions == 0
        assert result.summary.ps_syncs == sum(
            1 for t in range(1, 8) if should_sync(5, t)
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


class TestTransports:
    @pytest.mark.parametrize("mode, workers, expected", [
        (Mode.LOCKSTEP, 1, "thread"),
        (Mode.PUBSUB, 1, "thread"),  # lookahead 1 for a single worker
        (Mode.SYNC_PS, 1, "thread"),
        (Mode.SYNC_PS, 2, "process"),
        (Mode.PUBSUB, 2, "process"),
        (Mode.ASYNC, 1, "process"),  # free-running: the whole epoch may be in flight
    ])
    def test_passive_pool_forks_only_with_more_than_one_batch_in_flight(
        self, mode, workers, expected
    ):
        train, _ = vertical_pair(n=200, d=8, seed=2)
        cfg = TrainConfig(
            mode=mode, batch_size=50, workers_active=workers, workers_passive=workers,
            learning_rate=0.02, epochs=1, seed=1, shape=SMALL_SHAPE,
        )
        assert run_training(train, None, cfg).summary.transport == expected

    def test_lockstep_noise_report_is_the_same_under_both_transports(self, monkeypatch):
        train, _ = vertical_pair(n=400, d=10, seed=7)
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=40, workers_active=1, workers_passive=1,
            learning_rate=0.02, epochs=3, privacy_mu=1.0, seed=2, shape=SMALL_SHAPE,
        )
        use_transport(monkeypatch, "process")
        process = run_training(train, None, cfg)
        use_transport(monkeypatch, "thread")
        thread = run_training(train, None, cfg)
        assert (process.summary.transport, thread.summary.transport) == TRANSPORTS
        assert process.noise_report.entries == thread.noise_report.entries > 0
        assert process.noise_report.total == thread.noise_report.total
        assert process.noise_report.total_sq == thread.noise_report.total_sq
        assert process.epoch_train_losses == thread.epoch_train_losses

    def test_sync_ps_is_bit_identical_across_transports(self, monkeypatch):
        train, test = vertical_pair(n=300, d=10, seed=6)
        cfg = TrainConfig(
            mode=Mode.SYNC_PS, batch_size=50, workers_active=3, workers_passive=2,
            learning_rate=0.05, epochs=3, seed=7, shape=SMALL_SHAPE,
        )
        use_transport(monkeypatch, "process")
        process = run_training(train, test, cfg)
        use_transport(monkeypatch, "thread")
        thread = run_training(train, test, cfg)
        assert (process.summary.transport, thread.summary.transport) == TRANSPORTS
        assert process.epoch_train_losses == thread.epoch_train_losses
        assert [r.test_metric for r in process.epochs] == [r.test_metric for r in thread.epochs]
        assert process.summary.ps_syncs == thread.summary.ps_syncs
        for key in process.final_models:
            assert models_bit_equal(process.final_models[key], thread.final_models[key])

    def test_merged_stats_conserve_and_count_every_crossing_payload(self, monkeypatch):
        # Deadlines of 10 s never expire here, so every batch's embedding and
        # gradient cross exactly once per epoch, each as one frame whose
        # payload has the batch's rows and passive_embed columns.
        train, _ = vertical_pair(n=400, d=10, seed=5)
        cfg = TrainConfig(
            mode=Mode.ASYNC_PS, batch_size=32, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=3, seed=3, shape=SMALL_SHAPE,
        )
        use_transport(monkeypatch, "process")
        brokers, sent = capture_brokers(monkeypatch), []
        real_send = tp.Link.send

        def counting_send(self, message):
            sent.append(bk.payload_byte_size(*message.payload.shape))
            return real_send(self, message)

        monkeypatch.setattr(tp.Link, "send", counting_send)  # the parent sends gradients
        result = run_training(train, None, cfg)

        (broker,) = brokers
        stats = broker.stats()
        rows = [b.indices.size for e in range(1, 4) for b in plan_for_epoch(
            train.num_rows, 32, cfg.seed, e).batches]
        crossing = [bk.payload_byte_size(r, SMALL_SHAPE.passive_embed) for r in rows]
        assert stats.conserved(), stats
        assert sorted(sent) == sorted(crossing)
        assert stats.published == stats.delivered == 2 * len(rows)
        assert stats.bytes_published == 2 * sum(crossing)
        assert result.summary.total_bytes_published == stats.bytes_published
        assert result.epochs[-1].bytes_published == stats.bytes_published

    def test_frames_larger_than_a_pipe_buffer_cross_bit_exactly(self, monkeypatch):
        # 256 rows x 40 columns of float64 is 80 KiB a payload, more than the
        # 64 KiB a Linux pipe buffers, so every send waits on the receiver.
        train, test = vertical_pair(n=1200, d=12, seed=4)
        shape = replace(SMALL_SHAPE, passive_embed=40)
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=256, workers_active=1, workers_passive=1,
            learning_rate=0.05, epochs=2, seed=8, shape=shape,
        )
        use_transport(monkeypatch, "process")
        ref = run_reference(train, test, cfg)
        result = run_training(train, test, cfg)
        assert result.epoch_train_losses == ref["epoch_train_losses"]
        for key in ("passive_bottom", "active_bottom", "top"):
            assert models_bit_equal(result.final_models[key], ref["models"][key])


ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
real_getaffinity = getattr(os, "sched_getaffinity", None)


def thread_affinities(tids) -> dict[int, set[int]]:
    """The CPU set of each live thread in ``tids``, by thread id."""
    found = {}
    for tid in tids:
        try:
            found[tid] = real_getaffinity(tid)
        except ProcessLookupError:
            pass  # the thread ended since it was listed
    return found


def process_threads(pid: int) -> list[int]:
    """Thread ids of process ``pid``; just its main thread where ``/proc`` does not list them."""
    task_dir = f"/proc/{pid}/task"
    try:
        return [int(t) for t in os.listdir(task_dir)]
    except FileNotFoundError:
        return [pid]


def record_placement(monkeypatch) -> dict:
    """Note, at every active batch step, where each runtime thread may run.

    ``parent`` maps the name of each of this process's runtime threads (the
    active workers and the receiver) to its CPU set; ``child`` maps the id
    of each thread seen in the passive child to its CPU set.
    """
    seen: dict = {"parent": {}, "child": {}}
    children = []
    real_init, real_process = tp.PassiveProcess.__init__, ActiveEngine._process_batch

    def capturing_init(self, *args):
        real_init(self, *args)
        children.append(self._process.pid)

    def recording_process(self, *args):
        threads = {t.native_id: t.name for t in threading.enumerate()
                   if t.native_id is not None and t.name.startswith(("active-", "passive-receiver"))}
        for tid, cpus in thread_affinities(threads).items():
            seen["parent"][threads[tid]] = cpus
        for pid in children:
            seen["child"].update(thread_affinities(process_threads(pid)))
        return real_process(self, *args)

    monkeypatch.setattr(tp.PassiveProcess, "__init__", capturing_init)
    monkeypatch.setattr(ActiveEngine, "_process_batch", recording_process)
    return seen


@pytest.mark.skipif(real_getaffinity is None, reason="needs os.sched_getaffinity")
class TestPlacement:
    @pytest.mark.parametrize("allowed, parent, child", [
        ({0}, [], []),
        ({3, 5}, [3], [5]),
        ({0, 1, 2}, [0, 1], [2]),  # the parent takes the odd CPU out
        ({7, 2, 4, 9}, [2, 4], [7, 9]),
    ])
    def test_split_cpus_halves_the_allowed_set(self, allowed, parent, child, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed)
        assert tp.split_cpus() == (parent, child)

    @pytest.mark.skipif(len(ALLOWED_CPUS) < 2, reason="needs two CPUs to split")
    def test_forked_run_gives_each_party_its_own_cpus(self, monkeypatch):
        train, _ = vertical_pair(n=400, d=10, seed=5)
        cfg = TrainConfig(
            mode=Mode.ASYNC_PS, batch_size=32, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=2, seed=3, shape=SMALL_SHAPE,
        )
        caller = real_getaffinity(0)
        seen = record_placement(monkeypatch)
        summary = run_training(train, None, cfg).summary

        active, passive = set(summary.cpus_active), set(summary.cpus_passive)
        assert summary.transport == "process"
        assert active and passive and not active & passive
        assert sorted(active | passive) == ALLOWED_CPUS
        assert summary.cpus_active == sorted(active)
        assert summary.cpus_passive == sorted(passive)
        assert sorted(seen["parent"]) == ["active-0", "active-1", "passive-receiver"]
        assert all(cpus == active for cpus in seen["parent"].values()), seen
        assert len(seen["child"]) >= 4  # main, receiver and two workers
        assert all(cpus == passive for cpus in seen["child"].values()), seen
        assert real_getaffinity(0) == caller

    @pytest.mark.parametrize("platform", ["one cpu", "no sched_setaffinity"])
    def test_nothing_is_pinned_without_a_split(self, platform, monkeypatch):
        train, test = vertical_pair()
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=128, workers_active=1, workers_passive=1,
            learning_rate=0.05, epochs=2, seed=11, shape=SMALL_SHAPE,
        )
        ref = run_reference(train, test, cfg)
        caller = real_getaffinity(0)
        use_transport(monkeypatch, "process")
        seen = record_placement(monkeypatch)
        if platform == "one cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(caller)})
        else:
            monkeypatch.delattr(os, "sched_setaffinity")
        result = run_training(train, test, cfg)

        assert (result.summary.cpus_active, result.summary.cpus_passive) == ([], [])
        assert sorted(seen["parent"]) == ["active-0", "passive-receiver"]
        assert all(cpus == caller for cpus in seen["parent"].values()), seen
        assert seen["child"] and all(cpus == caller for cpus in seen["child"].values()), seen
        assert result.epoch_train_losses == ref["epoch_train_losses"]
        for key in ("passive_bottom", "active_bottom", "top"):
            assert models_bit_equal(result.final_models[key], ref["models"][key])

    def test_thread_transport_pins_nothing(self, monkeypatch):
        train, _ = vertical_pair(n=400, d=8, seed=2)
        cfg = TrainConfig(
            mode=Mode.PUBSUB, batch_size=32, workers_active=2, workers_passive=2,
            learning_rate=0.02, epochs=2, seed=1, shape=SMALL_SHAPE,
        )
        use_transport(monkeypatch, "thread")
        seen = record_placement(monkeypatch)
        summary = run_training(train, None, cfg).summary
        assert (summary.transport, summary.cpus_active, summary.cpus_passive) == ("thread", [], [])
        assert sorted(seen["parent"]) == ["active-0", "active-1"]
        assert all(cpus == set(ALLOWED_CPUS) for cpus in seen["parent"].values()), seen


class TestBrokerTraffic:
    # Counts calls through a patched Broker method, which a forked child's
    # calls would bypass; the thread transport keeps every call in this process.
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
        use_transport(monkeypatch, "thread")
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


class TestChannels:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_every_channel_keeps_only_its_newest_message(self, mode, monkeypatch):
        brokers = capture_brokers(monkeypatch)
        train, _ = vertical_pair(n=200, d=8, seed=2)
        workers = 1 if mode in (Mode.LOCKSTEP, Mode.ASYNC) else 2
        cfg = TrainConfig(
            mode=mode, batch_size=50, workers_active=workers, workers_passive=workers,
            learning_rate=0.02, epochs=1, seed=1, shape=SMALL_SHAPE,
        )
        run_training(train, None, cfg)
        (broker,) = brokers  # a forked child works on a copy of this one
        assert {channel.capacity for channel in broker._channels.values()} == {1}

    @pytest.mark.parametrize("mode", [Mode.PUBSUB, Mode.ASYNC_PS])
    def test_skewed_pools_retry_and_account_for_every_message(self, mode, monkeypatch):
        # Each passive batch sleeps twice the deadline, so active waits expire
        # and batches retry whatever the scheduling.  A retry's embedding
        # supersedes an older one still in its channel, and only a retry can.
        brokers = capture_brokers(monkeypatch)
        train, _ = vertical_pair(n=800, d=10, seed=5)
        cfg = TrainConfig(
            mode=mode, batch_size=32, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=2, seed=3, shape=SMALL_SHAPE, lookahead=4,
            deadline_seconds=0.003, skew_passive_seconds=0.006, max_retries=6,
        )
        summary = run_training(train, None, cfg).summary
        (broker,) = brokers
        stats = broker.stats()
        assert stats.conserved(), stats
        assert summary.total_evictions == stats.evicted
        assert summary.total_batch_retries > 0
        assert summary.total_evictions <= summary.total_batch_retries


class TestCriticalPath:
    def test_active_bottom_forward_runs_before_embedding_wait(self, monkeypatch):
        # The active bottom needs only the active party's rows, so batch k's
        # bottom forward comes before the subscribe that waits for batch k's
        # embedding, not after it.
        train, _ = vertical_pair(n=400, d=12, seed=3)
        d_active = train.active_features.shape[1]
        assert d_active != SMALL_SHAPE.active_embed + SMALL_SHAPE.passive_embed  # not the top
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=50, workers_active=1, workers_passive=1,
            learning_rate=0.05, epochs=2, seed=4, shape=SMALL_SHAPE,
        )
        real_forward, real_subscribe = nn.forward, bk.Broker.subscribe
        events = []

        def recording_forward(model, x):
            if threading.current_thread().name.startswith("active") and model.in_dim == d_active:
                events.append("bottom forward")
            return real_forward(model, x)

        def recording_subscribe(self, kind, batch_id, *args):
            if kind is bk.MessageKind.EMBEDDING:
                events.append(("embedding subscribe", batch_id))
            return real_subscribe(self, kind, batch_id, *args)

        monkeypatch.setattr(nn, "forward", recording_forward)
        monkeypatch.setattr(bk.Broker, "subscribe", recording_subscribe)
        result = run_training(train, None, cfg)
        subscribes = [e for e in events if e != "bottom forward"]
        assert len(subscribes) == sum(row.batches_completed for row in result.epochs)
        assert events == [e for sub in subscribes for e in ("bottom forward", sub)]


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


class TestEvaluation:
    @pytest.mark.parametrize("task", list(Task))
    def test_evaluation_runs_without_a_tape(self, task, monkeypatch):
        # Under one block of rows, predict has forward's bits, so the metric is exact.
        _, test = vertical_pair(n=400, d=12, seed=3, task=task)
        passive, active, top = build_models(SMALL_SHAPE, 6, 6, task, seed=7)
        z = np.concatenate(
            [nn.forward(active, test.active_features)[0],
             nn.forward(passive, test.passive_features)[0]], axis=1, dtype=np.float64,
        )
        scores = nn.forward(top, z)[0]
        want = (
            mt.auc_score(test.labels, scores) if task is Task.CLASSIFICATION
            else mt.rmse(test.labels, scores)
        )

        def no_forward(*args, **kwargs):
            raise AssertionError("evaluation must not record a tape")

        monkeypatch.setattr(nn, "forward", no_forward)
        assert runtime.evaluate_models(passive, active, top, test) == want

    def test_passive_helper_failure_reaches_the_caller(self, monkeypatch):
        _, test = vertical_pair()
        passive, active, top = build_models(SMALL_SHAPE, 6, 6, Task.CLASSIFICATION, seed=7)
        real_predict = nn.predict

        def failing_predict(model, x):
            if model is passive:
                raise RuntimeError("passive bottom failed")
            return real_predict(model, x)

        monkeypatch.setattr(nn, "predict", failing_predict)
        with pytest.raises(RuntimeError, match="passive bottom failed"):
            runtime.evaluate_models(passive, active, top, test)


class TestBottomPrecision:
    CFG = dict(
        mode=Mode.LOCKSTEP, batch_size=32, workers_active=1, workers_passive=1,
        learning_rate=0.1, epochs=4, seed=3, shape=SMALL_SHAPE, target_metric=None,
    )

    def test_float32_bottoms_track_float64_bottoms(self, monkeypatch):
        cfg = TrainConfig(**self.CFG)
        single = run_training(*vertical_pair(n=800, d=12, seed=5), cfg)
        monkeypatch.setattr(data, "FEATURE_DTYPE", np.float64)  # the split and the bottoms
        double = run_training(*vertical_pair(n=800, d=12, seed=5), cfg)
        models = ("passive_bottom", "active_bottom", "top")
        dtypes = lambda r: [r.final_models[name].dtype for name in models]
        assert dtypes(single) == [np.float32, np.float32, np.float64]
        assert dtypes(double) == [np.float64] * 3
        assert single.epoch_train_losses != double.epoch_train_losses  # two precisions ran
        assert single.epoch_train_losses == pytest.approx(double.epoch_train_losses, rel=1e-4)
        assert single.summary.final_test_metric == pytest.approx(
            double.summary.final_test_metric, abs=1e-3
        )

    def test_a_run_trains_on_the_callers_feature_arrays(self, monkeypatch):
        # The split stores features in the bottoms' dtype, so a run copies none.
        held = []
        for cls in (runtime.PassiveEngine, runtime.ActiveEngine):
            def recording_init(self, *args, _init=cls.__init__, **kwargs):
                _init(self, *args, **kwargs)
                held.append(self)

            monkeypatch.setattr(cls, "__init__", recording_init)
        train, test = vertical_pair(n=160, d=8, seed=4)
        run_training(train, test, TrainConfig(**self.CFG))
        passive, active = held
        assert np.shares_memory(passive.features, train.passive_features)
        assert np.shares_memory(active.features, train.active_features)


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

        bottom_out = engine._bottom_forward(0, plan.batches[0], WorkerStats())
        with pytest.raises(AlignmentError):
            engine._process_batch(0, plan, 0, message, bottom_out, shared, WorkerStats())
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
        # Under the process transport each process counts its own calls, so
        # the 7th call of either party raises first.
        train, _ = vertical_pair(n=400, d=10, seed=3)
        workers = 1 if mode in (Mode.LOCKSTEP, Mode.ASYNC) else 2
        real_backward = nn.backward
        for transport in TRANSPORTS:  # one child at a time
            use_transport(monkeypatch, transport)
            cfg = TrainConfig(
                mode=mode, batch_size=20, workers_active=workers, workers_passive=workers,
                learning_rate=0.05, epochs=2, seed=5, shape=SMALL_SHAPE,
            )
            calls = []
            lock = threading.Lock()

            def failing_backward(*args, **kwargs):
                with lock:
                    calls.append(None)
                    if len(calls) == 7:
                        raise RuntimeError("injected backward failure")
                return real_backward(*args, **kwargs)

            monkeypatch.setattr(nn, "backward", failing_backward)
            baseline = threading.active_count()
            started = time.perf_counter()
            # 300 train rows / B=20 = 15 batches x 3 backward calls: the 7th is in epoch 1
            with pytest.raises(RuntimeError, match="injected backward failure") as failure:
                run_training(train, None, cfg)
            site = r"\[(passive|active) worker [01], epoch 1, batch \d+\]"
            assert re.search(site, str(failure.value)), (transport, str(failure.value))
            assert time.perf_counter() - started < 5.0, transport
            assert threading.active_count() == baseline, transport
            assert multiprocessing.active_children() == [], transport

    def test_killed_passive_process_ends_a_lockstep_run(self, monkeypatch):
        # lockstep waits never expire: only the dead pipe can end this run.
        train, _ = vertical_pair(n=400, d=10, seed=3)
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=20, workers_active=1, workers_passive=1,
            learning_rate=0.05, epochs=2, seed=5, shape=SMALL_SHAPE,
        )
        use_transport(monkeypatch, "process")
        parent = os.getpid()
        real_backward = nn.backward

        def killing_backward(*args, **kwargs):
            if os.getpid() != parent:  # the passive party's process
                os.kill(os.getpid(), signal.SIGKILL)
            return real_backward(*args, **kwargs)

        monkeypatch.setattr(nn, "backward", killing_backward)
        baseline = threading.active_count()
        shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        started = time.perf_counter()
        with pytest.raises(tp.PeerGone, match=r"passive party") as failure:
            run_training(train, None, cfg)
        assert time.perf_counter() - started < 5.0
        assert f"code {-signal.SIGKILL}" in str(failure.value)
        assert "[passive party, epoch 1]" in str(failure.value)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == baseline
        if os.path.isdir("/dev/shm"):
            assert set(os.listdir("/dev/shm")) == shm_before

    def test_peer_failure_does_not_wait_for_the_send_lock(self):
        # The receiver thread fails the epoch when the peer closes or dies.  A
        # worker may hold the send lock meanwhile, blocked on a full pipe that
        # only the peer's receiver drains, so the failure must not need it.
        rx, tx = multiprocessing.Pipe(duplex=False)
        broker = bk.Broker(1, 1, 1)
        link = tp.Link(tx, rx, broker, peer="passive")
        broker.connect(link, bk.MessageKind.GRADIENT)
        shared = EpochShared(broker, 1)
        link.watch(shared)
        with link._send_lock:
            receiver = threading.Thread(target=link._peer_gone, args=(tp.PeerGone("gone"),))
            receiver.start()
            receiver.join(2.0)
            blocked = receiver.is_alive()
        receiver.join()
        rx.close()
        tx.close()
        assert not blocked
        assert shared.failed

    def test_unpicklable_child_failure_comes_back_as_its_text(self, monkeypatch):
        class HoldsALock(RuntimeError):
            def __init__(self, text):
                super().__init__(text)
                self.lock = threading.Lock()  # cannot be pickled

        train, _ = vertical_pair(n=400, d=10, seed=3)
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=20, workers_active=1, workers_passive=1,
            learning_rate=0.05, epochs=2, seed=5, shape=SMALL_SHAPE,
        )
        use_transport(monkeypatch, "process")
        parent = os.getpid()
        real_backward = nn.backward

        def failing_backward(*args, **kwargs):
            if os.getpid() != parent:
                raise HoldsALock("injected passive failure")
            return real_backward(*args, **kwargs)

        monkeypatch.setattr(nn, "backward", failing_backward)
        with pytest.raises(RuntimeError) as failure:
            run_training(train, None, cfg)
        assert type(failure.value) is RuntimeError
        assert re.fullmatch(
            r"HoldsALock: injected passive failure \[passive worker 0, epoch 1, batch \d+\]",
            str(failure.value),
        ), str(failure.value)

    def test_single_pair_modes_reject_worker_pools(self):
        train, _ = vertical_pair(n=80, d=6, seed=1)
        cfg = TrainConfig(mode=Mode.LOCKSTEP, workers_active=2, workers_passive=2)
        with pytest.raises(ConfigError):
            run_training(train, None, cfg)

    @pytest.mark.parametrize("mode", ONE_IN_FLIGHT_MODES)
    def test_one_in_flight_modes_reject_a_lookahead(self, mode):
        train, _ = vertical_pair(n=80, d=6, seed=1)
        cfg = TrainConfig(mode=mode, workers_active=1, workers_passive=1, lookahead=2)
        with pytest.raises(ConfigError, match="lookahead"):
            run_training(train, None, cfg)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_for_mode_gives_every_mode_a_config_it_runs(self, mode):
        train, _ = vertical_pair(n=80, d=6, seed=1)
        cfg = TrainConfig(workers_active=2, workers_passive=2, lookahead=3, epochs=1,
                          batch_size=20, shape=SMALL_SHAPE).for_mode(mode)
        assert run_training(train, None, cfg).summary.epochs_run == 1

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_active_side_failure_outside_the_workers_ends_the_run(self, transport,
                                                                  monkeypatch):
        # lockstep waits never expire: the passive worker, blocked on the
        # gradient of a batch the active pool never starts, is freed only by
        # the failure closing the bus.
        train, _ = vertical_pair(n=400, d=10, seed=3)
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=20, workers_active=1, workers_passive=1,
            learning_rate=0.05, epochs=2, seed=5, shape=SMALL_SHAPE,
        )
        use_transport(monkeypatch, transport)

        def failing_run_epoch(self, *args):
            raise RuntimeError("injected active pool failure")

        monkeypatch.setattr(runtime.ActiveEngine, "run_epoch", failing_run_epoch)
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="injected active pool failure") as failure:
            run_training(train, None, cfg)
        assert time.perf_counter() - started < 5.0
        assert "[active party, epoch 1]" in str(failure.value)


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

    def test_epoch_rows_split_waits_by_party(self):
        train, _ = vertical_pair(n=400, d=10, seed=5)
        cfg = TrainConfig(
            mode=Mode.PUBSUB, batch_size=50, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=3, seed=3, shape=SMALL_SHAPE,
            skew_passive_seconds=0.002,  # the active party waits for embeddings
        )
        result = run_training(train, None, cfg)
        for row, party in zip(result.epochs, result.party_stats):
            assert row.total_wait_seconds == row.passive_wait_seconds + row.active_wait_seconds
            assert row.active_wait_seconds > 0.0
            assert row.max_single_wait == party["max_single_wait"]
            assert 0.0 < row.max_single_wait <= max(
                row.active_wait_seconds, row.passive_wait_seconds
            )

    @pytest.mark.parametrize("mu", [math.inf, 1.0])
    def test_a_batch_past_the_row_count_is_one_batch_of_every_row(self, mu):
        train, test = vertical_pair(n=200, d=10, seed=5)
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=train.num_rows, workers_active=1,
            workers_passive=1, learning_rate=0.05, epochs=2, privacy_mu=mu, seed=3,
            shape=SMALL_SHAPE,
        )
        whole = run_training(train, test, cfg)
        past = run_training(train, test, replace(cfg, batch_size=100 * train.num_rows))
        assert past.epoch_train_losses == whole.epoch_train_losses
        assert past.noise_sigma == whole.noise_sigma
        ref = run_reference(train, test, replace(cfg, batch_size=100 * train.num_rows))
        assert ref["epoch_train_losses"] == whole.epoch_train_losses

    def test_batch_loss_mean_order_invariant(self):
        scrambled = [(2, 0.5), (0, 0.25), (1, 0.125)]
        assert batch_loss_mean(scrambled) == batch_loss_mean(sorted(scrambled))
        assert batch_loss_mean([(0, 1.5)]) == 1.5
        assert math.isnan(batch_loss_mean([]))

    def test_derive_seed_stable_and_order_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(3, 2, 1)
