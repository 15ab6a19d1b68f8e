"""End-to-end tests of the two-party training runtime.

The anchor is the serial reference trainer: a cooperative single-worker run
must match it bit for bit, epoch by epoch.  Everything else checks mode
semantics (rendezvous, free-running, deadlines) and failure plumbing.
"""

import math
import multiprocessing
import os
import pathlib
import re
import signal
import sys
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


def run_within(seconds: float, call, *args):
    """``call(*args)`` on a daemon thread: its result, or what it raised.

    A call still running after ``seconds`` fails the test instead of hanging it.
    """
    results, errors = [], []

    def target():
        try:
            results.append(call(*args))
        except BaseException as exc:
            errors.append(exc)

    thread = threading.Thread(target=target, name="run-within", daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        pytest.fail(f"{call.__name__} still running after {seconds} s")
    if errors:
        raise errors[0]
    return results[0]


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
        # gradient cross exactly once per epoch, each as one slot write whose
        # payload has the batch's rows and passive_embed columns.
        train, _ = vertical_pair(n=400, d=10, seed=5)
        cfg = TrainConfig(
            mode=Mode.ASYNC_PS, batch_size=32, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=3, seed=3, shape=SMALL_SHAPE,
        )
        use_transport(monkeypatch, "process")
        brokers, sent = capture_brokers(monkeypatch), []
        real_write = tp.Mailbox.write

        def counting_write(self, message):
            sent.append(bk.payload_byte_size(*message.payload.shape))
            return real_write(self, message)

        monkeypatch.setattr(tp.Mailbox, "write", counting_write)  # the parent writes gradients
        result = run_training(train, None, cfg)

        (broker,) = brokers
        # The parent consumes embeddings straight from their slots and holds no channel.
        assert broker._inbound is bk.MessageKind.EMBEDDING and broker._channels == {}
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

    def test_slots_of_256_rows_cross_bit_exactly(self, monkeypatch):
        # 256 rows x 40 columns of float64 is an 80 KiB slot payload, many
        # pages of the shared region, each way.
        train, test = vertical_pair(n=1200, d=12, seed=4)
        shape = replace(SMALL_SHAPE, passive_embed=40)
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, batch_size=256, workers_active=1, workers_passive=1,
            learning_rate=0.05, epochs=2, seed=8, shape=shape,
        )
        use_transport(monkeypatch, "process")
        ref = run_reference(train, test, cfg)
        result = run_training(train, test, cfg)
        assert result.summary.transport == "process"
        assert result.epoch_train_losses == ref["epoch_train_losses"]
        for key in ("passive_bottom", "active_bottom", "top"):
            assert models_bit_equal(result.final_models[key], ref["models"][key])

    def test_retries_supersede_slots_and_every_message_is_counted(self, monkeypatch):
        # A 5 ms active skew against a 3 ms deadline: passive waits for
        # gradients expire, and with two batches in flight per worker the
        # retried batch's embedding overwrites its slot before the active
        # side reads it; the overwritten message counts as published and
        # evicted.
        brokers = capture_brokers(monkeypatch)
        train, _ = vertical_pair(n=800, d=10, seed=5)
        cfg = TrainConfig(
            mode=Mode.ASYNC_PS, batch_size=32, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=2, seed=3, shape=SMALL_SHAPE,
            deadline_seconds=0.003, skew_active_seconds=0.005, lookahead=2, max_retries=6,
        )
        summary = run_training(train, None, cfg).summary
        (broker,) = brokers
        stats = broker.stats()
        assert summary.transport == "process"
        assert stats.conserved(), stats
        assert stats.published == (stats.delivered + stats.evicted + stats.flushed
                                   + stats.dropped_closed + stats.residual)
        assert stats.evicted > 0
        assert summary.total_evictions == stats.evicted

    def test_mailbox_stress_loses_and_duplicates_nothing(self):
        # More threads than cores on both sides of the slots, with a short
        # switch interval: writers overwrite slots at random while readers
        # wait on random batches, some of whose waits time out.
        batches, writers, readers, per_writer = 6, 4, 4, 3000
        broker = bk.Broker(batches, 1, 1)
        mailbox = tp.Mailbox(batches, 2, 1, readers)
        broker.connect(mailbox, bk.MessageKind.EMBEDDING)
        delivered, lock, done = [], threading.Lock(), threading.Event()

        def write(w):
            rng = np.random.default_rng(w)
            for i in range(per_writer):
                tag = float(w * per_writer + i)
                mailbox.write(bk.ChannelMessage(bk.MessageKind.EMBEDDING, int(rng.integers(batches)),
                                                np.full((2, 1), tag), (0, 2), w, i))

        def read(r):
            rng = np.random.default_rng(100 + r)
            while not done.is_set():
                result = broker.subscribe(bk.MessageKind.EMBEDDING, int(rng.integers(batches)),
                                          0.002)
                if result.outcome is bk.SubscribeOutcome.DELIVERED:
                    with lock:
                        delivered.append(result.message.payload[0, 0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read, args=(r,)) for r in range(readers)]
            threads += [threading.Thread(target=write, args=(w,)) for w in range(writers)]
            for t in threads:
                t.start()
            for t in threads[readers:]:
                t.join(10.0)
            done.set()
            for t in threads[:readers]:
                t.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        stats = broker.stats()
        assert stats.published == writers * per_writer
        assert len(delivered) == len(set(delivered)) == stats.delivered > 0
        assert set(delivered) <= {float(t) for t in range(writers * per_writer)}
        assert stats.conserved(), stats

    def test_an_overwritten_slot_counts_as_published_and_evicted(self):
        # The peer's side, written straight into the mailbox: three embeddings
        # for batch 0 before any subscribe, one for batch 1 that nobody takes.
        broker = bk.Broker(2, 1, 1)
        mailbox = tp.Mailbox(2, 4, 3, 1)
        broker.connect(mailbox, bk.MessageKind.EMBEDDING)
        for fill, batch_id in ((1.0, 0), (2.0, 0), (3.0, 0), (4.0, 1)):
            mailbox.write(bk.ChannelMessage(bk.MessageKind.EMBEDDING, batch_id,
                                            np.full((4, 3), fill, np.float32), (0, 4), 1, 7))
        result = broker.subscribe(bk.MessageKind.EMBEDDING, 0, 0.0)
        assert result.outcome is bk.SubscribeOutcome.DELIVERED
        message = result.message
        assert message.payload.dtype == np.float64 and np.all(message.payload == 3.0)
        assert (message.sample_range, message.sender_worker, message.param_version) == ((0, 4), 1, 7)
        assert 0.0 < message.publish_time <= time.monotonic()
        stats = broker.stats()  # pulls batch 1's slot first
        assert (stats.published, stats.delivered, stats.evicted, stats.residual) == (4, 1, 2, 1)
        assert stats.bytes_published == 4 * bk.payload_byte_size(4, 3)
        assert stats.conserved()
        assert broker.flush_all() == 1
        assert broker.subscribe(bk.MessageKind.EMBEDDING, 1, 0.0).outcome is \
            bk.SubscribeOutcome.EXPIRED
        assert broker.stats().conserved()

    @pytest.mark.parametrize("inbound", list(bk.MessageKind))
    def test_a_connected_broker_keeps_only_the_kind_it_consumes(self, inbound):
        # A connected broker holds no channels: the kind it consumes is read
        # from its slots, a publish of the other kind goes into the peer's
        # slot, and a subscribe to that kind fails at once instead of waiting
        # on a slot that nothing here reads.
        other = next(kind for kind in bk.MessageKind if kind is not inbound)
        broker = bk.Broker(3, 1, 1)
        mailbox = tp.Mailbox(3, 2, 1, 1)
        broker.connect(mailbox, inbound)
        raised = []

        def subscribe_other():
            try:
                broker.subscribe(other, 0, None)
            except KeyError as exc:
                raised.append(str(exc))

        waiter = threading.Thread(target=subscribe_other, daemon=True)
        waiter.start()
        waiter.join(2.0)
        assert raised == [repr(f"no {other.value} channel for batch id 0")]
        with pytest.raises(KeyError, match=f"no {inbound.value} channel for batch id 3"):
            broker.subscribe(inbound, 3, None)
        broker.publish(bk.ChannelMessage(other, 1, np.ones((2, 1)), (0, 2), 0, 0))
        assert mailbox._slots[tp._KINDS.index(other), :, tp._SEQ].tolist() == [0, 1, 0]
        mailbox.write(bk.ChannelMessage(inbound, 2, np.ones((2, 1)), (0, 2), 0, 0))
        assert broker.subscribe(inbound, 2, 0.0).outcome is bk.SubscribeOutcome.DELIVERED
        assert mailbox._slots[tp._KINDS.index(inbound), :, tp._READ].tolist() == [0, 0, 1]
        stats = broker.stats()  # counts the peer's slots too
        assert (stats.published, stats.delivered, stats.residual) == (2, 1, 1)
        assert stats.conserved() and broker._channels == {}

    @pytest.mark.parametrize("inbound", list(bk.MessageKind))
    def test_closing_one_copy_closes_both_kinds(self, inbound):
        # Two copies of the broker on one mailbox, as in the two processes of
        # a forked run: closing either, twice here as a run's failure and its
        # end both do, wakes the waiters of both kinds and drops later writes
        # of both, and nothing goes down the pipe.
        other = next(kind for kind in bk.MessageKind if kind is not inbound)
        mailbox = tp.Mailbox(2, 2, 1, 1)
        ours, peers = bk.Broker(2, 1, 1), bk.Broker(2, 1, 1)
        ours.connect(mailbox, inbound)
        peers.connect(mailbox, other)
        ours_end, theirs = multiprocessing.Pipe()
        link = tp.Link(ours_end, mailbox, peer="peer")
        link.start()
        results = {}

        def wait(broker, kind):
            results[kind] = broker.subscribe(kind, 1, None)

        waiters = [threading.Thread(target=wait, args=pair, daemon=True)
                   for pair in ((ours, inbound), (peers, other))]
        for waiter in waiters:
            waiter.start()
        deadline = time.monotonic() + 5.0
        while (any(sleepers.tolist() != [1] for sleepers in mailbox._sleepers)
               and time.monotonic() < deadline):
            time.sleep(0.001)
        ours.close()
        ours.close()
        for waiter in waiters:
            waiter.join(2.0)
        assert {kind: r.outcome for kind, r in results.items()} == {
            kind: bk.SubscribeOutcome.CLOSED for kind in bk.MessageKind}
        ours.publish(bk.ChannelMessage(other, 0, np.ones((2, 1)), (0, 2), 0, 0))
        peers.publish(bk.ChannelMessage(inbound, 0, np.ones((2, 1)), (0, 2), 0, 0))
        stats = peers.stats()
        assert (stats.published, stats.dropped_closed, stats.bytes_published) == (2, 2, 0)
        assert stats.conserved(), stats
        assert not theirs.poll(0.1)
        theirs.close()  # EOF: the receiver closes the closed bus again and ends
        link.close()
        assert mailbox.peer_gone and link.recv_control() is None

    @pytest.mark.parametrize("inbound", list(bk.MessageKind))
    def test_a_write_after_close_is_dropped_on_the_slot_path(self, inbound):
        broker = bk.Broker(2, 1, 1)
        mailbox = tp.Mailbox(2, 2, 1, 1)
        broker.connect(mailbox, inbound)
        mailbox.write(bk.ChannelMessage(inbound, 0, np.ones((2, 1)), (0, 2), 0, 0))
        broker.close()
        mailbox.write(bk.ChannelMessage(inbound, 1, np.ones((2, 1)), (0, 2), 0, 0))
        stats = broker.stats()
        assert (stats.published, stats.dropped_closed, stats.residual) == (2, 1, 1)
        assert stats.bytes_published == bk.payload_byte_size(2, 1)
        assert stats.conserved(), stats
        assert broker.subscribe(inbound, 1, None).outcome is bk.SubscribeOutcome.CLOSED
        assert broker.stats() == stats

    def test_flush_all_counts_each_unread_slot_once_and_its_overwritten_messages(self):
        broker = bk.Broker(3, 1, 1)
        mailbox = tp.Mailbox(3, 2, 1, 1)
        broker.connect(mailbox, bk.MessageKind.GRADIENT)
        for batch_id in (0, 0, 0, 1, 2, 2):
            mailbox.write(bk.ChannelMessage(bk.MessageKind.GRADIENT, batch_id, np.ones((2, 1)),
                                            (0, 2), 0, 0))
        assert broker.subscribe(bk.MessageKind.GRADIENT, 2, 0.0).message is not None
        assert broker.flush_all() == 2
        stats = broker.stats()
        assert (stats.published, stats.delivered, stats.flushed, stats.evicted,
                stats.residual) == (6, 1, 2, 3, 0)
        assert stats.conserved(), stats
        assert broker.flush_all() == 0
        assert broker.subscribe(bk.MessageKind.GRADIENT, 0, 0.0).outcome is \
            bk.SubscribeOutcome.EXPIRED

    @pytest.mark.parametrize("transport, mode, workers, built", [
        ("thread", Mode.LOCKSTEP, 1, 2 * 4),
        ("process", Mode.ASYNC_PS, 2, 0),
    ])
    def test_only_the_thread_transport_builds_channel_buffers(
        self, transport, mode, workers, built, monkeypatch
    ):
        # 150 training rows at B = 40 are 4 batch ids; a forked child's
        # buffers would be counted in its own copy of the list, not here.
        buffers, real_init = [], bk.ChannelBuffer.__init__

        def counting_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            buffers.append(self)

        monkeypatch.setattr(bk.ChannelBuffer, "__init__", counting_init)
        train, _ = vertical_pair(n=200, d=8, seed=2)
        cfg = TrainConfig(
            mode=mode, batch_size=40, workers_active=workers, workers_passive=workers,
            learning_rate=0.02, epochs=2, seed=1, shape=SMALL_SHAPE,
        )
        result = run_training(train, None, cfg)
        assert result.summary.transport == transport
        assert bk.channel_count_for(train.num_rows, 40) == 4
        assert len(buffers) == built


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
    """Note, at every active batch step and as each active worker starts,
    where each runtime thread may run.

    ``parent`` maps the name of each of this process's runtime threads (the
    active workers and the receiver) to its CPU set; ``child`` maps the id
    of each thread seen in the passive child to its CPU set.  A worker notes
    itself as it starts, so it is seen even if the other worker took every
    batch of the epoch before it ran.
    """
    seen: dict = {"parent": {}, "child": {}}
    children = []
    real_init, real_process = tp.PassiveProcess.__init__, ActiveEngine._process_batch
    real_loop = ActiveEngine._worker_loop

    def capturing_init(self, *args):
        real_init(self, *args)
        children.append(self._process.pid)

    def record():
        threads = {t.native_id: t.name for t in threading.enumerate()
                   if t.native_id is not None and t.name.startswith(("active-", "passive-receiver"))}
        for tid, cpus in thread_affinities(threads).items():
            seen["parent"][threads[tid]] = cpus
        for pid in children:
            seen["child"].update(thread_affinities(process_threads(pid)))

    def recording_process(self, *args):
        record()
        return real_process(self, *args)

    def recording_loop(self, *args):
        record()
        return real_loop(self, *args)

    monkeypatch.setattr(tp.PassiveProcess, "__init__", capturing_init)
    monkeypatch.setattr(ActiveEngine, "_process_batch", recording_process)
    monkeypatch.setattr(ActiveEngine, "_worker_loop", recording_loop)
    return seen


def log_calls(monkeypatch, owner, name: str, path, who) -> None:
    """Append ``<pid> <who(*args)>`` to the file ``path`` at every call of
    ``owner.name``, in this process and in a child forked after this call."""
    real = getattr(owner, name)

    def logging(*args, **kwargs):
        with open(path, "a") as log:
            log.write(f"{os.getpid()} {who(*args)}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, logging)


def logged_workers(path: pathlib.Path) -> dict[int, list[str]]:
    """The worker thread names (``active-w``, ``passive-w``) that ``log_calls``
    logged, sorted with repeats kept, by process id."""
    found: dict[int, list[str]] = {}
    if path.exists():
        for line in path.read_text().splitlines():
            pid, name = line.split(" ", 1)
            if re.fullmatch(r"(active|passive)-\d+", name):
                found.setdefault(int(pid), []).append(name)
    return {pid: sorted(names) for pid, names in found.items()}


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
    def test_forked_run_gives_each_party_its_own_cpus(self, monkeypatch, tmp_path):
        train, _ = vertical_pair(n=400, d=10, seed=5)
        cfg = TrainConfig(
            mode=Mode.ASYNC_PS, batch_size=32, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=2, seed=3, shape=SMALL_SHAPE,
        )
        caller = real_getaffinity(0)
        seen = record_placement(monkeypatch)
        pins = tmp_path / "pins"
        log_calls(monkeypatch, tp, "pin_thread", pins,
                  lambda *args: threading.current_thread().name)
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
        # Each worker pins itself once per run, not once per epoch.
        pinned = logged_workers(pins)
        assert pinned.pop(os.getpid()) == ["active-0", "active-1"]
        assert list(pinned.values()) == [["passive-0", "passive-1"]]  # the one child

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


class TestWorkerPools:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_each_party_starts_its_workers_once_per_run(self, transport, monkeypatch,
                                                       tmp_path):
        train, _ = vertical_pair(n=400, d=10, seed=5)
        cfg = TrainConfig(
            mode=Mode.ASYNC_PS, batch_size=32, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=3, seed=3, shape=SMALL_SHAPE,
        )
        use_transport(monkeypatch, transport)
        starts = tmp_path / "starts"
        log_calls(monkeypatch, threading.Thread, "start", starts, lambda thread: thread.name)
        result = run_training(train, None, cfg)

        assert result.summary.epochs_run == 3
        started = logged_workers(starts)
        parent = started.pop(os.getpid())
        if transport == "process":
            assert parent == ["active-0", "active-1"]
            assert list(started.values()) == [["passive-0", "passive-1"]]  # the one child
        else:
            assert parent == ["active-0", "active-1", "passive-0", "passive-1"]
            assert started == {}

    def test_a_pool_hands_every_epoch_to_every_worker_once(self):
        # More workers than CPUs and a short switch interval, so hand-offs
        # interleave; one epoch fails, and the pool serves the next ones.
        workers, epochs, failing = 8, 200, 50
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        broker = bk.Broker(1, 1, 1)
        pool = runtime.WorkerPool("stress", workers)
        ran, failures = [], []
        try:
            for epoch in range(1, epochs + 1):
                shared = EpochShared(broker, epoch)
                seen = []

                def body(w, stats):
                    seen.append(w)
                    stats.completed += 1
                    if epoch == failing and w == 3:
                        raise RuntimeError("injected")

                total = pool.run(shared, body)
                ran.append((sorted(seen) == list(range(workers)), total.completed))
                if shared.failure is not None:
                    failures.append(str(shared.failure))
        finally:
            pool.close()
            sys.setswitchinterval(interval)
        assert ran == [(True, workers)] * epochs
        assert failures == [f"injected [stress worker 3, epoch {failing}, batch None]"]

    @pytest.mark.parametrize("side", ["active", "passive"])
    @pytest.mark.parametrize("mode", [Mode.ASYNC_PS, Mode.SYNC_PS])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_a_worker_failure_in_a_later_epoch_leaves_no_thread(self, transport, mode, side,
                                                              monkeypatch):
        # sync_ps waits never expire and its workers meet at barriers, so
        # only the closed bus can end the other party's epoch.  The child
        # must then exit by itself, not be killed after its join timeout.
        train, _ = vertical_pair(n=400, d=10, seed=5)
        cfg = TrainConfig(
            mode=mode, batch_size=32, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=3, seed=3, shape=SMALL_SHAPE,
        )
        use_transport(monkeypatch, transport)
        engine, step = ((ActiveEngine, "_process_batch") if side == "active"
                        else (PassiveEngine, "_publish_embedding"))
        real_step = getattr(engine, step)

        def failing_step(self, *args):
            result = real_step(self, *args)  # which names the batch
            if args[-2].epoch == 2:  # both steps take (..., shared, stats)
                raise RuntimeError("injected epoch-2 failure")
            return result

        monkeypatch.setattr(engine, step, failing_step)
        exits, real_close = [], tp.PassiveProcess.close

        def recording_close(self):
            real_close(self)
            exits.append(self._process.exitcode)

        monkeypatch.setattr(tp.PassiveProcess, "close", recording_close)
        baseline = threading.active_count()
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="injected epoch-2 failure") as failure:
            run_training(train, None, cfg)
        assert time.perf_counter() - started < 5.0
        assert re.search(rf"\[{side} worker [01], epoch 2, batch \d+\]", str(failure.value))
        assert exits == ([0] if transport == "process" else [])
        assert threading.active_count() == baseline
        assert multiprocessing.active_children() == []

    def test_an_epoch_ends_without_a_handshake_and_loses_nothing(self, monkeypatch):
        # Each active batch outlasts the passive deadline, so passive workers
        # give up batches whose gradients the active pool still publishes,
        # some after the child has sent its epoch result.  Each late gradient
        # stays unread in its slot until the child's next epoch flushes it.
        brokers = capture_brokers(monkeypatch)
        train, _ = vertical_pair(n=800, d=10, seed=5)
        cfg = TrainConfig(
            mode=Mode.ASYNC_PS, batch_size=32, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=3, seed=3, shape=SMALL_SHAPE, lookahead=4,
            deadline_seconds=0.002, skew_active_seconds=0.005, max_retries=1,
        )
        use_transport(monkeypatch, "process")
        settled, real_finish = [], tp.PassiveProcess.finish

        def checking_finish(self):
            # Once the child's result is in, nothing moves the counters.
            result = real_finish(self)
            (broker,) = brokers
            before = broker.stats()
            time.sleep(0.02)
            settled.append((before == broker.stats(), before.conserved()))
            return result

        monkeypatch.setattr(tp.PassiveProcess, "finish", checking_finish)
        result = run_training(train, None, cfg)

        (broker,) = brokers
        assert settled == [(True, True)] * 3
        assert broker.stats().conserved()
        assert all(math.isfinite(loss) for loss in result.epoch_train_losses)
        grads = broker._mailbox._slots[1, :, :tp._ROWS]  # the gradient slots' counters
        landed, delivered = grads[:, tp._SEQ].sum(), grads[:, tp._DELIVERED].sum()
        residual = np.count_nonzero(grads[:, tp._SEQ] != grads[:, tp._READ])
        flushed, evicted = grads[:, tp._FLUSHED].sum(), grads[:, tp._EVICTED].sum()
        # One gradient per batch the active pool completed, one applied per
        # batch a passive worker completed; the rest landed late.
        assert landed == sum(row["active_completed"] for row in result.party_stats)
        assert delivered == sum(row["passive_completed"] for row in result.party_stats)
        assert landed - delivered > 0 and evicted == 0
        assert flushed > 0  # late gradients of an earlier epoch, caught by the next epoch's flush
        assert flushed + residual == landed - delivered


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
        checked = []
        real_finish = tp.PassiveProcess.finish

        def checking_finish(self):
            # Between epochs, in the parent: every embedding slot, written
            # twice, delivers only its newest message and counts the other
            # as published and evicted.
            result = real_finish(self)
            (broker,) = brokers
            before = broker.stats()
            newest = []
            for batch_id in range(broker.num_channels):
                for fill in (1.0, 2.0):
                    broker.publish(bk.ChannelMessage(
                        bk.MessageKind.EMBEDDING, batch_id,
                        np.full((2, SMALL_SHAPE.passive_embed), fill), (0, 2), 0, 0))
                got = broker.subscribe(bk.MessageKind.EMBEDDING, batch_id, 0.0)
                newest.append(got.message.payload[0, 0])
            after, n = broker.stats(), broker.num_channels
            checked.append((newest == [2.0] * n, after.published - before.published == 2 * n,
                            after.evicted - before.evicted == n,
                            after.delivered - before.delivered == n, after.conserved()))
            return result

        monkeypatch.setattr(tp.PassiveProcess, "finish", checking_finish)
        transport = run_training(train, None, cfg).summary.transport
        (broker,) = brokers  # a forked child works on a copy of this one
        if transport == "thread":
            assert {channel.capacity for channel in broker._channels.values()} == {1}
        else:
            assert checked == [(True,) * 5] and broker._channels == {}

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

    @pytest.mark.parametrize("mode, workers, transport, timing", [
        (Mode.LOCKSTEP, 1, "thread", {}),
        # The active party outlasts the passive deadline, so passive retries
        # republish embeddings that the active party has not yet taken.
        (Mode.ASYNC_PS, 2, "process",
         dict(deadline_seconds=0.003, skew_active_seconds=0.006, lookahead=4)),
    ])
    def test_run_totals_are_the_epoch_counters(self, mode, workers, transport, timing):
        train, _ = vertical_pair(n=800, d=10, seed=5)
        cfg = TrainConfig(
            mode=mode, batch_size=32, workers_active=workers, workers_passive=workers,
            learning_rate=0.05, epochs=3, seed=3, shape=SMALL_SHAPE, max_retries=6, **timing,
        )
        result = run_training(train, None, cfg)
        summary = result.summary
        assert summary.transport == transport
        assert summary.total_bytes_published == result.epochs[-1].bytes_published > 0
        assert summary.total_evictions == sum(row.evictions for row in result.epochs)
        assert (summary.total_evictions > 0) == bool(timing)


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

    def test_a_rendezvous_pool_whose_bus_closed_does_not_hang(self):
        # Batch 0 completes, so worker 0 waits at the barrier for worker 1,
        # whose gradient never comes.  The bus closes with no EpochShared.fail,
        # as when the other party fails: only worker 1's wake-up on the closed
        # bus can free the barrier.
        train, _ = vertical_pair(n=160, d=10, seed=4)
        plan = plan_for_epoch(train.num_rows, 40, 4, epoch=1)
        passive_init, _, _ = build_models(
            SMALL_SHAPE, 5, train.passive_features.shape[1], train.task, 4
        )
        broker = bk.Broker(plan.num_batches, 1, 1)
        engine = PassiveEngine(
            train.passive_features, passive_init, num_workers=2, eta=0.05,
            sigma=0.0, noise_seed=0,
        )
        shared = EpochShared(broker, epoch=1)
        barrier = threading.Barrier(2)
        shared.add_barrier(barrier)
        queue = WorkQueue([b.batch_id for b in plan.batches], barrier)

        def answer_batch_0_then_close():
            embedding = broker.subscribe(bk.MessageKind.EMBEDDING, 0, 5.0).message
            broker.publish(bk.ChannelMessage(
                bk.MessageKind.GRADIENT, 0, np.zeros_like(embedding.payload),
                embedding.sample_range, sender_worker=0, param_version=0,
            ))
            broker.close()

        baseline = threading.active_count()
        helper = threading.Thread(target=answer_batch_0_then_close)
        epoch = threading.Thread(target=engine.run_epoch,
                                 args=(plan, queue, shared, None, 1))
        started = time.perf_counter()
        helper.start()
        epoch.start()
        epoch.join(5.0)
        hung = epoch.is_alive()
        barrier.abort()  # frees a hung pool, so a failure here does not hang the suite
        epoch.join()
        helper.join()
        assert not hung and time.perf_counter() - started < 5.0
        assert isinstance(shared.failure, tp.PeerGone), shared.failure
        assert "[passive worker 1, epoch 1, batch 1]" in str(shared.failure)
        assert threading.active_count() == baseline


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
            run_within(5.0, run_training, train, None, cfg)
        assert time.perf_counter() - started < 5.0
        assert f"code {-signal.SIGKILL}" in str(failure.value)
        assert "[passive party, epoch 1]" in str(failure.value)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == baseline
        if os.path.isdir("/dev/shm"):
            assert set(os.listdir("/dev/shm")) == shm_before

    def test_child_killed_holding_the_mailbox_lock_ends_a_free_running_run(
        self, monkeypatch
    ):
        # The child dies in the middle of a slot write, so the lock of the
        # embedding slots stays held; the parent's workers wait for it and
        # must give up once the pipe's EOF says the peer is gone.
        train, _ = vertical_pair(n=800, d=10, seed=3)
        cfg = TrainConfig(
            mode=Mode.ASYNC_PS, batch_size=20, workers_active=2, workers_passive=2,
            learning_rate=0.05, epochs=2, seed=5, shape=SMALL_SHAPE,
        )
        parent = os.getpid()
        real_store, stores = tp.Mailbox._store, []

        def killing_store(self, k, message):
            if os.getpid() != parent:
                stores.append(None)
                if len(stores) == 12:  # mid-epoch, after the active pool started
                    os.kill(os.getpid(), signal.SIGKILL)
            return real_store(self, k, message)

        monkeypatch.setattr(tp.Mailbox, "_store", killing_store)
        baseline = threading.active_count()
        started = time.perf_counter()
        with pytest.raises(tp.PeerGone, match=r"passive party") as failure:
            run_within(5.0, run_training, train, None, cfg)
        assert time.perf_counter() - started < 5.0
        assert f"code {-signal.SIGKILL}" in str(failure.value)
        assert "[passive party, epoch 1]" in str(failure.value)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == baseline

    def test_peer_failure_does_not_wait_for_the_mailbox_lock(self):
        # A peer killed while it writes a slot leaves the shared lock held.
        # The receiver's EOF path must not need that lock, and a worker
        # waiting for it must give up once the peer is gone.
        ours, theirs = multiprocessing.Pipe()
        broker = bk.Broker(1, 1, 1)
        mailbox = tp.Mailbox(1, 2, 3, 1)
        link = tp.Link(ours, mailbox, peer="passive")
        broker.connect(mailbox, bk.MessageKind.EMBEDDING)
        gradient = bk.ChannelMessage(bk.MessageKind.GRADIENT, 0, np.ones((2, 3)), (0, 2), 0, 0)
        results = []
        with mailbox._lock(0, 0), mailbox._lock(1, 0):  # as the dead peer left them
            workers = [
                threading.Thread(target=broker.publish, args=(gradient,), daemon=True),
                threading.Thread(target=lambda: results.append(
                    broker.subscribe(bk.MessageKind.EMBEDDING, 0, None)), daemon=True),
            ]
            for worker in workers:
                worker.start()
            link.start()
            theirs.close()  # the peer's end goes, as when its process dies
            link._receiver.join(2.0)
            blocked = link._receiver.is_alive()
            for worker in workers:
                worker.join(2.0)
            stuck = [worker.is_alive() for worker in workers]
        link.close()
        assert not blocked and stuck == [False, False]
        assert mailbox.peer_gone and link.recv_control() is None
        assert [r.outcome for r in results] == [bk.SubscribeOutcome.CLOSED]

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
