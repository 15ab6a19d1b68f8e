"""Broker tests: FIFO bounds, deadlines, byte accounting, concurrent conservation."""

import math
import threading
import time

import numpy as np
import pytest

from splitbus import broker as bk

from oracles import deserialize_payload, serialize_payload


def _msg(batch_id=0, kind=bk.MessageKind.EMBEDDING, rows=2, cols=3, fill=1.0,
         sample_range=(0, 2), sender=0, version=0):
    payload = np.full((rows, cols), fill)
    return bk.ChannelMessage(kind, batch_id, payload, sample_range, sender, version)


def test_channel_count_matches_ceiling():
    assert bk.channel_count_for(1000, 256) == 4
    assert bk.channel_count_for(60021, 512) == 118
    assert bk.channel_count_for(77, 77) == 1
    for n in (1, 5, 255, 256, 257, 1000):
        assert bk.channel_count_for(n, 256) == math.ceil(n / 256)


def test_serialization_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    for rows, cols in ((1, 1), (3, 7), (256, 8)):
        payload = rng.normal(size=(rows, cols))
        blob = serialize_payload(payload)
        assert len(blob) == bk.payload_byte_size(rows, cols) == 16 + 8 * rows * cols
        back = deserialize_payload(blob)
        assert back.dtype == np.float64
        assert np.array_equal(back, payload)


def test_fifo_eviction_drops_oldest_once_full():
    channel = bk.ChannelBuffer(capacity=5)
    for i in range(6):
        channel.publish(_msg(fill=float(i)))
    assert channel.counters.published == 6
    assert channel.counters.evicted == 1
    assert channel.size() == 5
    first = channel.consume(timeout=0.0)
    # message 0 was evicted; the oldest survivor is message 1
    assert first.outcome is bk.SubscribeOutcome.DELIVERED
    assert first.message.payload[0, 0] == 1.0


def test_consume_removes_message():
    channel = bk.ChannelBuffer(capacity=3)
    channel.publish(_msg())
    assert channel.consume(timeout=0.0).outcome is bk.SubscribeOutcome.DELIVERED
    assert channel.consume(timeout=0.0).outcome is bk.SubscribeOutcome.EXPIRED


def test_deadline_expiry_waits_roughly_the_deadline():
    channel = bk.ChannelBuffer(capacity=1)
    t0 = time.monotonic()
    result = channel.consume(timeout=0.05)
    elapsed = time.monotonic() - t0
    assert result.outcome is bk.SubscribeOutcome.EXPIRED
    assert result.message is None
    assert 0.05 <= elapsed < 0.15  # deadline plus generous scheduler jitter


def test_blocked_subscriber_wakes_on_publish():
    channel = bk.ChannelBuffer(capacity=1)
    got = {}

    def waiter():
        got["result"] = channel.consume(timeout=5.0)

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.02)
    channel.publish(_msg(fill=7.0))
    thread.join(timeout=5.0)
    assert got["result"].outcome is bk.SubscribeOutcome.DELIVERED
    assert got["result"].message.payload[0, 0] == 7.0
    assert got["result"].waited_seconds >= 0.01


def test_close_unblocks_waiters():
    channel = bk.ChannelBuffer(capacity=1)
    results = []
    thread = threading.Thread(target=lambda: results.append(channel.consume(timeout=10.0)))
    thread.start()
    time.sleep(0.02)
    channel.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert results[0].outcome is bk.SubscribeOutcome.CLOSED


def test_publish_stamps_monotonic_nondecreasing_times():
    channel = bk.ChannelBuffer(capacity=10)
    for i in range(5):
        channel.publish(_msg(fill=float(i)))
    times = [channel.consume(0.0).message.publish_time for _ in range(5)]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_republishing_a_consumed_message_stamps_it_again():
    channel = bk.ChannelBuffer(capacity=1)
    message = _msg()
    channel.publish(message)
    first = channel.consume(0.0).message.publish_time
    time.sleep(0.002)
    channel.publish(message)
    assert channel.consume(0.0).message.publish_time >= first + 0.002


def test_broker_routes_by_kind_and_batch_id():
    broker = bk.Broker(num_channels=3, embed_capacity=2, grad_capacity=2)
    broker.publish(_msg(batch_id=2, kind=bk.MessageKind.EMBEDDING, fill=1.0))
    broker.publish(_msg(batch_id=2, kind=bk.MessageKind.GRADIENT, fill=2.0))
    emb = broker.subscribe(bk.MessageKind.EMBEDDING, 2, timeout=0.0)
    grad = broker.subscribe(bk.MessageKind.GRADIENT, 2, timeout=0.0)
    assert emb.message.payload[0, 0] == 1.0
    assert grad.message.payload[0, 0] == 2.0
    assert broker.subscribe(bk.MessageKind.EMBEDDING, 0, 0.0).outcome is bk.SubscribeOutcome.EXPIRED
    with pytest.raises(KeyError):
        broker.subscribe(bk.MessageKind.EMBEDDING, 99, timeout=0.0)


def test_byte_counter_matches_independent_serialization_tally():
    broker = bk.Broker(num_channels=2, embed_capacity=5, grad_capacity=5)
    rng = np.random.default_rng(1)
    expected = 0
    for i in range(12):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        payload = rng.normal(size=(rows, cols))
        expected += len(serialize_payload(payload))
        broker.publish(
            bk.ChannelMessage(
                bk.MessageKind.EMBEDDING, i % 2, payload, (0, rows), 0, 0
            )
        )
    assert broker.stats().bytes_published == expected


def test_flush_all_counts_into_conservation():
    broker = bk.Broker(num_channels=2, embed_capacity=5, grad_capacity=5)
    for i in range(4):
        broker.publish(_msg(batch_id=i % 2))
    broker.subscribe(bk.MessageKind.EMBEDDING, 0, timeout=0.0)
    flushed = broker.flush_all()
    stats = broker.stats()
    assert flushed == 3
    assert stats.published == 4
    assert stats.delivered == 1
    assert stats.flushed == 3
    assert stats.residual == 0
    assert stats.conserved()


def test_publish_after_close_is_dropped_and_counted():
    broker = bk.Broker(num_channels=2, embed_capacity=5, grad_capacity=5)
    broker.publish(_msg(batch_id=0))
    broker.close()
    broker.publish(_msg(batch_id=1, kind=bk.MessageKind.GRADIENT))
    broker.publish(_msg(batch_id=0))
    stats = broker.stats()
    assert stats.published == 3
    assert stats.dropped_closed == 2
    assert stats.residual == 1  # the one publish that beat close()
    assert stats.bytes_published == bk.payload_byte_size(2, 3)
    assert stats.conserved()
    outcome = broker.subscribe(bk.MessageKind.GRADIENT, 1, timeout=0.0).outcome
    assert outcome is bk.SubscribeOutcome.CLOSED


def test_concurrent_stress_no_loss_no_fabrication():
    """8 publishers / 8 subscribers, 10k messages, tight capacities.

    Checks: no duplicate deliveries, nothing delivered that was not
    published, per-channel capacity never exceeded, and the conservation
    identity holds once the bus is quiescent.
    """
    channels = 8
    per_publisher = 1250
    broker = bk.Broker(num_channels=channels, embed_capacity=5, grad_capacity=5)
    delivered: list[tuple[int, int]] = []
    delivered_lock = threading.Lock()
    stop = threading.Event()

    def publisher(pub_id: int):
        rng = np.random.default_rng(pub_id)
        for i in range(per_publisher):
            payload = np.full((1, 2), float(pub_id * per_publisher + i))
            broker.publish(
                bk.ChannelMessage(
                    bk.MessageKind.EMBEDDING,
                    int(rng.integers(0, channels)),
                    payload,
                    (0, 1),
                    pub_id,
                    i,
                )
            )

    def subscriber(sub_id: int):
        rng = np.random.default_rng(1000 + sub_id)
        while not stop.is_set():
            res = broker.subscribe(
                bk.MessageKind.EMBEDDING, int(rng.integers(0, channels)), timeout=0.01
            )
            if res.outcome is bk.SubscribeOutcome.DELIVERED:
                tag = int(res.message.payload[0, 0])
                with delivered_lock:
                    delivered.append((res.message.sender_worker, tag))

    subs = [threading.Thread(target=subscriber, args=(s,)) for s in range(8)]
    pubs = [threading.Thread(target=publisher, args=(p,)) for p in range(8)]
    for t in subs + pubs:
        t.start()
    for t in pubs:
        t.join()
    time.sleep(0.3)  # let subscribers drain whatever is left
    stop.set()
    for t in subs:
        t.join()

    stats = broker.stats()
    assert stats.published == 8 * per_publisher
    tags = [tag for _, tag in delivered]
    assert len(tags) == len(set(tags)), "duplicate delivery"
    assert all(0 <= tag < 8 * per_publisher for tag in tags), "fabricated message"
    assert stats.delivered == len(delivered)
    assert stats.conserved(), f"conservation violated: {stats}"
    # capacity bound: whatever is left in any channel respects its capacity
    for channel in broker._channels.values():
        assert channel.size() <= channel.capacity
