"""A guided tour of the message broker, one behavior at a time.

Everything that crosses the party boundary travels through per-batch-id
channels: embeddings one way, gradients the other.  Channels are bounded
FIFO buffers — a full channel evicts its oldest message — and every
subscribe carries a deadline so nobody can be parked forever.  The broker
keeps audited counters; at any instant

    published == delivered + evicted + flushed + dropped-after-close + still-buffered

Run:  python3 demos/04_broker_mechanics.py
"""

import threading
import time

import numpy as np

from splitbus.broker import (
    Broker,
    ChannelMessage,
    MessageKind,
    SubscribeOutcome,
    channel_count_for,
)


def message(kind, batch_id, tag, worker=0):
    return ChannelMessage(
        kind=kind, batch_id=batch_id, payload=np.full((2, 2), float(tag)),
        sample_range=(0, 2), sender_worker=worker, param_version=tag,
    )


def show(stats):
    print(f"     counters: published={stats.published} delivered={stats.delivered} "
          f"evicted={stats.evicted} flushed={stats.flushed} "
          f"dropped_closed={stats.dropped_closed} buffered={stats.residual}"
          f"   conserved={stats.conserved()}")


def main():
    print("1. channel layout")
    rows, batch = 1000, 256
    k = channel_count_for(rows, batch)
    print(f"   {rows} rows at batch size {batch} -> {k} batch ids, so the broker")
    print(f"   opens {k} embedding channels and {k} gradient channels\n")

    broker = Broker(num_channels=k, embed_capacity=2, grad_capacity=2)

    print("2. FIFO delivery")
    for tag in (10, 11):
        broker.publish(message(MessageKind.EMBEDDING, 0, tag))
    first = broker.subscribe(MessageKind.EMBEDDING, 0, timeout=0.0)
    second = broker.subscribe(MessageKind.EMBEDDING, 0, timeout=0.0)
    print(f"   published tags 10, 11; delivered {first.message.param_version} "
          f"then {second.message.param_version} (oldest first)")
    show(broker.stats())

    print("\n3. bounded capacity (capacity 2 here)")
    for tag in (20, 21, 22):
        broker.publish(message(MessageKind.EMBEDDING, 1, tag))
    print("   published tags 20, 21, 22 into one channel: the oldest was evicted")
    got = broker.subscribe(MessageKind.EMBEDDING, 1, timeout=0.0)
    print(f"   next delivery is tag {got.message.param_version}, not 20")
    show(broker.stats())

    print("\n4. deadlines: a subscribe that nobody answers")
    started = time.perf_counter()
    expired = broker.subscribe(MessageKind.GRADIENT, 2, timeout=0.05)
    waited = time.perf_counter() - started
    print(f"   outcome={expired.outcome.name} after {waited * 1000:.0f} ms "
          f"(asked for 50 ms); the caller can requeue or skip the batch")

    print("\n5. deadlines: the answer arrives mid-wait")
    def late_publisher():
        time.sleep(0.02)
        broker.publish(message(MessageKind.GRADIENT, 3, 30))
    threading.Thread(target=late_publisher).start()
    res = broker.subscribe(MessageKind.GRADIENT, 3, timeout=0.5)
    print(f"   outcome={res.outcome.name} after {res.waited_seconds * 1000:.0f} ms "
          f"of a 500 ms allowance (woken early, no busy polling)")

    print("\n6. epoch boundary: flush clears stale traffic, counters stay audited")
    broker.publish(message(MessageKind.EMBEDDING, 0, 40))
    dropped = broker.flush_all()
    print(f"   flush_all() dropped {dropped} message(s)")
    show(broker.stats())

    print("\n7. close() wakes every blocked worker")
    outcomes = []
    def parked_worker():
        outcomes.append(broker.subscribe(MessageKind.EMBEDDING, 1, timeout=None))
    thread = threading.Thread(target=parked_worker)
    thread.start()
    time.sleep(0.05)
    broker.close()
    thread.join(timeout=2.0)
    print(f"   a worker blocked with no deadline saw outcome={outcomes[0].outcome.name}")
    assert outcomes[0].outcome is SubscribeOutcome.CLOSED
    print("   (this is how a failing run unblocks everyone for a clean shutdown)")
    broker.publish(message(MessageKind.GRADIENT, 1, 50))
    print("   a publish after close() is dropped, and counted:")
    show(broker.stats())


if __name__ == "__main__":
    main()
