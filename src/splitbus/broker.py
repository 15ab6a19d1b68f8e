"""Pub/sub bus with one embedding and one gradient channel per batch id.

Channels are bounded FIFO buffers: a publish into a full channel silently
evicts the oldest message (the staleness backstop), a publish into a closed
channel is dropped, and a subscribe consumes the oldest live message or gives
up when its waiting deadline expires.  Each channel carries its own lock —
there is no global lock on the hot path — and all counters needed for the
conservation invariant

    published == delivered + evicted + flushed + dropped_closed + residual

are kept per channel and aggregated on demand.

Payload bytes are accounted as :func:`payload_byte_size`: a (rows, cols)
header of two uint64 plus the row-major float64 payload, the size of the
message whichever way it travels.

When the two parties run in two processes, each process holds a copy of
the run's broker, connected by :meth:`Broker.connect` to a shared-memory
mailbox (:class:`splitbus.transport.Mailbox`) that holds one slot per kind
and batch id.  A connected broker builds no channels and calls the mailbox
itself: every publish is written into its slot, a subscribe to the kind
this process consumes takes the slot's newest message, and a subscribe to
the other kind raises ``KeyError``.  The mailbox counts each slot as a
channel of capacity one, so a message overwritten unread is published and
evicted, and keeps the counters in the shared region, so
:meth:`Broker.stats` of either process counts both.  So does its closed
flag: :meth:`Broker.close` of either copy closes the bus for both.
"""

from __future__ import annotations

import enum
import functools
import math
import threading
import time
from dataclasses import dataclass

import numpy as np

# Bytes of a message's (rows, cols) header, two uint64.
_HEADER_BYTES = 16


class MessageKind(enum.Enum):
    EMBEDDING = "embedding"
    GRADIENT = "gradient"


class SubscribeOutcome(enum.Enum):
    DELIVERED = "delivered"
    EXPIRED = "expired"  # waiting deadline passed with no message
    CLOSED = "closed"  # broker shut down while waiting


@dataclass
class ChannelMessage:
    kind: MessageKind
    batch_id: int
    payload: np.ndarray
    sample_range: tuple[int, int]
    sender_worker: int
    param_version: int
    # Monotonic clock, stamped by every publish that lands.
    publish_time: float = 0.0


@dataclass
class SubscribeResult:
    outcome: SubscribeOutcome
    message: ChannelMessage | None
    waited_seconds: float


def payload_byte_size(rows: int, cols: int) -> int:
    """Bytes of a (rows, cols) message: its header plus the float64 payload."""
    return _HEADER_BYTES + 8 * rows * cols


def channel_count_for(num_rows: int, batch_size: int) -> int:
    """ceil(n / B): one embedding + one gradient channel per batch id."""
    if num_rows < 1 or batch_size < 1:
        raise ValueError("num_rows and batch_size must be positive")
    return math.ceil(num_rows / batch_size)


@dataclass
class _ChannelCounters:
    published: int = 0
    delivered: int = 0
    evicted: int = 0
    flushed: int = 0
    dropped_closed: int = 0  # published after close(); never buffered
    bytes_published: int = 0


class ChannelBuffer:
    """One bounded FIFO channel guarded by its own condition variable."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._messages: list[ChannelMessage] = []
        self._cond = threading.Condition()
        self.counters = _ChannelCounters()
        self._closed = False

    def publish(self, message: ChannelMessage) -> None:
        with self._cond:
            self.counters.published += 1
            if self._closed:
                self.counters.dropped_closed += 1
                return
            message.publish_time = time.monotonic()
            if len(self._messages) == self.capacity:
                self._messages.pop(0)
                self.counters.evicted += 1
            self._messages.append(message)
            self.counters.bytes_published += payload_byte_size(*message.payload.shape)
            self._cond.notify_all()

    def consume(self, timeout: float | None) -> SubscribeResult:
        """Take the oldest message; block up to ``timeout`` seconds (None = forever)."""
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        with self._cond:
            while True:
                if self._messages:
                    msg = self._messages.pop(0)
                    self.counters.delivered += 1
                    return SubscribeResult(
                        SubscribeOutcome.DELIVERED, msg, time.monotonic() - start
                    )
                if self._closed:
                    return SubscribeResult(
                        SubscribeOutcome.CLOSED, None, time.monotonic() - start
                    )
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        return SubscribeResult(
                            SubscribeOutcome.EXPIRED, None, time.monotonic() - start
                        )
                    self._cond.wait(remaining)

    def flush(self) -> int:
        with self._cond:
            dropped = len(self._messages)
            self._messages.clear()
            self.counters.flushed += dropped
            return dropped

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def size(self) -> int:
        with self._cond:
            return len(self._messages)


@dataclass
class BrokerStats:
    published: int
    delivered: int
    evicted: int
    flushed: int
    dropped_closed: int  # published after close(); never buffered
    residual: int
    bytes_published: int  # dropped publishes add no bytes

    def conserved(self) -> bool:
        return self.published == (
            self.delivered + self.evicted + self.flushed + self.dropped_closed + self.residual
        )


class Broker:
    """All embedding/gradient channels for one training run."""

    def __init__(self, num_channels: int, embed_capacity: int, grad_capacity: int):
        if num_channels < 1:
            raise ValueError("need at least one channel")
        self.num_channels = num_channels
        self._capacity = {MessageKind.EMBEDDING: embed_capacity,
                          MessageKind.GRADIENT: grad_capacity}
        self._mailbox = None  # shared with a peer process; see connect()
        self._inbound: MessageKind | None = None  # the kind this process consumes

    @functools.cached_property
    def _channels(self) -> dict[tuple[MessageKind, int], ChannelBuffer]:
        """Built on first use; a connected broker has none."""
        return {(kind, batch_id): ChannelBuffer(self._capacity[kind])
                for batch_id in range(self.num_channels) for kind in MessageKind}

    def connect(self, mailbox, inbound: MessageKind) -> None:
        """Serve this broker from ``mailbox``, shared with the peer process.

        Call it before any other method.  ``inbound`` is the kind this
        process consumes and flushes.  ``close`` closes the mailbox, for
        the peer's copy too, and wakes every waiter of both processes.
        """
        self._mailbox, self._inbound = mailbox, inbound
        self._channels = {}

    def _channel(self, kind: MessageKind, batch_id: int) -> ChannelBuffer:
        try:
            return self._channels[(kind, batch_id)]
        except KeyError:
            raise KeyError(f"no {kind.value} channel for batch id {batch_id}") from None

    def publish(self, message: ChannelMessage) -> None:
        if self._mailbox is not None:
            self._mailbox.write(message)
        else:
            self._channel(message.kind, message.batch_id).publish(message)

    def subscribe(
        self, kind: MessageKind, batch_id: int, timeout: float | None
    ) -> SubscribeResult:
        if kind is self._inbound and 0 <= batch_id < self.num_channels:
            return self._mailbox.read(kind, batch_id, timeout)
        return self._channel(kind, batch_id).consume(timeout)

    def flush_all(self) -> int:
        if self._mailbox is not None:
            return self._mailbox.flush(self._inbound)
        return sum(channel.flush() for channel in self._channels.values())

    def close(self) -> None:
        for channel in self._channels.values():
            channel.close()
        if self._mailbox is not None:
            self._mailbox.close()

    def stats(self) -> BrokerStats:
        if self._mailbox is not None:
            return self._mailbox.stats()
        published = delivered = evicted = flushed = dropped = residual = nbytes = 0
        for channel in self._channels.values():
            with channel._cond:
                published += channel.counters.published
                delivered += channel.counters.delivered
                evicted += channel.counters.evicted
                flushed += channel.counters.flushed
                dropped += channel.counters.dropped_closed
                residual += len(channel._messages)
                nbytes += channel.counters.bytes_published
        return BrokerStats(published, delivered, evicted, flushed, dropped, residual, nbytes)
