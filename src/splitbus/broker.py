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
the run's broker, and :meth:`Broker.connect` keeps in it only the channels
of the kind that process consumes.  Publishes of the other kind go to the
link, which writes them into a shared-memory slot of the peer
(:class:`splitbus.transport.Mailbox`); a subscribe to that kind raises
``KeyError``.  A kept channel is fed from this process's slots: a subscribe
first pulls the slot's newest message into the channel, counted there as
published (and any message it overwrote unread as published and evicted),
and then consumes as usual; :meth:`Broker.stats` and :meth:`Broker.flush_all`
pull every slot first, and :meth:`Broker.stats` adds the peer's last counters.
"""

from __future__ import annotations

import enum
import math
import threading
import time
from dataclasses import astuple, dataclass

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
    # Monotonic clock, stamped by the first publish; a message from the peer
    # process keeps the peer's stamp (the clock is system-wide).
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

    def publish(self, message: ChannelMessage, superseded: int = 0) -> None:
        """Buffer ``message``; ``superseded`` more of its size were overwritten
        before they reached the channel, and count as published and evicted."""
        size = payload_byte_size(*message.payload.shape)
        with self._cond:
            self.counters.published += 1 + superseded
            self.counters.evicted += superseded
            self.counters.bytes_published += superseded * size
            if self._closed:
                self.counters.dropped_closed += 1
                return
            if not message.publish_time:
                message.publish_time = time.monotonic()
            if len(self._messages) == self.capacity:
                self._messages.pop(0)
                self.counters.evicted += 1
            self._messages.append(message)
            self.counters.bytes_published += size
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

    @property
    def closed(self) -> bool:
        return self._closed

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
        self._channels: dict[tuple[MessageKind, int], ChannelBuffer] = {}
        for batch_id in range(num_channels):
            self._channels[(MessageKind.EMBEDDING, batch_id)] = ChannelBuffer(embed_capacity)
            self._channels[(MessageKind.GRADIENT, batch_id)] = ChannelBuffer(grad_capacity)
        self._link = None  # a peer process's link; see connect()
        self._inbound: MessageKind | None = None  # the kind the peer feeds; see connect()
        self._peer_stats: BrokerStats | None = None

    def connect(self, link) -> None:
        """Feed this process's channels of ``link.inbound`` from the peer
        process, send publishes of the other kind to it through ``link``, and
        drop this process's channels of that other kind, which the peer holds.

        The hooks: ``link.inbound`` is the kind this process consumes;
        ``link.send(message)`` writes a message into the peer's slot;
        ``link.pull(kind, batch_id, channel)`` moves the newest unread
        message of this process's slot into ``channel``;
        ``link.pull_all(kind, channels)`` does so for every batch id;
        ``link.wait(kind, batch_id, channel, deadline)`` blocks until that
        slot has news, ``channel`` closes or the monotonic ``deadline``
        (None: never) passes; ``link.send_close()`` wakes this process's
        waiters and closes the peer's side.
        """
        self._link, self._inbound = link, link.inbound
        self._channels = {key: ch for key, ch in self._channels.items() if key[0] is self._inbound}

    def set_peer_stats(self, stats: BrokerStats) -> None:
        """The peer's cumulative channel counters, added into :meth:`stats`."""
        self._peer_stats = stats

    def _channel(self, kind: MessageKind, batch_id: int) -> ChannelBuffer:
        try:
            return self._channels[(kind, batch_id)]
        except KeyError:
            raise KeyError(f"no {kind.value} channel for batch id {batch_id}") from None

    def publish(self, message: ChannelMessage) -> None:
        if self._link is not None and message.kind is not self._inbound:
            self._link.send(message)
        else:
            self._channel(message.kind, message.batch_id).publish(message)

    def subscribe(
        self, kind: MessageKind, batch_id: int, timeout: float | None
    ) -> SubscribeResult:
        channel = self._channel(kind, batch_id)
        if kind is not self._inbound:
            return channel.consume(timeout)
        start = time.monotonic()
        self._link.pull(kind, batch_id, channel)
        result = channel.consume(0.0)
        if result.outcome is SubscribeOutcome.EXPIRED and timeout != 0.0:
            deadline = None if timeout is None else start + timeout
            self._link.wait(kind, batch_id, channel, deadline)
            result = channel.consume(0.0)
        result.waited_seconds = time.monotonic() - start
        return result

    def _pull_all(self) -> None:
        if self._link is not None:
            kind = self._inbound
            self._link.pull_all(kind, [self._channels[(kind, b)] for b in range(self.num_channels)])

    def flush_all(self) -> int:
        self._pull_all()
        return sum(channel.flush() for channel in self._channels.values())

    def close(self) -> None:
        for channel in self._channels.values():
            channel.close()
        if self._link is not None:
            self._link.send_close()

    def stats(self) -> BrokerStats:
        self._pull_all()
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
        local = BrokerStats(published, delivered, evicted, flushed, dropped, residual, nbytes)
        if self._peer_stats is None:
            return local
        return BrokerStats(*(a + b for a, b in zip(astuple(local), astuple(self._peer_stats))))
