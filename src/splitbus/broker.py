"""Pub/sub bus with one embedding and one gradient channel per batch id.

Channels are bounded FIFO buffers: a publish into a full channel silently
evicts the oldest message (the staleness backstop), a publish into a closed
channel is dropped, and a subscribe consumes the oldest live message or gives
up when its waiting deadline expires.  Each channel carries its own lock —
there is no global lock on the hot path — and all counters needed for the
conservation invariant

    published == delivered + evicted + flushed + dropped_closed + residual

are kept per channel and aggregated on demand.

Payload bytes are accounted with the wire format used by
:func:`serialize_payload`: a (rows, cols) header of little-endian uint64
followed by the row-major float64 payload.

When the two parties run in two processes, each process holds the run's
broker and each channel lives in the process of its consumer.  A broker
connected to a peer (:meth:`Broker.connect`) hands publishes of the peer's
kind to the link, whose receiver publishes them into the peer's channel;
:meth:`Broker.stats` adds the counters the peer last reported.
"""

from __future__ import annotations

import enum
import math
import struct
import threading
import time
from dataclasses import astuple, dataclass

import numpy as np

_HEADER = struct.Struct("<QQ")


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
    publish_time: float = 0.0  # stamped by the broker (monotonic clock)


@dataclass
class SubscribeResult:
    outcome: SubscribeOutcome
    message: ChannelMessage | None
    waited_seconds: float


def serialize_payload(payload: np.ndarray) -> bytes:
    """Wire encoding: uint64-LE (rows, cols) header + float64-LE row-major data."""
    if payload.ndim != 2:
        raise ValueError("payload must be 2-D")
    rows, cols = payload.shape
    body = np.ascontiguousarray(payload, dtype="<f8").tobytes()
    return _HEADER.pack(rows, cols) + body


def deserialize_payload(blob: bytes) -> np.ndarray:
    rows, cols = _HEADER.unpack_from(blob, 0)
    expected = _HEADER.size + 8 * rows * cols
    if len(blob) != expected:
        raise ValueError(f"payload blob is {len(blob)} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    return data.reshape(rows, cols).astype(np.float64)


def payload_byte_size(rows: int, cols: int) -> int:
    """Size of the serialised payload; equals len(serialize_payload(...))."""
    return _HEADER.size + 8 * rows * cols


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
        rows, cols = message.payload.shape
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
            self.counters.bytes_published += payload_byte_size(rows, cols)
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
        self._channels: dict[tuple[MessageKind, int], ChannelBuffer] = {}
        for batch_id in range(num_channels):
            self._channels[(MessageKind.EMBEDDING, batch_id)] = ChannelBuffer(embed_capacity)
            self._channels[(MessageKind.GRADIENT, batch_id)] = ChannelBuffer(grad_capacity)
        self._link = None  # a peer process's link; see connect()
        self._remote_kind: MessageKind | None = None
        self._peer_stats: BrokerStats | None = None

    def connect(self, link, remote_kind: MessageKind) -> None:
        """Send publishes of ``remote_kind`` to the peer process through ``link``.

        ``link.send(message)`` ships a message and ``link.send_close()``
        closes the peer's side; the peer consumes ``remote_kind``, so those
        channels stay unused in this process.
        """
        self._link = link
        self._remote_kind = remote_kind

    def set_peer_stats(self, stats: BrokerStats) -> None:
        """The peer's cumulative channel counters, added into :meth:`stats`."""
        self._peer_stats = stats

    def _channel(self, kind: MessageKind, batch_id: int) -> ChannelBuffer:
        try:
            return self._channels[(kind, batch_id)]
        except KeyError:
            raise KeyError(f"no {kind.value} channel for batch id {batch_id}") from None

    def publish(self, message: ChannelMessage) -> None:
        if message.kind is self._remote_kind:
            self._link.send(message)
        else:
            self._channel(message.kind, message.batch_id).publish(message)

    def subscribe(
        self, kind: MessageKind, batch_id: int, timeout: float | None
    ) -> SubscribeResult:
        return self._channel(kind, batch_id).consume(timeout)

    def flush_all(self) -> int:
        return sum(channel.flush() for channel in self._channels.values())

    def close(self) -> None:
        for channel in self._channels.values():
            channel.close()
        if self._link is not None:
            self._link.send_close()

    def stats(self) -> BrokerStats:
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
