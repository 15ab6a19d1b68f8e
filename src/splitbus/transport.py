"""Process transport: the passive party's worker pool in one forked child.

When the passive party can have more than one batch in flight,
:func:`splitbus.runtime.run_training` forks one child for the passive worker
pool before any runtime thread starts.  The parent keeps the active pool,
evaluation and the run's :class:`~splitbus.broker.Broker`, and its epoch
command tells the child whether the epoch ends in an average; the child
works on its forked copy of that broker.  Each copy keeps only the channels
its process consumes: embeddings in the parent, gradients in the child.
The two interpreters no longer share one GIL, so each party's compute can
use its own core.

Mailbox.  Cut-layer messages do not cross the pipe.  Before the fork,
:class:`Mailbox` maps one anonymous shared region (it has no name under
``/dev/shm``, and the child inherits it) holding one slot per (kind, batch
id): a header (sequence number, rows, sample range, parameter version,
sender worker, publish time) and a (rows, cut width) float64 payload.  A
publish for the peer writes the slot under a fork-context lock and bumps
the slot's sequence number.  Each kind has eight locks, slot b taking lock
b % 8: a thread that loses the CPU (or the interpreter lock) while it holds
one then stalls only the slots of its stripe, not every read and write of
the other process.  A subscribe on a channel the peer feeds compares the
slot's sequence number with the last one this process read, without a
lock; if it moved, it copies the payload out under the slot's lock and
publishes it into the local channel, which counts it as published and then
delivered, and any message the slot overwrote unread as published and
evicted, so the newest message wins as in a local channel.  So no thread of
the consumer wakes per message but the one that takes it.

A subscriber that must wait takes one of its process's ``multiprocessing``
semaphores for its kind, writes the batch id it waits for beside that
semaphore's entry in the region's sleeper table, and blocks on it.  A
publisher posts only the semaphores registered for its slot, so there is no
post on the hot path when nobody waits, and a post never goes to a thread
that waits for another batch.  Closing the local bus posts every semaphore
of the kind, so each sleeper sees the close.  Every acquire of a slot lock
waits in short timeouts and gives up once the peer is gone, so a peer
killed while holding one still ends the run.

Pipe.  One simplex ``multiprocessing`` pipe per direction carries pickled
control messages (epoch commands down, epoch results up) and at most one
close command; a receiver thread in each process reads it, so that thread
wakes a few times per epoch.  Each slot write comes before the producer's
next control message in program order: when an epoch result arrives, all
of that epoch's embeddings are already in the parent's slots, and when the
child reads the parent's end-of-epoch command, all of that epoch's
gradients are in its slots.  So nothing crosses an epoch boundary, and the
counters that come back with a result, taken after pulling every slot, are
complete.  A close command, or EOF on the pipe (the peer died), fails the
receiving side's current epoch through
:meth:`~splitbus.runtime.EpochShared.fail`, which closes its broker.

Placement.  Separate interpreters only compute at once if the scheduler
runs them on separate cores, and left alone it often stacks both processes'
threads on one.  So the fork splits the CPUs the caller may use
(``os.sched_getaffinity``) into two disjoint shares (:func:`split_cpus`):
the lower half, plus the odd one out, for the parent; the upper half for
the child.  The child pins itself before it starts any thread, so all of
its threads inherit its share.  In the parent, each runtime thread pins
itself when it starts: the active pool's workers and the receiver thread.
The caller's own thread is never pinned, so its affinity is the same after
the run.  With fewer than two CPUs, or without ``sched_setaffinity``,
nothing is pinned; the ``thread`` transport never pins.

Lifetime.  A run starts exactly one child and always reaps it: the parent
sends a close and a stop command, joins the child (killing it if it does
not exit in time), then joins its receiver thread, which ends at the
pipe's EOF.  The fork-context locks and semaphores are unlinked when they
are made, and the mapping goes with the last reference to it.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import pickle
import queue
import threading
import time
from collections.abc import Sequence

import numpy as np

from . import broker as bk

# How long a stopped child may take to exit before it is killed.
_JOIN_SECONDS = 5.0
# How long one wait for a slot lock lasts before the waiter checks whether
# the peer is gone.
_LOCK_POLL_SECONDS = 0.1

_KIND_INDEX = {bk.MessageKind.EMBEDDING: 0, bk.MessageKind.GRADIENT: 1}
# Slot locks per kind; slot b takes lock b % _STRIPES.
_STRIPES = 8
# int64 words of a slot header: sequence number, rows, sample range (2),
# parameter version, sender worker, publish time (monotonic ns), padding.
_HEAD = 8


class PeerGone(RuntimeError):
    """The other party's process closed the bus or died."""


def split_cpus() -> tuple[list[int], list[int]]:
    """Disjoint (parent, child) shares of the CPUs the calling thread may use.

    The parent, which holds the active party's heavier per-batch compute,
    takes the lower half and the odd CPU out; the child takes the rest.  Both
    shares are empty when there is nothing to split.
    """
    if not hasattr(os, "sched_setaffinity"):
        return [], []
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return [], []
    half = (len(cpus) + 1) // 2
    return cpus[:half], cpus[half:]


def pin_thread(cpus: Sequence[int]) -> None:
    """Restrict the calling thread to ``cpus``; an empty share pins nothing."""
    if not cpus:
        return
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass  # the allowed set shrank since the split; the thread runs unpinned


class Mailbox:
    """Shared-memory slots for the cut-layer messages of one forked run.

    Made before the fork, so parent and child map the same region.  Each
    process keeps its own record of the sequence numbers it has read, its
    own free list of wake-up semaphores and its own ``peer_gone`` flag,
    which its :class:`Link` sets.  Up to ``waiters`` threads per process
    may wait at once.
    """

    def __init__(self, num_batches: int, rows: int, cols: int, waiters: int):
        ctx = multiprocessing.get_context("fork")
        self._rows, self._cols = rows, cols
        words = _HEAD + rows * cols
        table = -(-2 * waiters // _HEAD) * _HEAD  # the sleeper table, padded to a slot header
        region = mmap.mmap(-1, 8 * (table + 2 * num_batches * words))
        flat = np.frombuffer(region, dtype=np.int64)
        self._waiting_for = flat[: 2 * waiters].reshape(2, waiters)  # batch id, or -1
        self._waiting_for[:] = -1
        self._slots = flat[table:].reshape(2, num_batches, words)
        self._seq = self._slots[:, :, 0]
        self._payload = self._slots.view(np.float64)[:, :, _HEAD:]
        self._read = [[0] * num_batches, [0] * num_batches]  # per process
        self._locks = [[ctx.Lock() for _ in range(_STRIPES)] for _ in range(2)]
        self._wake = [[ctx.Semaphore(0) for _ in range(waiters)] for _ in range(2)]
        self._free = [list(range(waiters)), list(range(waiters))]
        self._free_lock = threading.Lock()
        self.peer_gone = False

    def _lock(self, k: int, b: int):
        return self._locks[k][b % _STRIPES]

    def _acquire(self, lock) -> bool:
        """Take ``lock``; False once the peer is gone and the lock is not free."""
        while not lock.acquire(timeout=_LOCK_POLL_SECONDS):
            if self.peer_gone:
                return False
        return True

    def write(self, message: bk.ChannelMessage) -> None:
        """Put ``message`` into its slot, over any message there, and wake its waiter."""
        k, rows, cols = _KIND_INDEX[message.kind], *message.payload.shape
        if cols != self._cols or rows > self._rows:
            raise ValueError(f"a {rows}x{cols} payload does not fit a "
                             f"{self._rows}x{self._cols} slot")
        lock = self._lock(k, message.batch_id)
        if not self._acquire(lock):
            return  # the peer died; nothing will read the message
        try:
            self._store(k, message)
            woken = [s for s, b in enumerate(self._waiting_for[k].tolist())
                     if b == message.batch_id]
            for s in woken:
                self._waiting_for[k, s] = -1
        finally:
            lock.release()
        for s in woken:
            self._wake[k][s].release()

    def _store(self, k: int, message: bk.ChannelMessage) -> None:
        b = message.batch_id
        rows, cols = message.payload.shape
        np.copyto(self._payload[k, b, : rows * cols].reshape(rows, cols), message.payload)
        slot = self._slots[k, b]
        slot[1:7] = (rows, *message.sample_range, message.param_version,
                     message.sender_worker, time.monotonic_ns())
        slot[0] += 1

    def _take(self, kind: bk.MessageKind, b: int, channel: bk.ChannelBuffer) -> bool:
        """Under the slot's lock: publish slot ``b``'s message into ``channel`` if it is unread."""
        k = _KIND_INDEX[kind]
        seq, rows, start, stop, version, sender, stamp = self._slots[k, b, :7].tolist()
        unread = seq - self._read[k][b]
        if not unread:
            return False
        self._read[k][b] = seq
        payload = self._payload[k, b, : rows * self._cols].reshape(rows, self._cols).copy()
        message = bk.ChannelMessage(kind, b, payload, (start, stop), sender, version, stamp / 1e9)
        channel.publish(message, superseded=unread - 1)
        return True

    def pull(self, kind: bk.MessageKind, b: int, channel: bk.ChannelBuffer) -> None:
        """Move slot ``b``'s unread message, if any, into ``channel``."""
        k = _KIND_INDEX[kind]
        if self._seq[k, b] == self._read[k][b]:
            return  # nothing new; a stale read only defers the message to the next pull
        lock = self._lock(k, b)
        if self._acquire(lock):
            try:
                self._take(kind, b, channel)
            finally:
                lock.release()

    def pull_all(self, kind: bk.MessageKind, channels: list[bk.ChannelBuffer]) -> None:
        k = _KIND_INDEX[kind]
        for b in np.flatnonzero(self._seq[k] != self._read[k]).tolist():
            self.pull(kind, b, channels[b])

    def wait(self, kind: bk.MessageKind, b: int, channel: bk.ChannelBuffer,
             deadline: float | None) -> None:
        """Block until slot ``b`` has news (moved into ``channel``), ``channel``
        closes, or the monotonic ``deadline`` (None: never) passes.

        The thread registers the slot it waits for beside a semaphore of its
        own, and a publisher posts exactly the semaphores registered for its
        slot, so a post never wakes a thread that waits for another batch.
        A registration left behind by a timeout costs its semaphore's next
        user one spurious wake-up, after which it checks its slot again.
        """
        k = _KIND_INDEX[kind]
        lock = self._lock(k, b)
        with self._free_lock:
            s = self._free[k].pop()
        try:
            while not channel.closed:
                left = None if deadline is None else deadline - time.monotonic()
                if (left is not None and left <= 0.0) or not self._acquire(lock):
                    return
                try:
                    if self._take(kind, b, channel):
                        return
                    self._waiting_for[k, s] = b
                finally:
                    lock.release()
                self._wake[k][s].acquire(True, left)
        finally:
            with self._free_lock:
                self._free[k].append(s)

    def wake(self, kind: bk.MessageKind) -> None:
        """Wake every thread of this process that waits on ``kind``, without
        a slot lock; each sees its closed channel and returns."""
        for semaphore in self._wake[_KIND_INDEX[kind]]:
            semaphore.release()


class Link:
    """One process's end of the two pipes and of the mailbox, plus its receiver thread.

    ``send``, ``pull``, ``pull_all`` and ``wait`` (the mailbox's),
    ``send_close`` and ``inbound``, the kind this process consumes, are the
    hooks :meth:`Broker.connect` wants.  Control messages go out with
    :meth:`send_control` and come in through :meth:`recv_control`, which
    returns None once the peer is gone.
    """

    def __init__(self, tx, rx, mailbox: Mailbox, inbound: bk.MessageKind, peer: str,
                 cpus: Sequence[int] = ()):
        self._tx, self._rx = tx, rx
        self._cpus = cpus  # the receiver thread's share
        self._mailbox = mailbox
        self.inbound = inbound
        self.peer = peer
        self.send, self.pull, self.pull_all, self.wait = (
            mailbox.write, mailbox.pull, mailbox.pull_all, mailbox.wait)
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._close_sent = False
        self._gone: PeerGone | None = None  # set once the peer closed or died
        self._shared = None  # the EpochShared a peer failure is sent to
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._receiver = threading.Thread(target=self._receive, name=f"{peer}-receiver",
                                          daemon=True)

    def start(self) -> None:
        self._receiver.start()

    def watch(self, shared) -> None:
        """Fail ``shared`` when the peer goes (at once if it already has)."""
        with self._state_lock:
            self._shared = shared
            gone = self._gone
        if gone is not None:
            shared.fail(gone)

    # -- sending ------------------------------------------------------------

    def send_close(self) -> None:
        """Wake this process's waiters, and close the peer's side of the bus
        once, unless the peer closed ours.

        The receiver thread gets here through :meth:`_peer_gone` after setting
        ``_gone``, and returns without the send lock or a slot lock,
        which a dead peer may have left held.
        """
        self._mailbox.wake(self.inbound)
        if self._gone is not None:
            return
        with self._send_lock:
            if self._close_sent:
                return
            self._close_sent = True
            try:
                self._tx.send(("close",))
            except OSError:
                pass

    def send_control(self, obj) -> None:
        try:
            with self._send_lock:
                self._tx.send(obj)
        except OSError:
            pass  # recv_control reports the dead peer

    # -- receiving ----------------------------------------------------------

    def recv_control(self):
        obj = self._inbox.get()
        if obj is None:
            self._inbox.put(None)  # the peer stays gone for every later call
        return obj

    def _receive(self) -> None:
        pin_thread(self._cpus)
        try:
            while True:
                try:
                    obj = self._rx.recv()
                except (EOFError, OSError):
                    return
                if obj == ("close",):
                    self._peer_gone(PeerGone(f"the {self.peer} party closed the bus"))
                else:
                    self._inbox.put(obj)
        finally:  # EOF: the peer exited; anything else is a bug, and waiters must not hang
            self._peer_gone(PeerGone(f"the {self.peer} party's process exited"))
            self._inbox.put(None)

    def _peer_gone(self, exc: PeerGone) -> None:
        with self._state_lock:
            if self._gone is None:
                self._gone = exc
            self._mailbox.peer_gone = True
            shared = self._shared
        if shared is not None:
            shared.fail(exc)

    def close(self) -> None:
        """Close the sending end and wait for the receiver to see EOF."""
        with self._send_lock:
            self._tx.close()
        self._receiver.join()
        self._rx.close()


def _portable_failure(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a RuntimeError with its text."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class PassiveProcess:
    """Parent-side handle of the child process that runs the passive party.

    ``run_epoch(epoch, end_sync, shared)`` runs in the child and returns an
    object with ``failure`` and ``channel_stats`` attributes; the child sends
    it back once :meth:`finish` says the active side of the epoch is done.
    Every cut-layer message has at most ``rows`` rows and ``cols`` columns,
    the size of a mailbox slot, and neither process runs more than
    ``waiters`` workers.
    ``cpus`` is the (parent, child) split from :func:`split_cpus`; the
    parent's runtime threads pin themselves to ``cpus[0]``.
    """

    def __init__(self, broker: bk.Broker, run_epoch, rows: int, cols: int, waiters: int):
        self.cpus = split_cpus()
        ctx = multiprocessing.get_context("fork")
        mailbox = Mailbox(broker.num_channels, rows, cols, waiters)
        down_rx, down_tx = ctx.Pipe(duplex=False)  # parent -> child
        up_rx, up_tx = ctx.Pipe(duplex=False)  # child -> parent
        self._broker = broker
        self._epoch = 0
        self._process = ctx.Process(
            target=_child_main, name="splitbus-passive", daemon=True,
            args=(broker, mailbox, run_epoch, self.cpus[1], (up_tx, down_rx),
                  (down_tx, up_rx)),
        )
        self._process.start()
        down_rx.close()
        up_tx.close()
        self._link = Link(down_tx, up_rx, mailbox, bk.MessageKind.EMBEDDING, peer="passive",
                          cpus=self.cpus[0])
        broker.connect(self._link)
        self._link.start()

    def begin(self, epoch: int, end_sync: bool, shared) -> None:
        self._epoch = epoch
        self._link.watch(shared)
        self._link.send_control(("epoch", epoch, end_sync))

    def finish(self, failed_result):
        """The child's result for the epoch; ``failed_result(exc)`` stands in
        for a child that died without sending one."""
        self._link.send_control(("end",))
        result = self._link.recv_control()
        if result is None:
            self._process.join(_JOIN_SECONDS)
            return failed_result(PeerGone(
                f"passive party process exited with code {self._process.exitcode} "
                f"[passive party, epoch {self._epoch}]"
            ))
        self._broker.set_peer_stats(result.channel_stats)
        return result

    def close(self) -> None:
        """Stop the child, reap it, and join the receiver thread."""
        self._link.send_close()  # ends an epoch the child may still be in
        self._link.send_control(("stop",))
        self._process.join(_JOIN_SECONDS)
        if self._process.exitcode is None:
            self._process.kill()
            self._process.join()
        self._link.close()


def _child_main(broker: bk.Broker, mailbox: Mailbox, run_epoch, cpus: Sequence[int],
                child_ends, parent_ends) -> None:
    """The child's command loop: one passive epoch per ``("epoch", e, end_sync)``."""
    from .runtime import EpochShared  # runtime imports this module

    pin_thread(cpus)  # before any thread starts, so every thread inherits it
    for end in parent_ends:
        end.close()
    link = Link(*child_ends, mailbox, bk.MessageKind.GRADIENT, peer="active")
    broker.connect(link)
    link.start()
    while True:
        command = link.recv_control()
        if command is None or command[0] != "epoch":
            return
        _, epoch, end_sync = command
        broker.flush_all()
        shared = EpochShared(broker, epoch)
        link.watch(shared)
        result = run_epoch(epoch, end_sync, shared)
        if link.recv_control() != ("end",):
            return  # the parent stopped or died mid-epoch
        result.channel_stats = broker.stats()  # every gradient of the epoch is in
        if result.failure is not None:
            result.failure = _portable_failure(result.failure)
        link.send_control(result)
        if result.failure is not None:
            return
