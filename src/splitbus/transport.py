"""Process transport: the passive party's worker pool in one forked child.

When the passive party can have more than one batch in flight,
:func:`splitbus.runtime.run_training` forks one child for the passive worker
pool before any runtime thread starts.  The parent keeps the active pool,
evaluation and the run's :class:`~splitbus.broker.Broker`, and its epoch
command tells the child whether the epoch ends in an average; the child
works on its forked copy of that broker.  Both copies are connected to
one mailbox, call it themselves and build no channels: the parent reads
embeddings from it, the child gradients.  The two interpreters no longer
share one GIL, so each party's compute can use its own core.

Mailbox.  Cut-layer messages do not cross the pipe.  Before the fork,
:class:`Mailbox` maps one anonymous shared region (it has no name under
``/dev/shm``, and the child inherits it) holding one slot per (kind, batch
id): a header (the slot's counters, then the rows, sample range, parameter
version, sender worker and publish time of its message) and a (rows, cut
width) float64 payload.  A publish writes the slot under a fork-context lock and
bumps its sequence number.  Each kind has eight locks, slot b taking lock
b % 8: a thread that loses the CPU (or the interpreter lock) while it holds
one then stalls only the slots of its stripe, not every read and write of
the other process.  The slot is the channel, of capacity one: a subscribe
compares the slot's sequence number with the last one this process read,
without a lock, and if it moved, builds the message from the slot under
its lock, counting any message the slot overwrote unread as evicted.  So
no thread of the consumer wakes per message but the one that takes it.

A subscriber that must wait takes one of its process's ``multiprocessing``
semaphores for its kind, writes the batch id it waits for beside that
semaphore's entry in the region's sleeper table, and blocks on it.  A
publisher posts only the semaphores registered for its slot, so there is no
post on the hot path when nobody waits, and a post never goes to a thread
that waits for another batch.  Closing the bus, from either process, sets
one closed flag in the region, so later writes of either kind count as
dropped, and posts every semaphore of both kinds; the semaphores are made
before the fork, so each sleeper of both processes sees the close.  Every
acquire of a slot lock waits in short timeouts and gives up once the peer
is gone, so a peer killed while holding one still ends the run.

Pipe.  One duplex ``multiprocessing`` pipe carries pickled control
messages: epoch commands and the stop command down, the child's ready
message and epoch results up.  Each process keeps one end, which one thread
writes and a receiver thread reads, so that thread wakes twice per epoch.
Each slot write comes before the producer's next control message in
program order.  The child sends its epoch result as soon as its workers
are done, so when the result arrives, all of that epoch's embeddings are
in the parent's slots.  The parent's active workers may still be
publishing gradients then, for batches the passive workers gave up on; but
the parent sends the next epoch command only after its own workers are
done, so when the child reads it, all of the last epoch's gradients are in
its slots, and the child's flush at the start of the new epoch counts
every late one.  So nothing crosses an epoch boundary, with no
end-of-epoch handshake, and once the parent has the result and its own
workers are done, the slots' counters hold still until the next epoch
command.  No failure crosses the pipe but the epoch result: a party that
fails closes the bus, and a worker of the other party that then finds it
closed raises :class:`PeerGone`, which fails that party's epoch too.  EOF
on the pipe (the peer died) closes the bus in the same way.

Placement.  Separate interpreters only compute at once if the scheduler
runs them on separate cores, and left alone it often stacks both processes'
threads on one.  So the fork splits the CPUs the caller may use
(``os.sched_getaffinity``) into two disjoint shares (:func:`split_cpus`):
the lower half, plus the odd one out, for the parent; the upper half for
the child.  The child pins itself before it starts any thread, so all of
its threads inherit its share.  In the parent, each runtime thread pins
itself once, when it starts: the active pool's workers, which start right
after the fork and serve every epoch of the run, and the receiver thread.
The caller's own thread is never pinned, so its affinity is the same after
the run.  With fewer than two CPUs, or without ``sched_setaffinity``,
nothing is pinned; the ``thread`` transport never pins.

Lifetime.  A run starts exactly one child and always reaps it.  The child
pins itself, starts its receiver and its passive worker pool, and sends a
ready message, which the parent waits for before it starts its own
workers, so neither party starts a thread once epoch 1's clock runs.  The
child runs every epoch on that pool and joins it before it exits.  At the
end of the run the parent closes the bus, which ends an epoch the child
may still be in, sends a stop command, joins the child (killing it if it
does not exit in time), then joins its receiver thread, which ends at the
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

_KINDS = (bk.MessageKind.EMBEDDING, bk.MessageKind.GRADIENT)  # .index() hashes no enum
# Slot locks per kind; slot b takes lock b % _STRIPES.
_STRIPES = 8
# Words of a slot header, all int64.  The counters come first: writes that
# landed (the sequence number), the last sequence number its consumer read,
# the messages it delivered, evicted and flushed, the writes dropped once it
# closed, and the bytes landed.  Then the newest message's rows, sample range
# (2), parameter version, sender worker and publish time (monotonic ns).
_SEQ, _READ, _DELIVERED, _EVICTED, _FLUSHED, _DROPPED, _BYTES, _ROWS = range(8)
_HEAD = _ROWS + 6


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

    Made before the fork, so parent and child map the same region, counters
    and closed flag included: either process can count every slot, and
    either can close the bus for both.  Each process keeps its own free list
    of wake-up semaphores and its own ``peer_gone`` flag, which its
    :class:`Link` sets.  Up to ``waiters`` threads per process may wait at
    once.
    """

    def __init__(self, num_batches: int, rows: int, cols: int, waiters: int):
        ctx = multiprocessing.get_context("fork")
        self._rows, self._cols = rows, cols
        stride = _HEAD + rows * cols
        table = 2 * waiters + 1  # the sleeper table, then the closed flag
        region = mmap.mmap(-1, 8 * (table + 2 * num_batches * stride))
        flat = np.frombuffer(region, dtype=np.int64)
        flat[: 2 * waiters] = -1
        words = memoryview(region).cast("q")
        self._sleepers = [words[k * waiters: (k + 1) * waiters] for k in range(2)]  # batch ids
        self._closed = words[2 * waiters: table]
        heads = [words[o: o + _HEAD] for o in range(table, len(words), stride)]
        self._heads = [heads[:num_batches], heads[num_batches:]]
        self._slots = flat[table:].reshape(2, num_batches, stride)  # for passes over every slot
        payloads = self._slots.view(np.float64)[:, :, _HEAD:]
        self._payloads = [[p.reshape(rows, cols) for p in payloads[k]] for k in range(2)]
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
        """Put ``message`` into its slot, over any message there, and wake its
        waiter; once the bus is closed, count it as dropped."""
        k, rows, cols = _KINDS.index(message.kind), *message.payload.shape
        if cols != self._cols or rows > self._rows:
            raise ValueError(f"a {rows}x{cols} payload does not fit a "
                             f"{self._rows}x{self._cols} slot")
        lock = self._lock(k, message.batch_id)
        if not self._acquire(lock):
            return  # the peer died; nothing will read the message
        try:
            woken = self._store(k, message)
        finally:
            lock.release()
        for s in woken:
            self._wake[k][s].release()

    def _store(self, k: int, message: bk.ChannelMessage) -> list[int]:
        """Under the slot's lock: write ``message``; returns the sleepers to wake."""
        b, payload = message.batch_id, message.payload
        head = self._heads[k][b]
        if self._closed[0]:
            head[_DROPPED] += 1
            return []
        rows = len(payload)
        self._payloads[k][b][:rows] = payload
        head[_ROWS] = rows
        head[_ROWS + 1], head[_ROWS + 2] = message.sample_range
        head[_ROWS + 3] = message.param_version
        head[_ROWS + 4] = message.sender_worker
        head[_ROWS + 5] = time.monotonic_ns()
        head[_BYTES] += bk.payload_byte_size(rows, self._cols)
        head[_SEQ] += 1
        sleepers = self._sleepers[k]
        if b not in sleepers:
            return []
        woken = [s for s, waits_for in enumerate(sleepers) if waits_for == b]
        for s in woken:
            sleepers[s] = -1
        return woken

    def _take(self, k: int, b: int, tally: int, sleeper: int | None = None):
        """Under the slot's lock, taken here: slot ``b``'s message if it is
        unread, counted in header word ``tally`` (the unread ones it overwrote
        count as evicted); else register ``sleeper``, if given, with the slot."""
        lock = self._lock(k, b)
        if not self._acquire(lock):
            return None
        try:
            head = self._heads[k][b]
            seq, read = head[_SEQ], head[_READ]
            if seq == read:
                if sleeper is not None:
                    self._sleepers[k][sleeper] = b
                return None
            rows, start, stop, version, sender, stamp = head[_ROWS:]
            head[_READ] = seq
            head[tally] += 1
            head[_EVICTED] += seq - read - 1
            payload = self._payloads[k][b][:rows].copy()
        finally:
            lock.release()
        return bk.ChannelMessage(_KINDS[k], b, payload, (start, stop), sender, version, stamp / 1e9)

    def read(self, kind: bk.MessageKind, b: int, timeout: float | None) -> bk.SubscribeResult:
        """Take slot ``b``'s unread message, waiting up to ``timeout`` seconds
        (None: forever) for one unless the bus closes.

        A waiting thread registers the slot beside a semaphore of its own,
        and a writer posts exactly the semaphores registered for its slot, so
        a post never wakes a thread that waits for another batch.  A
        registration left behind by a timeout costs its semaphore's next user
        one spurious wake-up, after which it checks its slot again.
        """
        start, k = time.monotonic(), _KINDS.index(kind)
        head = self._heads[k][b]  # read without the lock: a stale read only defers the message
        message = self._take(k, b, _DELIVERED) if head[_SEQ] != head[_READ] else None
        if message is None and timeout != 0.0:
            message = self._wait(k, b, None if timeout is None else start + timeout)
        outcome = (bk.SubscribeOutcome.DELIVERED if message is not None else
                   bk.SubscribeOutcome.CLOSED if self._closed[0] else bk.SubscribeOutcome.EXPIRED)
        return bk.SubscribeResult(outcome, message, time.monotonic() - start)

    def _wait(self, k: int, b: int, deadline: float | None) -> bk.ChannelMessage | None:
        with self._free_lock:
            s = self._free[k].pop()
        try:
            while not self._closed[0]:
                left = None if deadline is None else deadline - time.monotonic()
                if left is not None and left <= 0.0:
                    return None
                message = self._take(k, b, _DELIVERED, sleeper=s)
                if message is not None:
                    return message
                self._wake[k][s].acquire(True, left)
            return None
        finally:
            with self._free_lock:
                self._free[k].append(s)

    def flush(self, kind: bk.MessageKind) -> int:
        """Drop every unread message of ``kind``: each slot's newest counts as
        flushed, the ones it overwrote as evicted.  Returns the flushed count."""
        k = _KINDS.index(kind)
        unread = self._slots[k, :, _SEQ] != self._slots[k, :, _READ]
        return sum(self._take(k, b, _FLUSHED) is not None
                   for b in np.flatnonzero(unread).tolist())

    def stats(self) -> bk.BrokerStats:
        """The counters of every slot of both kinds, each slot a channel of
        capacity one: its newest unread message is residual, and the unread
        ones that message overwrote are evicted."""
        counts = self._slots[:, :, :_ROWS].reshape(-1, _ROWS)
        residual = int(np.count_nonzero(counts[:, _SEQ] != counts[:, _READ]))
        landed, read, delivered, evicted, flushed, dropped, nbytes = counts.sum(axis=0).tolist()
        return bk.BrokerStats(landed + dropped, delivered, evicted + landed - read - residual,
                              flushed, dropped, residual, nbytes)

    def close(self) -> None:
        """Close the bus for both processes: later writes of either kind count
        as dropped, and every waiter of either process wakes, without a slot
        lock.  Closing it again does nothing."""
        if self._closed[0]:
            return
        self._closed[0] = 1
        for semaphores in self._wake:
            for semaphore in semaphores:
                semaphore.release()


class Link:
    """One process's end of the control pipe, plus its receiver thread.

    Control messages go out with :meth:`send_control`, from one thread of
    the process, and come in through :meth:`recv_control`, which returns
    None once the peer is gone.  At the pipe's EOF the receiver closes the
    bus and sets ``mailbox.peer_gone``.
    """

    def __init__(self, conn, mailbox: Mailbox, peer: str, cpus: Sequence[int] = ()):
        self._conn = conn
        self._cpus = cpus  # the receiver thread's share
        self._mailbox = mailbox
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._receiver = threading.Thread(target=self._receive, name=f"{peer}-receiver",
                                          daemon=True)

    def start(self) -> None:
        self._receiver.start()

    def send_control(self, obj) -> None:
        try:
            self._conn.send(obj)
        except OSError:
            pass  # recv_control reports the dead peer

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
                    obj = self._conn.recv()
                except (EOFError, OSError):
                    return
                self._inbox.put(obj)
        finally:  # EOF: the peer exited; anything else is a bug, and waiters must not hang
            self._mailbox.close()  # first: a waiter giving up on a lock then sees it closed
            self._mailbox.peer_gone = True
            self._inbox.put(None)

    def close(self) -> None:
        """Wait for the receiver to see EOF (the peer has exited), then close this end."""
        self._receiver.join()
        self._conn.close()


def _portable_failure(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a RuntimeError with its text."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class PassiveProcess:
    """Parent-side handle of the child process that runs the passive party.

    ``party`` is the passive side (:class:`splitbus.runtime.PartySide`), and
    ``party.broker`` the run's broker; both copies of it share one bus, so a
    failure closes it for both.  The child runs the same lifecycle on its
    main thread as the thread transport runs in this process:
    ``party.start()`` before the constructor returns, then per epoch
    command ``party.begin(epoch, end_sync)`` and ``party.finish()``, whose
    result (it carries a ``failure`` attribute) the child sends back as
    soon as the epoch's workers are done, and ``party.close()`` before it
    exits.  Each ``begin`` builds the epoch's ``EpochShared`` in the child,
    from the child's copy of the broker.  Every cut-layer message has at
    most ``rows`` rows and ``cols`` columns, the size of a mailbox slot, and
    neither process runs more than ``waiters`` workers.  ``cpus`` is the
    (parent, child) split from :func:`split_cpus`; the parent's runtime
    threads pin themselves to ``cpus[0]``.
    """

    def __init__(self, party, rows: int, cols: int, waiters: int):
        self.cpus = split_cpus()
        ctx = multiprocessing.get_context("fork")
        mailbox = Mailbox(party.broker.num_channels, rows, cols, waiters)
        parent_end, child_end = ctx.Pipe()
        self._epoch = 0
        self._process = ctx.Process(
            target=_child_main, name="splitbus-passive", daemon=True,
            args=(mailbox, party, self.cpus[1], child_end, parent_end),
        )
        self._process.start()
        child_end.close()
        self._link = Link(parent_end, mailbox, peer="passive", cpus=self.cpus[0])
        party.broker.connect(mailbox, bk.MessageKind.EMBEDDING)
        self._link.start()
        self._link.recv_control()  # the child's workers are up (None: it died, as finish reports)

    def begin(self, epoch: int, end_sync: bool) -> None:
        self._epoch = epoch
        self._link.send_control(("epoch", epoch, end_sync))

    def finish(self):
        """The child's result for the epoch, or, for a child that died without
        sending one, a result that carries only a :class:`PeerGone`."""
        result = self._link.recv_control()
        if result is None:
            from .runtime import EpochResult  # runtime imports this module

            self._process.join(_JOIN_SECONDS)
            return EpochResult(None, PeerGone(
                f"passive party process exited with code {self._process.exitcode} "
                f"[passive party, epoch {self._epoch}]"
            ))
        return result

    def close(self) -> None:
        """Stop the child, reap it, and join the receiver thread.  Close the
        bus first: that ends an epoch the child may still be in."""
        self._link.send_control(("stop",))
        self._process.join(_JOIN_SECONDS)
        if self._process.exitcode is None:
            self._process.kill()
            self._process.join()
        self._link.close()


def _child_main(mailbox: Mailbox, party, cpus: Sequence[int], conn, parent_end) -> None:
    """The child's command loop: one passive epoch per ``("epoch", e, end_sync)``."""
    pin_thread(cpus)  # before any thread starts, so every thread inherits it
    parent_end.close()
    link = Link(conn, mailbox, peer="active")
    party.broker.connect(mailbox, bk.MessageKind.GRADIENT)
    link.start()
    party.start()
    link.send_control(("ready",))
    try:
        while True:
            command = link.recv_control()
            if command is None or command[0] != "epoch":
                return
            _, epoch, end_sync = command
            party.broker.flush_all()  # the last epoch's late gradients, all in by now
            party.begin(epoch, end_sync)
            result = party.finish()
            if result.failure is not None:
                result.failure = _portable_failure(result.failure)
            link.send_control(result)
            if result.failure is not None:
                return
    finally:
        party.close()
