"""Process transport: the passive party's worker pool in one forked child.

When the passive party can have more than one batch in flight,
:func:`splitbus.runtime.run_training` forks one child for the passive worker
pool before any runtime thread starts.  The parent keeps the active pool,
evaluation and the run's :class:`~splitbus.broker.Broker`, and its epoch
command tells the child whether the epoch ends in an average; the child
works on its forked copy of that broker.  Each channel lives in the process of its
consumer: embedding channels in the parent, gradient channels in the child.
The two interpreters no longer share one GIL, so each party's compute can
use its own core.

Wire.  One simplex ``multiprocessing`` pipe per direction carries, in order,
message frames, at most one close frame and pickled control messages (epoch
commands down, epoch results up).  Sharing the pipe orders a control
message after every frame sent before it: when an epoch result arrives, all
of that epoch's embeddings are already in the parent's channels, and when
the child reads the parent's end-of-epoch command, all of that epoch's
gradients are in its channels.  So nothing crosses an epoch boundary and
the counters that come back with a result are complete.

A message frame is a fixed header (kind, batch id, sample range, sender
worker, parameter version) plus the payload in
:func:`~splitbus.broker.serialize_payload`'s wire format.  A receiver thread
in each process publishes incoming messages into its local channels.  A
close frame, or EOF on the pipe (the peer died), fails the receiving side's
current epoch through :meth:`~splitbus.runtime.EpochShared.fail`, which
closes its broker.

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
sends a close frame and a stop command, joins the child (killing it if it
does not exit in time), then joins its receiver thread, which ends at the
pipe's EOF.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import struct
import threading
from collections.abc import Sequence

from . import broker as bk

# How long a stopped child may take to exit before it is killed.
_JOIN_SECONDS = 5.0

_MESSAGE, _CLOSE, _CONTROL = 0, 1, 2
# tag, kind, batch id, sample range (2), sender worker, param version
_FRAME = struct.Struct("<BB5q")
_KINDS = list(bk.MessageKind)


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


class Link:
    """One process's end of the two pipes, plus its receiver thread.

    ``send`` and ``send_close`` are the hooks :meth:`Broker.connect` wants;
    control messages go out with :meth:`send_control` and come in through
    :meth:`recv_control`, which returns None once the peer is gone.
    """

    def __init__(self, tx, rx, broker: bk.Broker, peer: str, cpus: Sequence[int] = ()):
        self._tx, self._rx = tx, rx
        self._cpus = cpus  # the receiver thread's share
        self._broker = broker
        self.peer = peer
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

    def send(self, message: bk.ChannelMessage) -> None:
        """Ship a message to the peer's channel; dropped if the peer is gone."""
        body = bk.serialize_payload(message.payload)
        start, stop = message.sample_range
        head = _FRAME.pack(_MESSAGE, _KINDS.index(message.kind), message.batch_id,
                           start, stop, message.sender_worker, message.param_version)
        try:
            with self._send_lock:
                self._tx.send_bytes(head + body)
        except OSError:
            pass  # the peer died; its receiver is gone and the run is failing

    def send_close(self) -> None:
        """Close the peer's side of the bus once, unless the peer closed ours.

        The receiver thread gets here through :meth:`_peer_gone` after setting
        ``_gone``, and must return without the send lock: a worker may hold it
        while blocked on a full pipe that only the peer's receiver drains.
        """
        if self._gone is not None:
            return
        with self._send_lock:
            if self._close_sent:
                return
            self._close_sent = True
            try:
                self._tx.send_bytes(bytes([_CLOSE]))
            except OSError:
                pass

    def send_control(self, obj) -> None:
        blob = bytes([_CONTROL]) + pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            with self._send_lock:
                self._tx.send_bytes(blob)
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
                    frame = self._rx.recv_bytes()
                except (EOFError, OSError):
                    return
                tag = frame[0]
                if tag == _MESSAGE:
                    _, kind, batch_id, start, stop, sender, version = _FRAME.unpack_from(frame)
                    payload = bk.deserialize_payload(memoryview(frame)[_FRAME.size:])
                    self._broker.publish(bk.ChannelMessage(
                        _KINDS[kind], batch_id, payload, (start, stop),
                        sender_worker=sender, param_version=version,
                    ))
                elif tag == _CLOSE:
                    self._peer_gone(PeerGone(f"the {self.peer} party closed the bus"))
                else:
                    self._inbox.put(pickle.loads(memoryview(frame)[1:]))
        finally:  # EOF: the peer exited; anything else is a bug, and waiters must not hang
            self._peer_gone(PeerGone(f"the {self.peer} party's process exited"))
            self._inbox.put(None)

    def _peer_gone(self, exc: PeerGone) -> None:
        with self._state_lock:
            if self._gone is None:
                self._gone = exc
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
    ``cpus`` is the (parent, child) split from :func:`split_cpus`; the
    parent's runtime threads pin themselves to ``cpus[0]``.
    """

    def __init__(self, broker: bk.Broker, run_epoch):
        self.cpus = split_cpus()
        ctx = multiprocessing.get_context("fork")
        down_rx, down_tx = ctx.Pipe(duplex=False)  # parent -> child
        up_rx, up_tx = ctx.Pipe(duplex=False)  # child -> parent
        self._broker = broker
        self._epoch = 0
        self._process = ctx.Process(
            target=_child_main, name="splitbus-passive", daemon=True,
            args=(broker, run_epoch, self.cpus[1], (up_tx, down_rx), (down_tx, up_rx)),
        )
        self._process.start()
        down_rx.close()
        up_tx.close()
        self._link = Link(down_tx, up_rx, broker, peer="passive", cpus=self.cpus[0])
        broker.connect(self._link, bk.MessageKind.GRADIENT)
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


def _child_main(broker: bk.Broker, run_epoch, cpus: Sequence[int], child_ends,
                parent_ends) -> None:
    """The child's command loop: one passive epoch per ``("epoch", e, end_sync)``."""
    from .runtime import EpochShared  # runtime imports this module

    pin_thread(cpus)  # before any thread starts, so every thread inherits it
    for end in parent_ends:
        end.close()
    link = Link(*child_ends, broker, peer="active")
    broker.connect(link, bk.MessageKind.EMBEDDING)
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
