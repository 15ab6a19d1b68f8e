"""Span tracing installed from outside the program, for the benchmark's traced runs.

Wrappers are patched in where the callers resolve the names: ``nn.forward``
and friends on the module (the runtime calls them through it), ``add_noise``
and ``evaluate_models`` on ``splitbus.runtime`` (imported there by name),
``auc_score`` on ``splitbus.metrics``, and the broker and parameter-server
methods on their classes.  Each span records its name, start, end, thread,
parent (the innermost open span on the same thread) and the batch id when
the call carries one.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple

from splitbus import broker as bk
from splitbus import metrics, nn, runtime


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    batch: int | None


class SubscribeSample(NamedTuple):
    kind: str
    delivered: bool
    waited: float
    residency: float | None  # consume time minus the message's publish_time


class Tracer:
    """Collects spans and per-subscribe samples from any number of threads."""

    def __init__(self) -> None:
        # list.append and next() on a counter are atomic under the interpreter
        # lock, so the hot path takes no lock of its own.
        self.spans: list[Span] = []
        self.subscribes: list[SubscribeSample] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, batch: int | None = None):
        """Record a span around a block of the benchmark's own code."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, threading.get_ident(), parent, batch))

    def wrap(
        self,
        name: str,
        fn: Callable,
        batch_of: Callable[[tuple], int] | None = None,
        on_result: Callable[[object], None] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        The span bookkeeping is written out here rather than built on
        :meth:`span`, keeping a generator context manager off the hot path.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, name, start, end, threading.get_ident(), parent,
                         batch_of(args) if batch_of else None)
                )
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _record_subscribe(self, result: bk.SubscribeResult) -> None:
        message = result.message
        delivered = result.outcome is bk.SubscribeOutcome.DELIVERED
        self.subscribes.append(
            SubscribeSample(
                message.kind.value if delivered else "",
                delivered,
                result.waited_seconds,
                time.monotonic() - message.publish_time if delivered else None,
            )
        )

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block."""
        targets = [
            (nn, "forward", "nn.forward", None, None),
            (nn, "backward", "nn.backward", None, None),
            (nn, "sgd_step", "nn.sgd_step", None, None),
            (runtime, "add_noise", "privacy.add_noise", None, None),
            (runtime, "evaluate_models", "runtime.evaluate", None, None),
            (metrics, "auc_score", "metrics.auc_score", None, None),
            (bk.Broker, "publish", "broker.publish", lambda a: a[1].batch_id, None),
            (bk.Broker, "subscribe", "broker.subscribe", lambda a: a[2],
             self._record_subscribe),
            (runtime.PartyServer, "sync", "runtime.ps_sync", None, None),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in targets]
        try:
            for owner, attr, name, batch_of, on_result in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), batch_of, on_result))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """One tab-separated line per span: id, name, start, end, thread, parent, batch."""
        with open(path, "w") as handle:
            handle.write("id\tname\tstart\tend\tthread\tparent\tbatch\n")
            for s in sorted(self.spans, key=lambda s: s.start):
                handle.write(
                    f"{s.sid}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.thread}\t"
                    f"{'' if s.parent is None else s.parent}\t"
                    f"{'' if s.batch is None else s.batch}\n"
                )


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self seconds).

    A span's self time is its duration minus the time its child spans cover.
    Children are the spans whose parent is this span; they ran on the same
    thread, nested inside it and one after another, so their durations add
    up without overlap.  Spans on other threads are never children.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        entry = totals[s.name]
        entry[0] += 1
        entry[1] += (s.end - s.start) - child_time[s.sid]
    return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}
