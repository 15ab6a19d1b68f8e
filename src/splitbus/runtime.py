"""Two-party training runtime.

The passive party owns the feature-only bottom model; the active party owns
its bottom model, the top model and the labels.  When the passive party can
have more than one batch in flight, its worker pool runs in one forked child
process (the ``process`` transport, :mod:`splitbus.transport`) and the active
pool and evaluation stay in the parent, so the two parties do not share one
interpreter lock; with one batch in flight, or without ``fork``, both pools
run in this process (the ``thread`` transport).  :func:`_transport` makes
that choice and :class:`~splitbus.metrics.RunSummary` records it.  Workers
are threads either way; the only things the parties share are the batch
plan (derived from the run seed on both sides) and the broker's channels.
Both parties run every epoch through the same :meth:`PartySide.run_epoch`,
which plans the epoch, runs the party's pool and does the party's own
end-of-epoch average; the active side runs on the thread that called
:func:`run_training`, and the passive side on a thread of its own or in the
child.

A forked run also splits the caller's CPUs between the two processes
(:func:`splitbus.transport.split_cpus`): the parent's runtime threads (the
active workers and the receiver) pin themselves to the lower half, the
child and all its threads to the rest, so the scheduler cannot stack
both parties on one core.  The thread calling :func:`run_training` is never
pinned.  A run on the ``thread`` transport, or with fewer than two CPUs, or
without ``sched_setaffinity``, pins nothing; the split goes into the run
summary's ``cpus_active`` and ``cpus_passive``.

Per batch, the choreography is: a passive worker runs its bottom model
forward, adds calibrated Gaussian noise, and publishes the embedding on the
batch's embedding channel; an active worker consumes it, finishes the
forward pass, publishes the cut-layer gradient on the batch's gradient
channel, and applies its local updates; the passive worker consumes the
gradient, backprops through the saved tape and updates its replica.
The active bottom model needs only the active party's rows, so its forward
pass runs before the wait for the embedding, alongside the passive party's
backward and forward; in ``lockstep`` a batch then costs
``max(passive bwd + fwd, active bwd + fwd) + top``, the dependency-chain
bound.  Neither bottom backprop computes the gradient w.r.t. its raw
features, which nothing consumes; it stops at the parameter gradients.
A passive worker with several batches in flight absorbs their gradients
oldest first and stops polling at the first one not back yet: the active
pool takes batches in queue order, so gradients return nearly in order and
each batch costs O(1) broker calls however far the worker has run ahead.
After each epoch, :func:`evaluate_models` scores the test set by inference
alone (:func:`splitbus.nn.predict`, no tape), the two bottom models side by
side on two threads.

The two bottom models compute in :data:`splitbus.data.FEATURE_DTYPE`
(float32), the dtype each party's features are stored in from the table
on, and the top model in float64 (see :mod:`splitbus.nn`).  A run
trains on the caller's feature arrays as they are, train and test alike,
without copying or casting them; the top input is built in float64 by
:func:`top_input`; and a cut-layer gradient, float64 on the wire, is cast
only where a bottom consumes it (:func:`bottom_backward`).  The serial
reference uses the same two helpers, so the deterministic modes stay
bit-identical to it.

Every mode runs the same worker loop per party, and every batch's channel
keeps only its newest message: a retry's message supersedes an older one not
yet consumed, which the broker counts as evicted, so the buffer is the
passive worker's in-flight window alone.  The modes differ only in their
row of :data:`splitbus.config.MODE_POLICIES`, which says how far a passive
worker may run ahead, whether waits expire, whether the pools rendezvous
after every iteration (``sync_ps``), and when the parameter servers average
replicas at the end of an epoch.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
import time
from collections import OrderedDict
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import broker as bk
from . import data as dt
from . import metrics as mt
from . import nn
from . import transport as tp
from .config import MODE_POLICIES, ONE_IN_FLIGHT_MODES, SINGLE_PAIR_MODES, ConfigError, TrainConfig
from .data import BatchPlan, Task, VerticalDataset, make_batch_plan
from .privacy import GdpConfig, NoiseReport, add_noise, calibrate_sigma, worker_noise_rng


class TrainingAbort(RuntimeError):
    """Raised when a run cannot continue (e.g. the loss went non-finite)."""


class AlignmentError(RuntimeError):
    """A message's sample range disagrees with the consumer's batch plan."""


# Tags for deriving independent child seeds from the run seed.
_SEED_PASSIVE_BOTTOM = 1
_SEED_ACTIVE_BOTTOM = 2
_SEED_TOP = 3
_SEED_PLAN = 4
_SEED_NOISE = 5


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts (order matters)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def build_models(
    shape, d_active: int, d_passive: int, task: Task, seed: int
) -> tuple[nn.MlpModel, nn.MlpModel, nn.MlpModel]:
    """Initial (passive bottom, active bottom, top) models for a run seed.

    Hidden layers are ReLU throughout, including each bottom model's output
    layer (it is a hidden layer of the composed network); the top model ends
    in a sigmoid for classification, identity for regression.  The bottoms
    are in :data:`splitbus.data.FEATURE_DTYPE`, the dtype of the features
    they consume, and the top in float64; the weights are the same draws
    either way, cast after drawing.
    """
    passive_dims = [d_passive, *shape.passive_hidden, shape.passive_embed]
    active_dims = [d_active, *shape.active_hidden, shape.active_embed]
    top_dims = [shape.active_embed + shape.passive_embed, *shape.top_hidden, 1]
    head = nn.Activation.SIGMOID if task is Task.CLASSIFICATION else nn.Activation.IDENTITY
    passive = nn.init_mlp(
        passive_dims, [nn.Activation.RELU] * (len(passive_dims) - 1),
        derive_seed(seed, _SEED_PASSIVE_BOTTOM), dt.FEATURE_DTYPE,
    )
    active = nn.init_mlp(
        active_dims, [nn.Activation.RELU] * (len(active_dims) - 1),
        derive_seed(seed, _SEED_ACTIVE_BOTTOM), dt.FEATURE_DTYPE,
    )
    top = nn.init_mlp(
        top_dims, [nn.Activation.RELU] * (len(top_dims) - 2) + [head],
        derive_seed(seed, _SEED_TOP),
    )
    return passive, active, top


def top_input(top: nn.MlpModel, z_active: np.ndarray, z_passive: np.ndarray) -> np.ndarray:
    """The top model's input: both embeddings side by side, in the top's dtype."""
    return np.concatenate([z_active, z_passive], axis=1, dtype=top.dtype)


def bottom_backward(
    bottom: nn.MlpModel, tape: nn.ForwardTape, d_z: np.ndarray
) -> list[nn.LayerGrads]:
    """A bottom's parameter gradients from its cut-layer gradient ``d_z``.

    ``d_z`` is cast to the bottom's dtype first: a diverging run's gradient
    may round to ``inf`` there, and the non-finite loss it then produces
    aborts the run.  The raw-feature gradient goes nowhere, so it is skipped.
    """
    return nn.backward(bottom, tape, d_z.astype(bottom.dtype, copy=False), input_grad=False)[0]


def plan_for_epoch(num_rows: int, batch_size: int, run_seed: int, epoch: int) -> BatchPlan:
    """Both parties call this with the same arguments and get the same plan."""
    return make_batch_plan(num_rows, batch_size, derive_seed(run_seed, _SEED_PLAN, epoch))


def noise_sigma(cfg: TrainConfig, num_rows: int) -> float:
    """Embedding noise std for a run over ``num_rows`` training rows.

    The privacy accounting counts one query per batch of an epoch unless
    ``privacy_queries`` says otherwise.  A batch size past ``num_rows`` means
    one batch of every row, as in the batch plan.
    """
    return calibrate_sigma(
        GdpConfig(
            privacy_mu=cfg.privacy_mu,
            minibatch_size=min(cfg.batch_size, num_rows),
            whole_batch_size=num_rows,
            num_queries=cfg.privacy_queries or bk.channel_count_for(num_rows, cfg.batch_size),
        )
    )


def batch_loss_mean(losses: list[tuple[int, float]]) -> float:
    """Mean of per-batch losses, accumulated in batch-id order.

    The fixed order makes the float sum reproducible regardless of which
    worker finished which batch first.
    """
    if not losses:
        return math.nan
    total = 0.0
    for _, value in sorted(losses):
        total += value
    return total / len(losses)


class WorkQueue:
    """One party's batches for one epoch, handed out as (batch_id, attempt).

    Without a barrier the whole pool shares one FIFO.  With one, the queue is
    a rendezvous: worker ``j`` takes batch ``k * pairs + j`` in iteration
    ``k`` and then waits at the barrier, whose action averages the party's
    replicas.  A worker with no batch left in the last iteration takes an
    idle ``(None, 0)`` item, so that it still reaches the barrier.
    """

    def __init__(self, batch_ids: list[int], barrier: threading.Barrier | None = None):
        self._barrier = barrier
        lanes = 1 if barrier is None else barrier.parties
        padded = batch_ids + [None] * (-len(batch_ids) % lanes)
        self._lanes = [[(b, 0) for b in padded[j::lanes]] for j in range(lanes)]
        self._lock = threading.Lock()

    def _lane(self, w: int) -> list[tuple[int | None, int]]:
        return self._lanes[w % len(self._lanes)]  # a shared queue has one lane

    def pop(self, w: int) -> tuple[int | None, int] | None:
        with self._lock:
            lane = self._lane(w)
            return lane.pop(0) if lane else None

    def empty(self, w: int) -> bool:
        with self._lock:
            return not self._lane(w)

    def expire(self, w: int, batch_id: int, attempt: int, max_retries: int,
               stats: WorkerStats) -> None:
        """A wait for ``batch_id`` ran out: queue it again, or skip it for good."""
        if attempt < max_retries:
            with self._lock:
                self._lane(w).append((batch_id, attempt + 1))
            stats.retries += 1
        else:
            stats.skipped += 1

    def arrive(self, stats: WorkerStats) -> None:
        """End of one item: in a rendezvous, wait for the rest of the pool."""
        if self._barrier is not None:
            t0 = time.perf_counter()
            self._barrier.wait()
            stats.add_wait(time.perf_counter() - t0)


@dataclass
class WorkerStats:
    """One worker's tally for an epoch, or the sum of several (``absorb``)."""

    busy_seconds: float = 0.0
    wait_seconds: float = 0.0
    wall_seconds: float = 0.0
    max_single_wait: float = 0.0
    completed: int = 0
    skipped: int = 0
    retries: int = 0
    batch_id: int | None = None  # the batch the worker is on, named if it fails

    def add_wait(self, seconds: float) -> None:
        self.wait_seconds += seconds
        if seconds > self.max_single_wait:
            self.max_single_wait = seconds

    def absorb(self, other: WorkerStats) -> WorkerStats:
        """Add ``other``'s counts and times to this tally and keep the longest wait."""
        self.busy_seconds += other.busy_seconds
        self.wait_seconds += other.wait_seconds
        self.wall_seconds += other.wall_seconds
        self.max_single_wait = max(self.max_single_wait, other.max_single_wait)
        self.completed += other.completed
        self.skipped += other.skipped
        self.retries += other.retries
        return self


class PartyServer:
    """Parameter server for one party: averages replica groups in place."""

    def __init__(self):
        self.syncs = 0

    def sync(self, replica_groups: list[list[nn.MlpModel]]) -> None:
        """Average each replica group and broadcast the result back."""
        for group in replica_groups:
            averaged = nn.average_models(group)
            for replica in group:
                replica.load_from(averaged)
        self.syncs += 1


class EpochShared:
    """State shared by every worker thread during one epoch.

    ``cpus`` is the share this process's worker threads pin themselves to;
    empty, they run wherever the caller's thread may.
    """

    def __init__(self, broker: bk.Broker, epoch: int, cpus: Sequence[int] = ()):
        self.broker = broker
        self.epoch = epoch
        self.cpus = cpus
        self.losses: list[tuple[int, float]] = []
        self._lock = threading.Lock()
        self.failure: BaseException | None = None
        self.barriers: list[threading.Barrier] = []

    def record_loss(self, batch_id: int, value: float) -> None:
        with self._lock:
            self.losses.append((batch_id, value))

    def fail(self, exc: BaseException) -> None:
        with self._lock:
            if self.failure is None:
                self.failure = exc
            barriers = list(self.barriers)
        self.broker.close()
        for barrier in barriers:
            barrier.abort()

    def add_barrier(self, barrier: threading.Barrier) -> None:
        """Abort ``barrier`` on failure, at once if the epoch already failed."""
        with self._lock:
            self.barriers.append(barrier)
            failed = self.failure is not None
        if failed:
            barrier.abort()

    @property
    def failed(self) -> bool:
        return self.failure is not None


def _run_pool(name: str, num_workers: int, shared: EpochShared, body, *args) -> WorkerStats:
    """Run ``body(w, *args, stats)`` on one thread per worker, join them all and
    return the sum of their tallies.

    A worker's exception gets the party, worker, epoch and batch appended to
    its message and goes to :meth:`EpochShared.fail`, which stops the rest; a
    worker released from a barrier that the failure aborted just returns.
    """
    stats = [WorkerStats() for _ in range(num_workers)]

    def run(w: int) -> None:
        start = time.perf_counter()
        try:
            tp.pin_thread(shared.cpus)
            body(w, *args, stats[w])
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:  # re-raised by run_training
            _name_failure_site(
                exc, f"{name} worker {w}, epoch {shared.epoch}, batch {stats[w].batch_id}"
            )
            shared.fail(exc)
        finally:
            stats[w].wall_seconds = time.perf_counter() - start

    threads = [
        threading.Thread(target=run, args=(w,), name=f"{name}-{w}") for w in range(num_workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = WorkerStats()
    for worker in stats:
        total.absorb(worker)
    return total


def _name_failure_site(exc: BaseException, site: str) -> None:
    """Append ``site`` to the exception's message, keeping the same object.

    ``add_note`` (Python 3.11+) would leave ``str(exc)`` unchanged, so the
    site goes into the message itself wherever ``args`` carries one.
    """
    if exc.args and isinstance(exc.args[0], str):
        exc.args = (f"{exc.args[0]} [{site}]", *exc.args[1:])
    else:
        exc.args = (*exc.args, site)


def _check_alignment(message: bk.ChannelMessage, batch) -> None:
    """Raise :class:`AlignmentError` unless ``message`` covers ``batch``'s rows."""
    if message.sample_range != batch.sample_range:
        raise AlignmentError(
            f"{message.kind.value} for batch {batch.batch_id} covers rows "
            f"{message.sample_range}, expected {batch.sample_range}"
        )


@dataclass
class _PendingBatch:
    tape: nn.ForwardTape
    attempt: int


class _Engine:
    """One party's replicas: a group per model, one replica per worker in each,
    which the party's server averages group by group."""

    noise_reports: Sequence[NoiseReport] = ()  # a party that adds noise has one per worker

    def __init__(self, features, initial_models, num_workers, eta, skew_seconds, max_retries):
        self.features = features
        self.replica_groups = [[m.clone() for _ in range(num_workers)] for m in initial_models]
        self.eta = eta
        self.skew_seconds = skew_seconds
        self.max_retries = max_retries
        self.server = PartyServer()

    @property
    def num_workers(self) -> int:
        return len(self.replica_groups[0])

    def snapshot(self) -> list[nn.MlpModel]:
        return [nn.average_models(group) for group in self.replica_groups]


class PassiveEngine(_Engine):
    """The feature-only party: bottom-model replicas plus noise streams."""

    def __init__(
        self,
        features: np.ndarray,
        initial_model: nn.MlpModel,
        num_workers: int,
        eta: float,
        sigma: float,
        noise_seed: int,
        skew_seconds: float = 0.0,
        max_retries: int = 1,
    ):
        super().__init__(features, [initial_model], num_workers, eta, skew_seconds, max_retries)
        (self.replicas,) = self.replica_groups
        self.sigma = sigma
        self.noise_rngs = [worker_noise_rng(noise_seed, w) for w in range(num_workers)]
        self.noise_reports = [NoiseReport() for _ in range(num_workers)]

    def run_epoch(
        self,
        plan: BatchPlan,
        queue: WorkQueue,
        shared: EpochShared,
        deadline: float | None,
        lookahead: int,
    ) -> WorkerStats:
        return _run_pool("passive", self.num_workers, shared, self._worker_body,
                         plan, queue, shared, deadline, lookahead)

    # -- worker internals ---------------------------------------------------

    def _worker_body(self, w, plan, queue, shared, deadline, lookahead, stats):
        model = self.replicas[w]
        pending: OrderedDict[int, _PendingBatch] = OrderedDict()
        while not shared.failed:
            if pending:
                # Poll the oldest batch in flight; wait for it only when nothing
                # else can be done: the window is full or the queue is empty.
                oldest = next(iter(pending))
                blocking = len(pending) >= lookahead or queue.empty(w)
                result = shared.broker.subscribe(
                    bk.MessageKind.GRADIENT, oldest, deadline if blocking else 0.0
                )
                stats.add_wait(result.waited_seconds)
                if result.outcome is bk.SubscribeOutcome.DELIVERED:
                    self._apply_gradient(model, plan, queue, oldest, pending.pop(oldest),
                                         result.message, stats)
                    continue
                if result.outcome is bk.SubscribeOutcome.CLOSED:
                    return
                if blocking:
                    queue.expire(w, oldest, pending.pop(oldest).attempt, self.max_retries, stats)
                    continue
            item = queue.pop(w)
            if item is not None:
                batch_id, attempt = item
                if batch_id is None:
                    queue.arrive(stats)
                else:
                    tape = self._publish_embedding(w, model, plan, batch_id, shared, stats)
                    pending[batch_id] = _PendingBatch(tape, attempt)
            elif not pending and queue.empty(w):
                return

    def _publish_embedding(self, w, model, plan, batch_id, shared, stats) -> nn.ForwardTape:
        stats.batch_id = batch_id
        batch = plan.batches[batch_id]
        t0 = time.perf_counter()
        if self.skew_seconds > 0.0:
            time.sleep(self.skew_seconds)  # simulated extra compute
        x = self.features[batch.indices]
        embedding, tape = nn.forward(model, x)
        noised = add_noise(embedding, self.sigma, self.noise_rngs[w], self.noise_reports[w])
        stats.busy_seconds += time.perf_counter() - t0
        shared.broker.publish(
            bk.ChannelMessage(
                bk.MessageKind.EMBEDDING,
                batch_id,
                noised,
                batch.sample_range,
                sender_worker=w,
                param_version=model.param_version,
            )
        )
        return tape

    def _apply_gradient(self, model, plan, queue, batch_id, entry, message, stats):
        stats.batch_id = batch_id
        _check_alignment(message, plan.batches[batch_id])
        t0 = time.perf_counter()
        nn.sgd_step(model, bottom_backward(model, entry.tape, message.payload), self.eta)
        stats.busy_seconds += time.perf_counter() - t0
        stats.completed += 1
        queue.arrive(stats)


class ActiveEngine(_Engine):
    """The label-holding party: bottom + top replicas per worker."""

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        task: Task,
        initial_bottom: nn.MlpModel,
        initial_top: nn.MlpModel,
        num_workers: int,
        eta: float,
        skew_seconds: float = 0.0,
        max_retries: int = 1,
    ):
        super().__init__(features, [initial_bottom, initial_top], num_workers, eta,
                         skew_seconds, max_retries)
        self.bottoms, self.tops = self.replica_groups
        self.labels = labels
        self.task = task
        self.embed_cols = initial_bottom.out_dim

    def run_epoch(
        self,
        plan: BatchPlan,
        queue: WorkQueue,
        shared: EpochShared,
        deadline: float | None,
    ) -> WorkerStats:
        return _run_pool("active", self.num_workers, shared, self._worker_loop,
                         plan, queue, shared, deadline)

    def _worker_loop(self, w, plan, queue, shared, deadline, stats):
        while not shared.failed:
            item = queue.pop(w)
            if item is None:
                return
            batch_id, attempt = item
            stats.batch_id = batch_id
            if batch_id is not None:
                # Nothing but this worker touches its bottom before the wait ends,
                # so the forward sees the weights it would see after the wait.
                bottom_out = self._bottom_forward(w, plan.batches[batch_id], stats)
                result = shared.broker.subscribe(bk.MessageKind.EMBEDDING, batch_id, deadline)
                stats.add_wait(result.waited_seconds)
                if result.outcome is bk.SubscribeOutcome.CLOSED:
                    return
                if result.outcome is bk.SubscribeOutcome.EXPIRED:
                    queue.expire(w, batch_id, attempt, self.max_retries, stats)
                    continue  # the tape goes; a retry runs the forward again
                self._process_batch(w, plan, batch_id, result.message, bottom_out, shared, stats)
            queue.arrive(stats)

    def _bottom_forward(self, w, batch, stats) -> tuple[np.ndarray, nn.ForwardTape]:
        t0 = time.perf_counter()
        out = nn.forward(self.bottoms[w], self.features[batch.indices])
        stats.busy_seconds += time.perf_counter() - t0
        return out

    def _process_batch(self, w, plan, batch_id, message, bottom_out, shared, stats):
        batch = plan.batches[batch_id]
        _check_alignment(message, batch)
        bottom, top = self.bottoms[w], self.tops[w]
        z_active, tape_bottom = bottom_out
        t0 = time.perf_counter()
        if self.skew_seconds > 0.0:
            time.sleep(self.skew_seconds)  # simulated extra compute that needs the embedding
        y = self.labels[batch.indices]
        predictions, tape_top = nn.forward(top, top_input(top, z_active, message.payload))
        if self.task is Task.CLASSIFICATION:
            loss, d_pred = nn.cross_entropy_loss(predictions, y)
        else:
            loss, d_pred = nn.mse_loss(predictions, y)
        if not math.isfinite(loss):
            raise TrainingAbort(
                f"non-finite training loss at epoch {shared.epoch}, batch {batch_id}"
            )
        top_grads, d_top_input = nn.backward(top, tape_top, d_pred)
        d_z_active = d_top_input[:, : self.embed_cols]
        d_z_passive = np.ascontiguousarray(d_top_input[:, self.embed_cols :])
        stats.busy_seconds += time.perf_counter() - t0
        # Ship the cut-layer gradient before touching local parameters so the
        # passive side can start its backward pass as early as possible.
        shared.broker.publish(
            bk.ChannelMessage(
                bk.MessageKind.GRADIENT,
                batch_id,
                d_z_passive,
                batch.sample_range,
                sender_worker=w,
                param_version=bottom.param_version,
            )
        )
        t1 = time.perf_counter()
        bottom_grads = bottom_backward(bottom, tape_bottom, d_z_active)
        nn.sgd_step(top, top_grads, self.eta)
        nn.sgd_step(bottom, bottom_grads, self.eta)
        stats.busy_seconds += time.perf_counter() - t1
        shared.record_loss(batch_id, loss)
        stats.completed += 1


@dataclass
class RunResult:
    epochs: list[mt.EpochMetrics]
    summary: mt.RunSummary
    party_stats: list[dict]
    final_models: dict[str, nn.MlpModel]
    noise_sigma: float
    noise_report: NoiseReport

    @property
    def epoch_train_losses(self) -> list[float]:
        return [row.mean_train_loss for row in self.epochs]


def evaluate_models(
    passive_bottom: nn.MlpModel,
    active_bottom: nn.MlpModel,
    top: nn.MlpModel,
    dataset: VerticalDataset,
) -> float:
    """Test metric on clean (noise-free) embeddings: AUC up / RMSE down.

    Inference only (:func:`splitbus.nn.predict`, no tape).  The passive
    bottom runs on a short-lived helper thread while this thread runs the
    active bottom; BLAS releases the interpreter lock, so on two CPUs the
    bottoms overlap.  The helper is joined before the top model runs.
    """
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="evaluate-passive") as helper:
        passive = helper.submit(nn.predict, passive_bottom, dataset.passive_features)
        z_active = nn.predict(active_bottom, dataset.active_features)
        z_passive = passive.result()
    scores = nn.predict(top, top_input(top, z_active, z_passive))
    if dataset.task is Task.CLASSIFICATION:
        return mt.auc_score(dataset.labels, scores)
    return mt.rmse(dataset.labels, scores)


@dataclass
class EpochResult:
    """What one party's side hands back after an epoch, from either transport."""

    stats: WorkerStats | None
    failure: BaseException | None
    snapshot: list[nn.MlpModel] | None = None  # one averaged model per replica group
    noise_reports: Sequence[NoiseReport] = ()  # cumulative
    syncs: int = 0  # the party server's syncs so far
    channel_stats: bk.BrokerStats | None = None  # filled in by the process transport


@dataclass
class PartySide:
    """Everything one party needs to run its side of an epoch."""

    name: str  # "active" or "passive", as a failure names the party
    engine: PassiveEngine | ActiveEngine
    pool_args: tuple  # the engine's own ``run_epoch`` arguments after the shared ones
    num_rows: int
    batch_size: int
    seed: int
    rendezvous: bool

    def run_epoch(self, epoch: int, end_sync: bool, shared: EpochShared) -> EpochResult:
        """Plan the epoch, run the pool, then do the party's own end-of-epoch average."""
        engine = self.engine
        try:
            plan = plan_for_epoch(self.num_rows, self.batch_size, self.seed, epoch)
            barrier = None
            if self.rendezvous:  # its action averages the replicas after every iteration
                barrier = threading.Barrier(
                    engine.num_workers, action=lambda: engine.server.sync(engine.replica_groups)
                )
                shared.add_barrier(barrier)
            queue = WorkQueue([b.batch_id for b in plan.batches], barrier)
            stats = engine.run_epoch(plan, queue, shared, *self.pool_args)
            if end_sync:
                engine.server.sync(engine.replica_groups)
            snapshot = engine.snapshot()
        except BaseException as exc:  # outside the workers; re-raised by run_training
            _name_failure_site(exc, f"{self.name} party, epoch {epoch}")
            shared.fail(exc)
            return EpochResult(None, shared.failure)
        return EpochResult(stats, shared.failure, snapshot, engine.noise_reports,
                           engine.server.syncs)


class _PassiveThread:
    """The thread transport: the passive side of each epoch on one thread."""

    def __init__(self, side: PartySide):
        self.cpus: tuple[list[int], list[int]] = ([], [])  # one process: nothing to split
        self._side = side
        self._thread: threading.Thread | None = None
        self._result: EpochResult | None = None

    def begin(self, epoch: int, end_sync: bool, shared: EpochShared) -> None:
        def run() -> None:
            self._result = self._side.run_epoch(epoch, end_sync, shared)

        self._thread = threading.Thread(target=run, name="passive-party")
        self._thread.start()

    def finish(self, failed_result) -> EpochResult:
        self._thread.join()
        return self._result

    def close(self) -> None:
        if self._thread is not None:
            self._thread.join()


def _transport(passive_in_flight: int) -> str:
    """Where the passive pool runs: ``process`` (a forked child) or ``thread``.

    A second interpreter pays off when the parties can compute at once: the
    passive party has more than one batch in flight (several workers, or
    lookahead past one batch).  With one batch in flight the parties mostly
    take turns, and a child adds only its fork, its reaping and a pipe hop per
    message.  Without ``fork`` every run uses threads.
    """
    if passive_in_flight > 1 and "fork" in multiprocessing.get_all_start_methods():
        return "process"
    return "thread"


def _first_failure(shared: EpochShared, passive: EpochResult) -> BaseException | None:
    """The failure to raise: a party's own error before a peer-gone report."""
    for failure in (shared.failure, passive.failure):
        if failure is not None and not isinstance(failure, tp.PeerGone):
            return failure
    return passive.failure if passive.failure is not None else shared.failure


def run_training(
    train: VerticalDataset,
    test: VerticalDataset | None,
    cfg: TrainConfig,
) -> RunResult:
    """Run one training job in the configured mode and collect metrics.

    Raises :class:`TrainingAbort` if the loss goes non-finite, and
    :class:`AlignmentError` if a cross-party message ever pairs up with the
    wrong batch (that one indicates a bug, not a condition to tolerate).
    """
    if cfg.mode in SINGLE_PAIR_MODES and (cfg.workers_active != 1 or cfg.workers_passive != 1):
        raise ConfigError(
            f"train.mode = {cfg.mode.value} runs exactly one worker per party, but "
            f"train.workers_active = {cfg.workers_active} and "
            f"train.workers_passive = {cfg.workers_passive}"
        )
    if cfg.mode in ONE_IN_FLIGHT_MODES and cfg.lookahead is not None:
        raise ConfigError(
            f"train.mode = {cfg.mode.value} holds one batch in flight, so "
            f"train.lookahead = {cfg.lookahead} does not apply"
        )

    n = train.num_rows
    num_batches = bk.channel_count_for(n, cfg.batch_size)
    passive_init, active_init, top_init = build_models(
        cfg.shape, train.active_features.shape[1], train.passive_features.shape[1],
        train.task, cfg.seed,
    )
    sigma = noise_sigma(cfg, n)

    policy = MODE_POLICIES[cfg.mode]
    broker = bk.Broker(num_batches, 1, 1)  # each channel keeps its newest message
    workers_active, workers_passive = cfg.workers_active, cfg.workers_passive
    if policy.rendezvous:  # only matched pairs train, so only they hold replicas
        workers_active = workers_passive = min(workers_active, workers_passive)

    passive = PassiveEngine(
        train.passive_features, passive_init, workers_passive, cfg.learning_rate, sigma,
        derive_seed(cfg.seed, _SEED_NOISE), cfg.skew_passive_seconds, cfg.max_retries,
    )
    active = ActiveEngine(
        train.active_features, train.labels, train.task, active_init, top_init,
        workers_active, cfg.learning_rate, cfg.skew_active_seconds, cfg.max_retries,
    )

    deadline = cfg.deadline_seconds if policy.waits_expire else None
    lookahead = policy.lookahead(cfg, num_batches)
    plan_args = (n, cfg.batch_size, cfg.seed, policy.rendezvous)
    passive_side = PartySide("passive", passive, (deadline, lookahead), *plan_args)
    active_side = PartySide("active", active, (deadline,), *plan_args)
    transport = _transport(workers_passive * lookahead)
    if transport == "process":  # fork before any runtime thread starts
        passive_party = tp.PassiveProcess(broker, passive_side.run_epoch)
    else:
        passive_party = _PassiveThread(passive_side)
    cpus_active, cpus_passive = passive_party.cpus

    epoch_rows: list[mt.EpochMetrics] = []
    party_rows: list[dict] = []
    prev_stats = broker.stats()
    stopped_early = False

    try:
        for epoch in range(1, cfg.epochs + 1):
            broker.flush_all()  # deadline-skipped leftovers never leak across epochs
            shared = EpochShared(broker, epoch, cpus_active)
            epoch_start = time.perf_counter()

            end_sync = policy.end_sync(cfg.sync_base_interval, epoch)
            passive_party.begin(epoch, end_sync, shared)
            active_result = active_side.run_epoch(epoch, end_sync, shared)
            passive_result = passive_party.finish(lambda exc: EpochResult(None, exc))

            epoch_wall = time.perf_counter() - epoch_start
            failure = _first_failure(shared, passive_result)
            if failure is not None:
                raise failure

            passive_stats, active_stats = passive_result.stats, active_result.stats
            broker_now = broker.stats()
            (passive_snapshot,) = passive_result.snapshot
            active_bottom_snap, top_snap = active_result.snapshot
            test_metric = (
                evaluate_models(passive_snapshot, active_bottom_snap, top_snap, test)
                if test is not None
                else None
            )
            both = WorkerStats().absorb(passive_stats).absorb(active_stats)
            epoch_rows.append(
                mt.EpochMetrics(
                    epoch=epoch,
                    wall_seconds=epoch_wall,
                    mean_train_loss=batch_loss_mean(shared.losses),
                    test_metric=test_metric,
                    total_wait_seconds=both.wait_seconds,
                    active_wait_seconds=active_stats.wait_seconds,
                    passive_wait_seconds=passive_stats.wait_seconds,
                    max_single_wait=both.max_single_wait,
                    busy_fraction=(both.busy_seconds / both.wall_seconds
                                   if both.wall_seconds > 0 else 0.0),
                    bytes_published=broker_now.bytes_published,
                    batches_completed=active_stats.completed,
                    batches_skipped=both.skipped,
                    batch_retries=both.retries,
                    evictions=broker_now.evicted - prev_stats.evicted,
                    sync_performed=end_sync or policy.rendezvous,
                )
            )
            party_rows.append(
                {
                    "epoch": epoch,
                    "passive_completed": passive_stats.completed,
                    "passive_skipped": passive_stats.skipped,
                    "active_completed": active_stats.completed,
                    "active_skipped": active_stats.skipped,
                    "max_single_wait": both.max_single_wait,
                }
            )
            prev_stats = broker_now
            if cfg.loss_target is not None and epoch_rows[-1].mean_train_loss <= cfg.loss_target:
                stopped_early = True
                break
    finally:
        passive_party.close()

    merged_report = NoiseReport(sigma=sigma)
    for report in passive_result.noise_reports:
        merged_report.entries += report.entries
        merged_report.total += report.total
        merged_report.total_sq += report.total_sq

    higher_better = train.task is Task.CLASSIFICATION
    target_time = (
        mt.time_to_target(epoch_rows, cfg.target_metric, higher_better)
        if cfg.target_metric is not None
        else None
    )
    final_stats = broker.stats()
    test_metrics = [r.test_metric for r in epoch_rows if r.test_metric is not None]
    summary = mt.RunSummary(
        mode=cfg.mode.value,
        epochs_run=len(epoch_rows),
        total_wall_seconds=sum(r.wall_seconds for r in epoch_rows),
        final_train_loss=epoch_rows[-1].mean_train_loss,
        final_test_metric=epoch_rows[-1].test_metric,
        best_test_metric=(
            (max(test_metrics) if higher_better else min(test_metrics))
            if test_metrics
            else None
        ),
        total_bytes_published=final_stats.bytes_published,
        total_batches_skipped=sum(r.batches_skipped for r in epoch_rows),
        total_batch_retries=sum(r.batch_retries for r in epoch_rows),
        total_evictions=final_stats.evicted,
        ps_syncs=passive_result.syncs,
        noise_sigma=sigma,
        time_to_target_seconds=target_time,
        stopped_early=stopped_early,
        transport=transport,
        cpus_active=cpus_active,
        cpus_passive=cpus_passive,
    )
    broker.close()
    return RunResult(
        epochs=epoch_rows,
        summary=summary,
        party_stats=party_rows,
        final_models={
            "passive_bottom": passive_snapshot,
            "active_bottom": active_bottom_snap,
            "top": top_snap,
        },
        noise_sigma=sigma,
        noise_report=merged_report,
    )
