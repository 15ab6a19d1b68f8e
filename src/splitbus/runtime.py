"""Two-party training runtime.

The passive party owns the feature-only bottom model; the active party owns
its bottom model, the top model and the labels.  When the passive party can
have more than one batch in flight, its worker pool runs in one forked child
process (the ``process`` transport, :mod:`splitbus.transport`) and the active
pool, evaluation and the aggregation schedule stay in the parent, so the two
parties do not share one interpreter lock; with one batch in flight, or
without ``fork``, both pools run in this process (the ``thread`` transport).
:func:`_transport` makes that choice and :class:`~splitbus.metrics.RunSummary`
records it.  Workers are threads either way; the only things the parties
share are the batch plan (derived from the run seed on both sides) and the
broker's channels.  Both transports run the passive side of an epoch
through the same :meth:`PassiveSide.run_epoch`.

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

Every mode runs the same worker loop per party.  The modes differ only in
the settings of :data:`MODE_POLICIES`, the one table that says how far a
passive worker may run ahead, whether waits expire, whether channels hold one
message, whether the pools rendezvous after every iteration (``sync_ps``),
and when the parameter servers average replicas at the end of an epoch; see
:class:`splitbus.config.Mode` for the modes themselves.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import broker as bk
from . import metrics as mt
from . import nn
from . import transport as tp
from .config import Mode, TrainConfig, ConfigError, SINGLE_PAIR_MODES
from .data import BatchPlan, Task, VerticalDataset, make_batch_plan
from .privacy import GdpConfig, NoiseReport, add_noise, calibrate_sigma, worker_noise_rng
from .schedule import AggregationSchedule


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
    in a sigmoid for classification, identity for regression.
    """
    passive_dims = [d_passive, *shape.passive_hidden, shape.passive_embed]
    active_dims = [d_active, *shape.active_hidden, shape.active_embed]
    top_dims = [shape.active_embed + shape.passive_embed, *shape.top_hidden, 1]
    head = nn.Activation.SIGMOID if task is Task.CLASSIFICATION else nn.Activation.IDENTITY
    passive = nn.init_mlp(
        passive_dims, [nn.Activation.RELU] * (len(passive_dims) - 1),
        derive_seed(seed, _SEED_PASSIVE_BOTTOM),
    )
    active = nn.init_mlp(
        active_dims, [nn.Activation.RELU] * (len(active_dims) - 1),
        derive_seed(seed, _SEED_ACTIVE_BOTTOM),
    )
    top = nn.init_mlp(
        top_dims, [nn.Activation.RELU] * (len(top_dims) - 2) + [head],
        derive_seed(seed, _SEED_TOP),
    )
    return passive, active, top


def plan_for_epoch(num_rows: int, batch_size: int, run_seed: int, epoch: int) -> BatchPlan:
    """Both parties call this with the same arguments and get the same plan."""
    return make_batch_plan(num_rows, batch_size, derive_seed(run_seed, _SEED_PLAN, epoch))


def noise_sigma(cfg: TrainConfig, num_rows: int) -> float:
    """Embedding noise std for a run over ``num_rows`` training rows.

    The privacy accounting counts one query per batch of an epoch unless
    ``privacy_queries`` says otherwise.
    """
    return calibrate_sigma(
        GdpConfig(
            privacy_mu=cfg.privacy_mu,
            minibatch_size=cfg.batch_size,
            whole_batch_size=num_rows,
            num_queries=cfg.privacy_queries or bk.channel_count_for(num_rows, cfg.batch_size),
            scale_constant=cfg.privacy_scale_constant,
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


@dataclass
class PartyEpochStats:
    workers: list[WorkerStats]

    @property
    def completed(self) -> int:
        return sum(w.completed for w in self.workers)

    @property
    def skipped(self) -> int:
        return sum(w.skipped for w in self.workers)

    @property
    def retries(self) -> int:
        return sum(w.retries for w in self.workers)

    @property
    def busy_seconds(self) -> float:
        return sum(w.busy_seconds for w in self.workers)

    @property
    def wait_seconds(self) -> float:
        return sum(w.wait_seconds for w in self.workers)

    @property
    def wall_seconds(self) -> float:
        return sum(w.wall_seconds for w in self.workers)

    @property
    def max_single_wait(self) -> float:
        return max((w.max_single_wait for w in self.workers), default=0.0)


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


def _run_pool(name: str, num_workers: int, shared: EpochShared, body, *args) -> PartyEpochStats:
    """Run ``body(w, *args, stats)`` on one thread per worker and join them all.

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
    return PartyEpochStats(stats)


def _name_failure_site(exc: BaseException, site: str) -> None:
    """Append ``site`` to the exception's message, keeping the same object.

    ``add_note`` (Python 3.11+) would leave ``str(exc)`` unchanged, so the
    site goes into the message itself wherever ``args`` carries one.
    """
    if exc.args and isinstance(exc.args[0], str):
        exc.args = (f"{exc.args[0]} [{site}]", *exc.args[1:])
    else:
        exc.args = (*exc.args, site)


@dataclass
class _PendingBatch:
    tape: nn.ForwardTape
    attempt: int


class PassiveEngine:
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
        self.features = features
        self.replicas = [initial_model.clone() for _ in range(num_workers)]
        self.eta = eta
        self.sigma = sigma
        self.skew_seconds = skew_seconds
        self.max_retries = max_retries
        self.noise_rngs = [worker_noise_rng(noise_seed, w) for w in range(num_workers)]
        self.noise_reports = [NoiseReport() for _ in range(num_workers)]
        self.server = PartyServer()

    @property
    def num_workers(self) -> int:
        return len(self.replicas)

    def replica_groups(self) -> list[list[nn.MlpModel]]:
        return [self.replicas]

    def snapshot(self) -> nn.MlpModel:
        return nn.average_models(self.replicas)

    def run_epoch(
        self,
        plan: BatchPlan,
        queue: WorkQueue,
        shared: EpochShared,
        deadline: float | None,
        lookahead: int,
    ) -> PartyEpochStats:
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
        batch = plan.batches[batch_id]
        if message.sample_range != batch.sample_range:
            raise AlignmentError(
                f"gradient for batch {batch_id} covers rows {message.sample_range}, "
                f"expected {batch.sample_range}"
            )
        t0 = time.perf_counter()
        grads, _ = nn.backward(model, entry.tape, message.payload, input_grad=False)
        nn.sgd_step(model, grads, self.eta)
        stats.busy_seconds += time.perf_counter() - t0
        stats.completed += 1
        queue.arrive(stats)


class ActiveEngine:
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
        self.features = features
        self.labels = labels
        self.task = task
        self.bottoms = [initial_bottom.clone() for _ in range(num_workers)]
        self.tops = [initial_top.clone() for _ in range(num_workers)]
        self.embed_cols = initial_bottom.out_dim
        self.eta = eta
        self.skew_seconds = skew_seconds
        self.max_retries = max_retries
        self.server = PartyServer()

    @property
    def num_workers(self) -> int:
        return len(self.bottoms)

    def replica_groups(self) -> list[list[nn.MlpModel]]:
        return [self.bottoms, self.tops]

    def snapshot(self) -> tuple[nn.MlpModel, nn.MlpModel]:
        return nn.average_models(self.bottoms), nn.average_models(self.tops)

    def run_epoch(
        self,
        plan: BatchPlan,
        queue: WorkQueue,
        shared: EpochShared,
        deadline: float | None,
    ) -> PartyEpochStats:
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
        if message.sample_range != batch.sample_range:
            raise AlignmentError(
                f"embedding for batch {batch_id} covers rows {message.sample_range}, "
                f"expected {batch.sample_range}"
            )
        bottom, top = self.bottoms[w], self.tops[w]
        z_active, tape_bottom = bottom_out
        t0 = time.perf_counter()
        if self.skew_seconds > 0.0:
            time.sleep(self.skew_seconds)  # simulated extra compute that needs the embedding
        y = self.labels[batch.indices]
        top_input = np.concatenate([z_active, message.payload], axis=1)
        predictions, tape_top = nn.forward(top, top_input)
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
        bottom_grads, _ = nn.backward(bottom, tape_bottom, d_z_active, input_grad=False)
        nn.sgd_step(top, top_grads, self.eta)
        nn.sgd_step(bottom, bottom_grads, self.eta)
        stats.busy_seconds += time.perf_counter() - t1
        shared.record_loss(batch_id, loss)
        stats.completed += 1


@dataclass
class RunResult:
    mode: Mode
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
    scores = nn.predict(top, np.concatenate([z_active, z_passive], axis=1))
    if dataset.task is Task.CLASSIFICATION:
        return mt.auc_score(dataset.labels, scores)
    return mt.rmse(dataset.labels, scores)


@dataclass(frozen=True)
class ModePolicy:
    """How one mode coordinates its workers; the only place the modes differ."""

    lookahead: Callable[[TrainConfig, int], int]  # (cfg, batches per epoch) -> in flight
    waits_expire: bool  # subscribes give up after cfg.deadline_seconds
    depth_one_channels: bool  # capacity-1 channels instead of the configured ones
    rendezvous: bool  # static assignment, replicas averaged after every iteration
    end_sync: Callable[[AggregationSchedule, int], bool]  # average after this epoch?


def _one_in_flight(cfg: TrainConfig, num_batches: int) -> int:
    return 1


def _pipelined(cfg: TrainConfig, num_batches: int) -> int:
    # One batch of lookahead hides the other party's latency; a single worker
    # keeps lookahead 1 so the degenerate config stays deterministic.
    return cfg.lookahead or (1 if cfg.workers_passive == 1 else 2)


def _free_running(cfg: TrainConfig, num_batches: int) -> int:
    return cfg.lookahead or num_batches  # never wait before the queue is empty


def _never(schedule: AggregationSchedule, epoch: int) -> bool:
    return False


def _always(schedule: AggregationSchedule, epoch: int) -> bool:
    return True


MODE_POLICIES: dict[Mode, ModePolicy] = {
    #                      lookahead  expire  depth-1  rendezvous  end_sync
    Mode.LOCKSTEP: ModePolicy(_one_in_flight, False, False, False, _never),
    Mode.SYNC_PS: ModePolicy(_one_in_flight, False, False, True, _never),
    Mode.PUBSUB: ModePolicy(_pipelined, True, False, False, AggregationSchedule.should_sync),
    Mode.ASYNC: ModePolicy(_free_running, True, True, False, _never),
    Mode.ASYNC_PS: ModePolicy(_free_running, True, False, False, _always),
}


def _rendezvous_queue(
    engine: PassiveEngine | ActiveEngine, batch_ids: list[int], shared: EpochShared
) -> WorkQueue:
    """Static lanes plus a barrier whose action averages the party's replicas."""
    barrier = threading.Barrier(
        engine.num_workers, action=lambda: engine.server.sync(engine.replica_groups())
    )
    shared.add_barrier(barrier)
    return WorkQueue(batch_ids, barrier)


@dataclass
class PassiveEpochResult:
    """What the passive side hands back after one epoch, from either transport."""

    stats: PartyEpochStats | None
    failure: BaseException | None
    snapshot: nn.MlpModel | None = None
    noise_reports: list[NoiseReport] = field(default_factory=list)  # cumulative
    syncs: int = 0  # the party server's syncs so far
    channel_stats: bk.BrokerStats | None = None  # filled in by the process transport


@dataclass
class PassiveSide:
    """Everything the passive party needs to run its side of an epoch."""

    engine: PassiveEngine
    num_rows: int
    batch_size: int
    seed: int
    rendezvous: bool
    deadline: float | None
    lookahead: int

    def run_epoch(self, epoch: int, end_sync: bool, shared: EpochShared) -> PassiveEpochResult:
        """The pool's epoch, then the party's own end-of-epoch average."""
        engine = self.engine
        try:
            plan = plan_for_epoch(self.num_rows, self.batch_size, self.seed, epoch)
            batch_ids = [b.batch_id for b in plan.batches]
            queue = (_rendezvous_queue(engine, batch_ids, shared) if self.rendezvous
                     else WorkQueue(batch_ids))
            stats = engine.run_epoch(plan, queue, shared, self.deadline, self.lookahead)
            if end_sync:
                engine.server.sync(engine.replica_groups())
            snapshot = engine.snapshot()
        except BaseException as exc:  # outside the workers; re-raised by run_training
            _name_failure_site(exc, f"passive party, epoch {epoch}")
            shared.fail(exc)
            return PassiveEpochResult(None, shared.failure)
        return PassiveEpochResult(stats, shared.failure, snapshot, engine.noise_reports,
                                  engine.server.syncs)


class _PassiveThread:
    """The thread transport: the passive side of each epoch on one thread."""

    def __init__(self, side: PassiveSide):
        self.cpus: tuple[list[int], list[int]] = ([], [])  # one process: nothing to split
        self._side = side
        self._thread: threading.Thread | None = None
        self._result: PassiveEpochResult | None = None

    def begin(self, epoch: int, end_sync: bool, shared: EpochShared) -> None:
        def run() -> None:
            self._result = self._side.run_epoch(epoch, end_sync, shared)

        self._thread = threading.Thread(target=run, name="passive-party")
        self._thread.start()

    def finish(self, failed_result) -> PassiveEpochResult:
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


def _first_failure(
    shared: EpochShared, passive: PassiveEpochResult
) -> BaseException | None:
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
        raise ConfigError(f"mode {cfg.mode.value} runs exactly one worker per party")

    n = train.num_rows
    num_batches = bk.channel_count_for(n, cfg.batch_size)
    d_active = train.active_features.shape[1]
    d_passive = train.passive_features.shape[1]
    passive_init, active_init, top_init = build_models(
        cfg.shape, d_active, d_passive, train.task, cfg.seed
    )

    sigma = noise_sigma(cfg, n)

    policy = MODE_POLICIES[cfg.mode]
    capacities = (1, 1) if policy.depth_one_channels else (cfg.embed_capacity, cfg.grad_capacity)
    broker = bk.Broker(num_batches, *capacities)
    workers_active, workers_passive = cfg.workers_active, cfg.workers_passive
    if policy.rendezvous:  # only matched pairs train, so only they hold replicas
        workers_active = workers_passive = min(workers_active, workers_passive)

    passive = PassiveEngine(
        train.passive_features,
        passive_init,
        workers_passive,
        cfg.learning_rate,
        sigma,
        derive_seed(cfg.seed, _SEED_NOISE),
        skew_seconds=cfg.skew_passive_seconds,
        max_retries=cfg.max_retries,
    )
    active = ActiveEngine(
        train.active_features,
        train.labels,
        train.task,
        active_init,
        top_init,
        workers_active,
        cfg.learning_rate,
        skew_seconds=cfg.skew_active_seconds,
        max_retries=cfg.max_retries,
    )

    schedule = AggregationSchedule(cfg.sync_base_interval)
    deadline = cfg.deadline_seconds if policy.waits_expire else None
    side = PassiveSide(passive, n, cfg.batch_size, cfg.seed, policy.rendezvous, deadline,
                       policy.lookahead(cfg, num_batches))
    transport = _transport(workers_passive * side.lookahead)
    if transport == "process":  # fork before any runtime thread starts
        passive_party = tp.PassiveProcess(broker, side.run_epoch)
    else:
        passive_party = _PassiveThread(side)
    cpus_active, cpus_passive = passive_party.cpus

    epoch_rows: list[mt.EpochMetrics] = []
    party_rows: list[dict] = []
    prev_stats = broker.stats()
    stopped_early = False

    try:
        for epoch in range(1, cfg.epochs + 1):
            plan = plan_for_epoch(n, cfg.batch_size, cfg.seed, epoch)
            broker.flush_all()  # deadline-skipped leftovers never leak across epochs
            shared = EpochShared(broker, epoch, cpus_active)
            epoch_start = time.perf_counter()

            end_sync = policy.end_sync(schedule, epoch)
            batch_ids = [b.batch_id for b in plan.batches]
            queue_a = (_rendezvous_queue(active, batch_ids, shared) if policy.rendezvous
                       else WorkQueue(batch_ids))
            passive_party.begin(epoch, end_sync, shared)
            active_stats = active.run_epoch(plan, queue_a, shared, deadline)
            passive_result = passive_party.finish(lambda exc: PassiveEpochResult(None, exc))
            if end_sync:
                active.server.sync(active.replica_groups())

            epoch_wall = time.perf_counter() - epoch_start
            failure = _first_failure(shared, passive_result)
            if failure is not None:
                raise failure

            passive_stats = passive_result.stats
            broker_now = broker.stats()
            passive_snapshot = passive_result.snapshot
            active_bottom_snap, top_snap = active.snapshot()
            test_metric = (
                evaluate_models(passive_snapshot, active_bottom_snap, top_snap, test)
                if test is not None
                else None
            )
            total_wall_threads = passive_stats.wall_seconds + active_stats.wall_seconds
            busy = passive_stats.busy_seconds + active_stats.busy_seconds
            max_wait = max(passive_stats.max_single_wait, active_stats.max_single_wait)
            epoch_rows.append(
                mt.EpochMetrics(
                    epoch=epoch,
                    wall_seconds=epoch_wall,
                    mean_train_loss=batch_loss_mean(shared.losses),
                    test_metric=test_metric,
                    total_wait_seconds=passive_stats.wait_seconds + active_stats.wait_seconds,
                    active_wait_seconds=active_stats.wait_seconds,
                    passive_wait_seconds=passive_stats.wait_seconds,
                    max_single_wait=max_wait,
                    busy_fraction=busy / total_wall_threads if total_wall_threads > 0 else 0.0,
                    bytes_published=broker_now.bytes_published,
                    batches_completed=active_stats.completed,
                    batches_skipped=active_stats.skipped + passive_stats.skipped,
                    batch_retries=active_stats.retries + passive_stats.retries,
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
                    "max_single_wait": max_wait,
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
        mode=cfg.mode,
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
