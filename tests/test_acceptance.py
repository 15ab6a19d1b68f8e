"""The package's contract, one test per promised behavior.

Each test is self-contained, runs at the stated tolerance, and asserts its
own wall-clock budget where the behavior includes one.  Run with ``-v`` to
get a single pass/fail line per guarantee.
"""

import math
import threading
import time
import warnings

import mpmath
import numpy as np
import pytest

import splitbus.broker as bk
import splitbus.nn as nn
from splitbus.config import Mode, TrainConfig
from splitbus.data import LabeledTable, Task, generate_synthetic, split_rows, vertical_split
from splitbus.planner import SearchSpace, dp_search
from splitbus.privacy import GdpConfig, NoiseReport, add_noise, calibrate_sigma, worker_noise_rng
from splitbus.profiler import DEFAULT_BATCH_SWEEP, fit_power_law, memory_bound
from splitbus.reference import run_reference
from splitbus.runtime import (
    EpochShared,
    PassiveEngine,
    WorkQueue,
    build_models,
    plan_for_epoch,
    run_training,
)
from splitbus.schedule import sync_interval

from oracles import (
    brute_force_search,
    fd_input_grad,
    fd_model_grads,
    max_relative_error,
    random_delay_constants,
    random_mlp_case,
    realistic_constants,
)


def _vertical(n, d, seed, separation=0.35, informative=None, task=Task.CLASSIFICATION):
    table = generate_synthetic(
        n, d, num_informative=informative, task=task, seed=seed, separation=separation
    )
    train_rows, test_rows = split_rows(table, test_fraction=0.3, seed=seed)
    num_active = d // 2
    return (
        vertical_split(train_rows, num_active, seed=seed),
        vertical_split(test_rows, num_active, seed=seed),
    )


# -- gradients -----------------------------------------------------------------


def test_backward_matches_central_differences_on_100_random_models():
    started = time.perf_counter()
    for case in range(100):
        model, x, y, loss = random_mlp_case(seed=7000 + case)
        out, tape = nn.forward(model, x)
        if loss == "ce":
            _, d_out = nn.cross_entropy_loss(out, y)
        else:
            _, d_out = nn.mse_loss(out, y)
        grads, d_input = nn.backward(model, tape, d_out)
        fd_grads = fd_model_grads(model, x, y, loss)
        for got, want in zip(grads, fd_grads):
            assert max_relative_error(got.d_weight, want.d_weight) <= 1e-5, case
            assert max_relative_error(got.d_bias, want.d_bias) <= 1e-5, case
        fd_x = fd_input_grad(model, x, y, loss)
        assert max_relative_error(d_input, fd_x) <= 1e-5, case
    assert time.perf_counter() - started < 30.0


# -- serial equivalence --------------------------------------------------------


def test_single_worker_modes_reproduce_serial_training_bit_for_bit():
    started = time.perf_counter()
    train, _ = _vertical(n=1000, d=20, seed=31)
    kwargs = dict(
        workers_active=1, workers_passive=1, batch_size=128,
        learning_rate=0.05, epochs=5, seed=31,
    )
    oracle = run_reference(train, None, TrainConfig(mode=Mode.LOCKSTEP, **kwargs))
    for mode in (Mode.LOCKSTEP, Mode.PUBSUB):
        result = run_training(train, None, TrainConfig(mode=mode, **kwargs))
        assert result.epoch_train_losses == oracle["epoch_train_losses"], mode
        for name, model in result.final_models.items():
            want = oracle["models"][name]
            for got_layer, want_layer in zip(model.layers, want.layers):
                assert np.array_equal(got_layer.weight, want_layer.weight), (mode, name)
                assert np.array_equal(got_layer.bias, want_layer.bias), (mode, name)
    assert time.perf_counter() - started < 10.0


# -- aggregation schedule ------------------------------------------------------


def test_sync_interval_exact_everywhere_against_high_precision_oracle():
    def oracle(base, epoch):
        with mpmath.workdps(50):
            half = mpmath.mpf(base) / 2
            arg = mpmath.mpf(2 * epoch) / base - 2
            return int(mpmath.ceil(half * mpmath.tanh(arg) + half))

    for base in range(1, 51):
        previous = 0
        for epoch in range(1, 501):
            got = sync_interval(base, epoch)
            assert got == oracle(base, epoch), (base, epoch)
            assert 1 <= got <= base
            assert got >= previous
            previous = got
    assert sync_interval(5, 5) == 3
    assert sync_interval(5, 500) == 5


# -- plan search ---------------------------------------------------------------


def test_dp_plan_search_agrees_with_enumeration_on_200_random_grids():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    full_sweep = [16, 32, 64, 128, 256, 512, 1024]
    cases = [(realistic_constants(), SearchSpace(1, 10, 1, 10, full_sweep))]
    while len(cases) < 200:
        n_batches = int(rng.integers(1, 8))
        candidates = sorted(rng.choice([2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048],
                                       size=n_batches, replace=False).tolist())
        constants = random_delay_constants(rng, candidates)
        lo_a = int(rng.integers(1, 5))
        lo_p = int(rng.integers(1, 5))
        space = SearchSpace(
            lo_a, lo_a + int(rng.integers(0, 10)),
            lo_p, lo_p + int(rng.integers(0, 10)),
            candidates,
        )
        cases.append((constants, space))
    for constants, space in cases:
        fast = dp_search(constants, space)
        slow = brute_force_search(constants, space)
        assert fast.cost_seconds == slow.cost_seconds
        assert fast == slow  # identical choice under the declared tie-break
        assert fast.batch_size <= memory_bound(constants)
    assert time.perf_counter() - started < 10.0


# -- memory ceiling ------------------------------------------------------------


def test_memory_ceiling_exact_closed_form_cases():
    linear = realistic_constants(
        mem_base_active=100.0, mem_base_passive=100.0,
        mem_slope_active=1.0, mem_slope_passive=1.0,
        mem_budget_active=1000.0, mem_budget_passive=1000.0,
    )
    assert memory_bound(linear) == 900.0
    passive_binds = realistic_constants(
        mem_base_active=0.0, mem_base_passive=24.0,
        mem_slope_active=4.0, mem_slope_passive=8.0,
        mem_budget_active=1600.0, mem_budget_passive=1600.0,
    )
    assert memory_bound(passive_binds) == 197.0  # min(1600 / 4, 1576 / 8)


# -- delay-model fitting -------------------------------------------------------


def test_power_law_fit_recovers_planted_curves():
    sweep = list(DEFAULT_BATCH_SWEEP)
    for lam in (0.01, 0.018, 2.0):
        for gam in (-1.0071, -0.5, 0.5):
            clean = [lam * b**gam for b in sweep]
            coef, exponent, r2 = fit_power_law(sweep, clean)
            assert abs(coef - lam) <= 1e-9, (lam, gam)
            assert abs(exponent - gam) <= 1e-9, (lam, gam)
            assert r2 > 0.999999

    rng = np.random.default_rng(88)
    for lam in (0.01, 0.018, 2.0):
        for gam in (-1.0071, -0.5, 0.5):
            noisy = [lam * b**gam * rng.uniform(0.95, 1.05) for b in sweep]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                _, exponent, _ = fit_power_law(sweep, noisy)
            assert abs(exponent - gam) <= 0.05, (lam, gam)


# -- noise calibration ---------------------------------------------------------


def test_noise_scale_formula_and_empirical_std():
    started = time.perf_counter()
    assert calibrate_sigma(GdpConfig(1.0, 1, 1, 1)) == 1.0
    assert calibrate_sigma(GdpConfig(2.0, 1, 1, 1)) == 0.5
    assert calibrate_sigma(GdpConfig(1.0, 3, 6, 4, scale_constant=2.0)) == 2.0
    assert calibrate_sigma(GdpConfig(math.inf, 256, 10000, 40)) == 0.0

    for worker, mu in enumerate((0.1, 1.0, 10.0)):
        sigma = calibrate_sigma(GdpConfig(mu, 128, 4096, 32))
        assert sigma == 128.0 * math.sqrt(32.0) / (mu * 4096.0)
        report = NoiseReport()
        rng = worker_noise_rng(noise_seed=424242, worker_id=worker)
        add_noise(np.zeros((100_000, 1)), sigma, rng, report)
        assert report.entries == 100_000
        assert abs(report.empirical_std - sigma) / sigma <= 0.02, mu

    # infinite budget: same array back, and the RNG stream is never touched
    embedding = np.arange(12.0).reshape(3, 4)
    untouched = worker_noise_rng(7, 0)
    twin = worker_noise_rng(7, 0)
    out = add_noise(embedding, 0.0, untouched)
    assert out is embedding
    assert untouched.normal() == twin.normal()
    assert time.perf_counter() - started < 10.0


# -- broker safety under fire --------------------------------------------------


def test_broker_stress_no_loss_no_duplication_no_overflow():
    started = time.perf_counter()
    num_ids = 25
    publishers, subscribers = 8, 8
    per_publisher = 1250  # 8 x 1250 = 10_000 messages
    broker = bk.Broker(num_ids, embed_capacity=5, grad_capacity=5)
    published_uids, delivered_uids = set(), []
    record_lock = threading.Lock()
    done_publishing = threading.Event()
    max_depth_seen = 0

    def publish(pub):
        rng = np.random.default_rng(pub)
        mine = []
        for seq in range(per_publisher):
            uid = pub * 100_000 + seq
            kind = bk.MessageKind.EMBEDDING if seq % 2 == 0 else bk.MessageKind.GRADIENT
            broker.publish(bk.ChannelMessage(
                kind=kind, batch_id=int(rng.integers(0, num_ids)),
                payload=np.full((1, 1), float(uid)),
                sample_range=(0, 1), sender_worker=pub, param_version=seq,
            ))
            mine.append(uid)
        with record_lock:
            published_uids.update(mine)

    def subscribe(sub):
        got = []
        while True:
            quiet = done_publishing.is_set()
            swept_any = False
            for batch_id in range(num_ids):
                for kind in (bk.MessageKind.EMBEDDING, bk.MessageKind.GRADIENT):
                    res = broker.subscribe(kind, batch_id, timeout=0.0005)
                    if res.outcome is bk.SubscribeOutcome.DELIVERED:
                        got.append(int(res.message.payload[0, 0]))
                        swept_any = True
            if quiet and not swept_any:
                break
        with record_lock:
            delivered_uids.extend(got)

    def watch_depths():
        nonlocal max_depth_seen
        while not done_publishing.is_set():
            depth = max(ch.size() for ch in broker._channels.values())
            max_depth_seen = max(max_depth_seen, depth)

    threads = [threading.Thread(target=publish, args=(p,)) for p in range(publishers)]
    threads += [threading.Thread(target=subscribe, args=(s,)) for s in range(subscribers)]
    watcher = threading.Thread(target=watch_depths)
    for t in threads:
        t.start()
    watcher.start()
    for t in threads[:publishers]:
        t.join()
    done_publishing.set()
    for t in threads[publishers:]:
        t.join()
    watcher.join()

    stats = broker.stats()
    assert stats.published == publishers * per_publisher
    assert len(delivered_uids) == len(set(delivered_uids))  # nothing duplicated
    assert set(delivered_uids) <= published_uids  # nothing fabricated
    assert len(delivered_uids) == stats.delivered
    assert stats.flushed == 0
    assert stats.published == stats.delivered + stats.evicted + stats.residual
    assert stats.evicted > 0  # the capacity bound actually bit
    assert max_depth_seen <= 5
    assert all(ch.size() <= 5 for ch in broker._channels.values())
    assert time.perf_counter() - started < 30.0


# -- waiting deadlines ---------------------------------------------------------


def test_halted_consumer_cannot_stall_an_epoch():
    seed = 13
    table = generate_synthetic(192, 10, task=Task.CLASSIFICATION, seed=seed)
    train = vertical_split(table, num_active=5, seed=seed)
    plan = plan_for_epoch(train.num_rows, 32, seed, epoch=1)
    shape = TrainConfig().shape
    passive_init, _, _ = build_models(
        shape, 5, train.passive_features.shape[1], train.task, seed
    )
    broker = bk.Broker(plan.num_batches, 5, 5)
    engine = PassiveEngine(
        train.passive_features, passive_init, num_workers=2, eta=0.05,
        sigma=0.0, noise_seed=0, max_retries=1,
    )
    shared = EpochShared(broker, epoch=1)
    queue = WorkQueue([b.batch_id for b in plan.batches])
    stats = engine.run_epoch(plan, queue, shared, deadline=0.05, lookahead=2)
    broker.close()
    assert shared.failure is None
    assert stats.completed == 0
    assert stats.skipped == plan.num_batches  # every batch resolved as a skip
    assert stats.retries == plan.num_batches  # after exactly one requeue each
    assert stats.max_single_wait <= 0.05 + 0.1  # deadline plus jitter budget


# -- learning parity -----------------------------------------------------------


def test_worker_pools_match_serial_accuracy_on_a_separable_task():
    started = time.perf_counter()
    train, test = _vertical(n=10_000, d=50, seed=11, separation=1.5, informative=50)
    assert train.active_features.shape[1] == 25
    assert train.passive_features.shape[1] == 25
    kwargs = dict(batch_size=256, learning_rate=0.001, epochs=20, seed=11)
    serial = run_training(train, test, TrainConfig(
        mode=Mode.LOCKSTEP, workers_active=1, workers_passive=1, **kwargs))
    pooled = run_training(train, test, TrainConfig(
        mode=Mode.PUBSUB, workers_active=4, workers_passive=4, **kwargs))
    best_serial = max(e.test_metric for e in serial.epochs)
    best_pooled = max(e.test_metric for e in pooled.epochs)
    assert best_pooled >= 0.85
    assert best_pooled >= best_serial - 0.02
    assert time.perf_counter() - started < 300.0


# -- efficiency ordering -------------------------------------------------------


def test_decoupled_pipeline_beats_per_batch_rendezvous_under_skew():
    # the passive party does 2x the active party's per-batch work
    train, test = _vertical(n=1600, d=16, seed=7)
    assert train.num_rows == 1120  # 18 batches of 64 per epoch
    kwargs = dict(
        batch_size=64, learning_rate=0.01, epochs=3, seed=7,
        workers_active=4, workers_passive=4,
        skew_active_seconds=0.008, skew_passive_seconds=0.016,
    )
    pipeline = run_training(train, test, TrainConfig(mode=Mode.PUBSUB, **kwargs))
    rendezvous = run_training(train, test, TrainConfig(mode=Mode.SYNC_PS, **kwargs))
    wall_pipeline = np.mean([e.wall_seconds for e in pipeline.epochs])
    wall_rendezvous = np.mean([e.wall_seconds for e in rendezvous.epochs])
    wait_pipeline = np.mean([e.total_wait_seconds for e in pipeline.epochs])
    wait_rendezvous = np.mean([e.total_wait_seconds for e in rendezvous.epochs])
    assert wall_pipeline <= wall_rendezvous / 1.2
    assert wait_pipeline < wait_rendezvous


# -- channel arithmetic --------------------------------------------------------


def test_channel_count_is_ceil_of_rows_over_batch():
    for rows, batch, want in ((1000, 256, 4), (60_021, 512, 118), (777, 777, 1), (5, 5, 1)):
        assert bk.channel_count_for(rows, batch) == want
        assert bk.channel_count_for(rows, batch) == -(-rows // batch)
        assert plan_for_epoch(rows, batch, 0, 0).num_batches == want


# -- privacy / convergence trade-off -------------------------------------------


def test_embedding_noise_raises_loss_floor_without_breaking_convergence():
    # plant the label signal entirely inside the passive party's columns so
    # the noisy embeddings are load-bearing; full-batch makes sigma exactly 1
    d, n, seed = 20, 1500, 5
    probe = LabeledTable(np.zeros((2, d)), np.zeros((2, 1)), Task.CLASSIFICATION)
    passive_cols = vertical_split(probe, num_active=10, seed=seed).passive_columns
    rng = np.random.default_rng(seed)
    features = rng.normal(0.0, 1.0, size=(n, d))
    labels = np.zeros((n, 1))
    labels[: n // 2] = 1.0
    labels = labels[rng.permutation(n)]
    features[:, passive_cols] += (2.0 * labels - 1.0) * 0.8
    table = LabeledTable(features, labels, Task.CLASSIFICATION)
    train_rows, test_rows = split_rows(table, test_fraction=0.3, seed=seed)
    train = vertical_split(train_rows, num_active=10, seed=seed)
    test = vertical_split(test_rows, num_active=10, seed=seed)

    def run(mu):
        cfg = TrainConfig(
            mode=Mode.LOCKSTEP, workers_active=1, workers_passive=1,
            batch_size=train.num_rows, learning_rate=0.5, epochs=25,
            seed=seed, privacy_mu=mu,
        )
        return run_training(train, test, cfg)

    clean = run(math.inf)
    noisy = run(1.0)
    assert clean.noise_sigma == 0.0
    assert noisy.noise_sigma == 1.0
    floor_clean = np.mean(clean.epoch_train_losses[-3:])
    floor_noisy = np.mean(noisy.epoch_train_losses[-3:])
    assert floor_noisy > floor_clean
    for result in (clean, noisy):
        losses = result.epoch_train_losses
        downs = sum(1 for i in range(5) if losses[i + 1] < losses[i])
        assert downs >= 4
