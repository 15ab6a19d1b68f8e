"""One benchmark job in a fresh process: a workload's training run, traced or not, or
the serial reference on the same data.

    python3 bench/job.py --workload freerun_private --seed 1 --kind run
    python3 bench/job.py --workload freerun_private --seed 1 --kind traced
    python3 bench/job.py --workload serial_wide_batch --seed 1 --kind reference

The job prints one JSON object as the last line of its standard output.  It
is started by ``bench/run.py``; run it by hand only to debug one job.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from splitbus import broker as bk  # noqa: E402
from splitbus import data, planner, profiler, reference, runtime  # noqa: E402
from splitbus.config import Mode, ModelShape, TrainConfig  # noqa: E402

from stats import distribution, ratio  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# Tolerance on |empirical noise std - sigma| / sigma.  With N noise entries the
# sample std has a relative standard error of about 1/sqrt(2N); the smallest
# private workload draws over 10^5 entries, so 2% is more than ten standard errors.
NOISE_STD_TOLERANCE = 0.02

SEPARATION = 0.16
TEST_FRACTION = 0.3

# Planner grid: w_a, w_p in 1..64 and seven batch sizes.
PLAN_WORKERS = 64
PLAN_BATCHES = [16, 32, 64, 128, 256, 512, 1024]


@dataclass
class Workload:
    rows: int
    features: int
    active_features: int
    informative: int
    train: dict
    auc_floor: float
    shape: ModelShape = field(default_factory=ModelShape)
    plan: bool = False  # profile the initial models and plan before training
    bit_exact: bool = False  # per-epoch losses must equal the serial reference

    def planned_batches(self) -> int:
        train_rows = self.rows - int(round(self.rows * TEST_FRACTION))
        return math.ceil(train_rows / self.train["batch_size"]) * self.train["epochs"]


# Why each listed workload exists is recorded next to its name in
# BENCHMARK.json.  pool_small_batch is kept for runs by hand but not listed
# there: on a 2-vCPU VM whose host is contended, its wall-clock throughput
# moved by a third between runs minutes apart, more than the largest bound a
# listed metric may have.  Its profile-and-plan set-up runs on freerun_private.
# The class signal is spread thinly over many informative columns (all 50 of
# the narrow table, half of the wide one, each offset by about SEPARATION) so
# that the final AUC depends little on which offsets a seed draws.
WORKLOADS: dict[str, Workload] = {
    "pool_small_batch": Workload(
        rows=30_000, features=50, active_features=25, informative=50,
        train=dict(mode="pubsub", batch_size=32, workers_active=2, workers_passive=2,
                   lookahead=2, learning_rate=0.1, epochs=3),
        auc_floor=0.90, plan=True,
    ),
    "serial_wide_batch": Workload(
        rows=40_000, features=200, active_features=100, informative=100,
        train=dict(mode="lockstep", batch_size=1024, workers_active=1, workers_passive=1,
                   learning_rate=0.1, epochs=2),
        shape=ModelShape(active_hidden=[256, 256], passive_hidden=[256, 256],
                         active_embed=32, passive_embed=32, top_hidden=[16]),
        auc_floor=0.93, bit_exact=True,
    ),
    "freerun_private": Workload(
        rows=20_000, features=50, active_features=25, informative=50,
        train=dict(mode="async_ps", batch_size=32, workers_active=2, workers_passive=2,
                   privacy_mu=1.0, learning_rate=0.1, epochs=3),
        auc_floor=0.88, plan=True,
    ),
}

# Spans reported with their call count and self time.
COUNTED_SPANS = (
    "nn.forward", "nn.backward", "nn.sgd_step", "privacy.add_noise",
    "broker.publish", "broker.subscribe", "runtime.ps_sync", "metrics.auc_score",
)
# Spans whose self time is summed into the per-layer share of run_s.
LAYER_SPANS = COUNTED_SPANS + ("runtime.evaluate",)


def child_seed(seed: int, tag: int) -> int:
    """Independent 32-bit seed for one input stream of the workload."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint32)[0])


def build_inputs(wl: Workload, seed: int):
    """Generated table, train/test split and vertical split, all from the workload seed."""
    table = data.generate_synthetic(
        wl.rows, wl.features, wl.informative, data.Task.CLASSIFICATION, child_seed(seed, 1),
        SEPARATION,
    )
    train_table, test_table = data.split_rows(table, TEST_FRACTION, child_seed(seed, 2))
    column_seed = child_seed(seed, 3)
    return (
        data.vertical_split(train_table, wl.active_features, column_seed),
        data.vertical_split(test_table, wl.active_features, column_seed),
    )


def train_config(wl: Workload, seed: int) -> TrainConfig:
    params = dict(wl.train)
    params["mode"] = Mode(params["mode"])
    return TrainConfig(seed=child_seed(seed, 4), shape=wl.shape, target_metric=None, **params)


def profile_and_plan(train: data.VerticalDataset, cfg: TrainConfig, tracer: Tracer | None):
    """Profile the initial models, search the wide grid and validate the plan.

    Returns (plan valid, check detail, grid points evaluated).
    """
    models = runtime.build_models(
        cfg.shape, train.active_features.shape[1], train.passive_features.shape[1],
        train.task, cfg.seed,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loose power-law fits on tiny models only warn
        with _span(tracer, "profiler.calibrate"):
            samples = profiler.run_calibration(*models, seed=cfg.seed)
        with _span(tracer, "profiler.fit"):
            constants = profiler.build_constants(samples, *models)
    space = planner.SearchSpace(1, PLAN_WORKERS, 1, PLAN_WORKERS, PLAN_BATCHES)
    with _span(tracer, "planner.search"):
        plan = planner.dp_search(constants, space)
    feasible = [b for b in PLAN_BATCHES if b <= profiler.memory_bound(constants)]
    grid_points = len(feasible) * PLAN_WORKERS * PLAN_WORKERS
    expected = planner.iteration_objective(
        constants, plan.workers_active, plan.workers_passive, plan.batch_size
    )
    valid = (
        plan.batch_size in feasible
        and 1 <= plan.workers_active <= PLAN_WORKERS
        and 1 <= plan.workers_passive <= PLAN_WORKERS
        and math.isfinite(plan.cost_seconds) and plan.cost_seconds > 0.0
        and plan.cost_seconds == expected
    )
    return valid, f"plan {plan} vs its objective {expected!r}", grid_points


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def run_job(name: str, seed: int, traced: bool) -> dict:
    """One training job; returns its metrics, check results and (traced) layer metrics."""
    wl = WORKLOADS[name]
    tracer = Tracer() if traced else None

    setup_start = time.perf_counter()
    with _span(tracer, "data.build"):
        train, test = build_inputs(wl, seed)
    cfg = train_config(wl, seed)
    checks: list[tuple[str, bool, str]] = []  # (name, passed, detail shown on failure)
    grid_points = 0
    if wl.plan:
        valid, detail, grid_points = profile_and_plan(train, cfg, tracer)
        checks.append(("plan_valid", valid, detail))

    brokers: list[bk.Broker] = []
    original_init = bk.Broker.__init__

    def capturing_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        brokers.append(self)

    bk.Broker.__init__ = capturing_init
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            run_start = time.perf_counter()
            result = runtime.run_training(train, test, cfg)
            run_end = time.perf_counter()
    finally:
        bk.Broker.__init__ = original_init
    setup_s = run_start - setup_start
    run_s = run_end - run_start

    summary = result.summary
    n_train = train.num_rows
    completed = sum(e.batches_completed for e in result.epochs)
    skipped = sum(e.batches_skipped for e in result.epochs)
    # Exact when every batch completes; otherwise over by less than one batch per epoch.
    rows_trained = sum(min(e.batches_completed * cfg.batch_size, n_train) for e in result.epochs)
    train_wall = sum(e.wall_seconds for e in result.epochs)
    losses = result.epoch_train_losses
    auc = summary.final_test_metric
    report = result.noise_report

    conserved = len(brokers) == 1 and brokers[0].stats().conserved()
    checks.append(("broker_conserved", conserved, f"stats {[b.stats() for b in brokers]}"))
    finite = all(math.isfinite(v) for v in losses)
    checks.append(("finite_loss", finite, f"losses {losses}"))
    auc_ok = auc is not None and auc >= wl.auc_floor
    checks.append(("auc_floor", auc_ok, f"final test AUC {auc} vs floor {wl.auc_floor}"))
    sigma_rel_err = ratio(abs(report.empirical_std - summary.noise_sigma), summary.noise_sigma)
    if math.isinf(cfg.privacy_mu):
        no_noise = report.entries == 0 and summary.noise_sigma == 0.0
        checks.append(("no_noise_drawn", no_noise,
                       f"{report.entries} entries at sigma {summary.noise_sigma}"))
    else:
        std_ok = report.entries > 0 and sigma_rel_err <= NOISE_STD_TOLERANCE
        checks.append(("noise_std", std_ok,
                       f"empirical std {report.empirical_std} vs sigma {summary.noise_sigma} "
                       f"over {report.entries} entries (tolerance {NOISE_STD_TOLERANCE})"))

    out = {
        "kind": "traced" if traced else "run",
        "setup_s": setup_s,
        "run_s": run_s,
        "train_rows_per_s": ratio(rows_trained, train_wall),
        "final_test_auc": auc if auc is not None else 0.0,
        "failed_batch_share": ratio(skipped, completed + skipped),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "epoch_wall_s": [e.wall_seconds for e in result.epochs],
        "batches_completed": completed,
        "batches_skipped": skipped,
        "losses_hex": [float(v).hex() for v in losses],
        "checks": checks,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer, result, run_s, completed, rows_trained,
                                      sigma_rel_err, grid_points)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{name}.tsv"))
    return out


def layer_metrics(tracer, result, run_s, completed, rows_trained, sigma_rel_err, grid_points):
    """Per-layer numbers of one traced run, keyed by their BENCHMARK.json names."""
    selfs = self_times(tracer.spans)

    def self_s(name):
        return selfs.get(name, (0, 0.0))[1]

    def calls(name):
        return selfs.get(name, (0, 0.0))[0]

    summary = result.summary
    subs = tracer.subscribes
    layers = {
        "data.build_s": self_s("data.build"),
        "profiler.calibrate_s": self_s("profiler.calibrate"),
        "profiler.fit_s": self_s("profiler.fit"),
        "planner.search_s": self_s("planner.search"),
        "planner.grid_points": grid_points,
        "privacy.noise_entries": result.noise_report.entries,
        "privacy.sigma_rel_err": sigma_rel_err,
        "broker.subscribe.waited_s": sum(s.waited for s in subs),
        "broker.subscribe_per_batch": ratio(calls("broker.subscribe"), completed),
        "broker.subscribe_hit_ratio": ratio(sum(s.delivered for s in subs), len(subs)),
        "broker.bytes_per_row": ratio(summary.total_bytes_published, rows_trained),
        "broker.evicted": summary.total_evictions,
        "runtime.busy_fraction": ratio(sum(e.busy_fraction for e in result.epochs),
                                       len(result.epochs)),
        "runtime.wait_s": sum(e.total_wait_seconds for e in result.epochs),
        "runtime.max_single_wait_s": max(p["max_single_wait"] for p in result.party_stats),
        "runtime.batch_retries": summary.total_batch_retries,
        "runtime.evaluate.self_s": self_s("runtime.evaluate"),
        "trace.self_share": ratio(sum(self_s(n) for n in LAYER_SPANS), run_s),
        "trace.spans": len(tracer.spans),
    }
    for name in COUNTED_SPANS:
        layers[f"{name}.calls"] = calls(name)
        layers[f"{name}.self_s"] = self_s(name)
    for kind in ("embedding", "gradient"):
        short = "embed" if kind == "embedding" else "grad"
        dist = distribution([s.residency for s in subs if s.kind == kind])
        for key, value in dist.items():
            layers[f"broker.{short}_residency_s.{key}"] = value
    return layers


def run_reference_job(name: str, seed: int) -> dict:
    """The serial reference on the workload's data and config (no evaluation)."""
    wl = WORKLOADS[name]
    train, _ = build_inputs(wl, seed)
    cfg = train_config(wl, seed)
    start = time.perf_counter()
    ref = reference.run_reference(train, None, cfg)
    seconds = time.perf_counter() - start
    return {
        "kind": "reference",
        "rows_per_s": train.num_rows * len(ref["epoch_train_losses"]) / seconds,
        "losses_hex": [float(v).hex() for v in ref["epoch_train_losses"]],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", required=True, choices=("run", "traced", "reference"))
    args = parser.parse_args(argv)
    if args.kind == "reference":
        out = run_reference_job(args.workload, args.seed)
    else:
        out = run_job(args.workload, args.seed, args.kind == "traced")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
