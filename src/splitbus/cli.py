"""Command-line surface: ``profile``, ``plan``, ``train``, ``compare``.

The three-phase workflow is profile (time this machine, fit the delay
model), plan (pick worker counts and batch size from the profile), train
(run one mode, emit JSONL metrics and a model dump).  ``compare`` runs a
list of modes on the same data and seed and tabulates them side by side.

Exit codes: 0 success, 2 bad configuration or input data, 3 training
aborted, 4 no feasible plan.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    Mode,
    load_experiment_config,
)
from .data import (
    DataFormatError,
    LabeledTable,
    VerticalDataset,
    generate_synthetic,
    load_csv,
    split_rows,
    vertical_split,
)
from .metrics import write_jsonl
from .planner import (
    InfeasiblePlanError,
    SearchSpace,
    dp_search,
    read_plan,
    write_plan,
)
from .profiler import build_constants, read_profile, run_calibration, write_profile
from .runtime import RunResult, TrainingAbort, build_models, run_training


def _parse_range(text: str) -> tuple[int, int]:
    """'2..50' -> (2, 50); '8' -> (8, 8)."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        return int(lo), int(hi)
    value = int(text)
    return value, value


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _load_experiment(args) -> ExperimentConfig:
    exp = load_experiment_config(args.config) if args.config else ExperimentConfig()
    train = exp.train
    updates: dict = {}
    if getattr(args, "mode", None):
        updates["mode"] = Mode(args.mode)
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "mu", None) is not None:
        updates["privacy_mu"] = args.mu
    if getattr(args, "tddl_ms", None) is not None:
        updates["deadline_seconds"] = args.tddl_ms / 1000.0
    if getattr(args, "p", None) is not None:
        updates["embed_capacity"] = args.p
    if getattr(args, "q", None) is not None:
        updates["grad_capacity"] = args.q
    if getattr(args, "delta_t0", None) is not None:
        updates["sync_base_interval"] = args.delta_t0
    if getattr(args, "skew_passive_ms", None) is not None:
        updates["skew_passive_seconds"] = args.skew_passive_ms / 1000.0
    if getattr(args, "skew_active_ms", None) is not None:
        updates["skew_active_seconds"] = args.skew_active_ms / 1000.0
    if getattr(args, "wa", None) is not None:
        updates["workers_active"] = args.wa
    if getattr(args, "wp", None) is not None:
        updates["workers_passive"] = args.wp
    if getattr(args, "plan", None):
        chosen = read_plan(args.plan)
        updates.setdefault("workers_active", chosen["workers_active"])
        updates.setdefault("workers_passive", chosen["workers_passive"])
        updates["batch_size"] = chosen["batch_size"]
    if updates:
        train = replace(train, **updates)
    return ExperimentConfig(dataset=exp.dataset, split=exp.split, train=train)


def _build_tables(exp: ExperimentConfig) -> LabeledTable:
    ds = exp.dataset
    if ds.kind == "csv":
        try:
            return load_csv(ds.csv_path, ds.label_column, ds.task)
        except OSError as exc:
            raise ConfigError(f"cannot read dataset {ds.csv_path}: {exc}") from None
    return generate_synthetic(
        ds.rows, ds.features, ds.informative, ds.task, ds.seed, ds.separation
    )


def _load_datasets(exp: ExperimentConfig) -> tuple[VerticalDataset, VerticalDataset]:
    table = _build_tables(exp)
    train_tab, test_tab = split_rows(table, exp.split.test_fraction, exp.split.seed)
    num_active = exp.split.active_features or table.features.shape[1] // 2
    train = vertical_split(train_tab, num_active, exp.split.seed)
    test = vertical_split(test_tab, num_active, exp.split.seed)
    return train, test


def _save_models(path: str, result: RunResult) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, model in result.final_models.items():
        for idx, layer in enumerate(model.layers):
            arrays[f"{name}.layer{idx}.weight"] = layer.weight
            arrays[f"{name}.layer{idx}.bias"] = layer.bias
    np.savez(path, **arrays)


def cmd_profile(args) -> int:
    exp = _load_experiment(args)
    train, _ = _load_datasets(exp)
    passive, active, top = build_models(
        exp.train.shape, train.active_features.shape[1],
        train.passive_features.shape[1], exp.dataset.task, exp.train.seed,
    )
    sweep = _parse_int_list(args.batches) if args.batches else None
    samples = run_calibration(passive, active, top, sweep, repetitions=args.repetitions)
    cores = os.cpu_count() or 1
    constants = build_constants(
        samples, passive, active, top,
        cores_active=cores, cores_passive=cores, bandwidth_bytes_per_sec=args.bandwidth,
    )
    write_profile(args.out, constants)
    print(f"wrote delay profile ({len(samples)} samples, {cores} cores) to {args.out}")
    return 0


def cmd_plan(args) -> int:
    constants = read_profile(args.profile)
    wa_lo, wa_hi = _parse_range(args.wa)
    wp_lo, wp_hi = _parse_range(args.wp)
    space = SearchSpace(wa_lo, wa_hi, wp_lo, wp_hi, _parse_int_list(args.batches))
    plan = dp_search(constants, space)
    write_plan(args.out, plan)
    print(
        f"plan: workers_active={plan.workers_active} "
        f"workers_passive={plan.workers_passive} batch_size={plan.batch_size} "
        f"predicted {plan.cost_seconds:.6f}s/iteration -> {args.out}"
    )
    return 0


def _run_one(exp: ExperimentConfig) -> RunResult:
    train, test = _load_datasets(exp)
    return run_training(train, test, exp.train)


def cmd_train(args) -> int:
    exp = _load_experiment(args)
    os.makedirs(args.out, exist_ok=True)
    result = _run_one(exp)
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    write_jsonl(metrics_path, result.epochs, result.summary)
    _save_models(os.path.join(args.out, "models.npz"), result)
    last = result.epochs[-1]
    metric = "none" if last.test_metric is None else f"{last.test_metric:.4f}"
    print(
        f"{exp.train.mode.value}: {result.summary.epochs_run} epochs in "
        f"{result.summary.total_wall_seconds:.2f}s, final loss "
        f"{result.summary.final_train_loss:.4f}, test metric {metric} "
        f"-> {metrics_path}"
    )
    return 0


_COMPARE_COLUMNS = [
    "mode", "status", "wall_seconds", "wait_seconds_per_epoch", "busy_fraction",
    "bytes_published", "final_test_metric", "time_to_target_seconds",
]


def cmd_compare(args) -> int:
    exp = _load_experiment(args)
    try:
        modes = [Mode(name) for name in args.modes.split(",") if name]
    except ValueError as exc:
        raise ConfigError(f"unknown mode in --modes: {exc}") from None
    if not modes:
        raise ConfigError("--modes must name at least one mode")
    os.makedirs(args.out, exist_ok=True)
    rows: list[dict] = []
    for mode in modes:
        mode_exp = ExperimentConfig(
            dataset=exp.dataset, split=exp.split, train=exp.train.for_mode(mode)
        )
        try:
            result = _run_one(mode_exp)
        except Exception as exc:  # a failed mode must not sink the others
            rows.append({"mode": mode.value, "status": f"failed: {exc}"})
            continue
        epochs = max(result.summary.epochs_run, 1)
        rows.append(
            {
                "mode": mode.value,
                "status": "ok",
                "wall_seconds": round(result.summary.total_wall_seconds, 4),
                "wait_seconds_per_epoch": round(
                    sum(r.total_wait_seconds for r in result.epochs) / epochs, 4
                ),
                "busy_fraction": round(
                    sum(r.busy_fraction for r in result.epochs) / epochs, 4
                ),
                "bytes_published": result.summary.total_bytes_published,
                "final_test_metric": result.summary.final_test_metric,
                "time_to_target_seconds": result.summary.time_to_target_seconds,
            }
        )
    json_path = os.path.join(args.out, "compare.json")
    with open(json_path, "w") as handle:
        json.dump(rows, handle, indent=2)
        handle.write("\n")
    table = _format_table(rows)
    with open(os.path.join(args.out, "compare.txt"), "w") as handle:
        handle.write(table + "\n")
    print(table)
    print(f"-> {json_path}")
    return 0


def _format_table(rows: list[dict]) -> str:
    headers = _COMPARE_COLUMNS
    body = [
        [str(row.get(col, "")) for col in headers]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(line[i]) for line in body)) if body else len(headers[i])
        for i in range(len(headers))
    ]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers)]
    lines += [fmt.format(*line) for line in body]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitbus",
        description="two-party split training: profile, plan, train, compare",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="experiment file (key = value lines)")
        p.add_argument("--seed", type=int, help="override train.seed")

    def overrides(p: argparse.ArgumentParser) -> None:
        """The train.* overrides ``train`` and ``compare`` share; see ``_load_experiment``."""
        p.add_argument("--wa", type=int, help="override workers_active")
        p.add_argument("--wp", type=int, help="override workers_passive")
        p.add_argument("--mu", type=float, help="privacy budget (inf disables noise)")
        p.add_argument("--tddl-ms", type=float, help="waiting deadline, milliseconds")
        p.add_argument("--p", type=int, help="embedding channel capacity")
        p.add_argument("--q", type=int, help="gradient channel capacity")
        p.add_argument("--delta-t0", type=int, help="aggregation base interval")
        p.add_argument("--skew-passive-ms", type=float,
                       help="simulated extra compute per passive batch, milliseconds")
        p.add_argument("--skew-active-ms", type=float,
                       help="simulated extra compute per active batch, milliseconds")

    profile = sub.add_parser("profile", help="time this machine and fit the delay model")
    common(profile)
    profile.add_argument("--out", default="profile.txt")
    profile.add_argument("--batches", help="comma-separated calibration batch sizes")
    profile.add_argument("--repetitions", type=int, default=5)
    profile.add_argument(
        "--bandwidth", type=float, default=1e9, help="link bandwidth, bytes/second"
    )
    profile.set_defaults(func=cmd_profile)

    plan = sub.add_parser("plan", help="search worker counts and batch size")
    plan.add_argument("--profile", default="profile.txt")
    plan.add_argument("--out", default="plan.txt")
    plan.add_argument("--wa", default="1..10", help="active worker range, e.g. 2..50")
    plan.add_argument("--wp", default="1..10", help="passive worker range")
    plan.add_argument(
        "--batches", default="16,32,64,128,256,512,1024",
        help="comma-separated candidate batch sizes",
    )
    plan.set_defaults(func=cmd_plan)

    train = sub.add_parser("train", help="run one training job")
    common(train)
    train.add_argument("--out", default="run_out")
    train.add_argument("--mode", choices=[m.value for m in Mode])
    train.add_argument("--plan", help="plan file from the plan command")
    overrides(train)
    train.set_defaults(func=cmd_train)

    compare = sub.add_parser("compare", help="run several modes on the same data")
    common(compare)
    compare.add_argument("--out", default="compare_out")
    compare.add_argument(
        "--modes", default=",".join(m.value for m in Mode),
        help="comma-separated mode list",
    )
    overrides(compare)
    compare.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingAbort as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 3
    except InfeasiblePlanError as exc:
        print(f"no feasible plan: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
