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
import contextlib
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    Mode,
    experiment_from_mapping,
    parse_int_list,
    read_key_value_file,
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
    PLAN_SETTINGS,
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


def _parse_sweep(text: str) -> list[int]:
    """A calibration sweep the delay-model fit can use: 3 or more distinct sizes >= 1."""
    sizes = parse_int_list(text)
    if min(sizes, default=0) < 1 or len(set(sizes)) < 3:
        raise ValueError("the power-law fit needs at least 3 distinct batch sizes, each >= 1")
    return sizes


def _flag_value(flag: str, parse, text: str):
    """``parse(text)``; a ``ValueError`` becomes a :class:`ConfigError` naming ``flag``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{flag} {text!r}: {exc}") from None


@contextlib.contextmanager
def _writing(path: str):
    """Turn a failure to write ``path`` into a :class:`ConfigError` naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


# Each override flag is shorthand for one config key: its text goes to that
# key's parser, after the config file and the plan file.
# flag -> (config key, the commands that take it, help)
OVERRIDE_FLAGS: dict[str, tuple[str, str, str]] = {
    "--seed": ("train.seed", "profile train compare", "seed of the models, batch order and noise"),
    "--mode": ("train.mode", "train", "execution mode: " + ", ".join(m.value for m in Mode)),
    "--wa": ("train.workers_active", "train compare", "active workers"),
    "--wp": ("train.workers_passive", "train compare", "passive workers"),
    "--mu": ("train.privacy_mu", "train compare", "privacy budget (inf disables noise)"),
    "--tddl-ms": ("train.deadline_ms", "train compare", "waiting deadline, milliseconds"),
    "--delta-t0": ("train.sync_base_interval", "train compare", "aggregation base interval"),
    "--skew-passive-ms": ("train.skew_passive_ms", "train compare",
                          "simulated extra compute per passive batch, milliseconds"),
    "--skew-active-ms": ("train.skew_active_ms", "train compare",
                         "simulated extra compute per active batch, milliseconds"),
}


def _flag_text(args, flag: str) -> str | None:
    """The text given for ``flag``, read under argparse's default ``dest``."""
    return getattr(args, flag.lstrip("-").replace("-", "_"), None)


def _load_experiment(args) -> ExperimentConfig:
    """Settings in rising precedence: config file, plan file, override flags."""
    values = read_key_value_file(args.config, "config") if args.config else {}
    plan = getattr(args, "plan", None)
    if plan:
        chosen = read_plan(plan)
        values.update({f"train.{name}": str(chosen[name]) for name in PLAN_SETTINGS})
    flags = {key: _flag_text(args, flag) for flag, (key, _, _) in OVERRIDE_FLAGS.items()}
    flags = {key: text for key, text in flags.items() if text is not None}
    values.update(flags)
    source = " + ".join(filter(None, [args.config, plan, "flags" if flags else None]))
    return experiment_from_mapping(values, source)


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
    # Drop each copy once the next one exists: at most two copies of the data
    # are alive at once (the table and its row splits, then the splits and
    # the party views).
    table = _build_tables(exp)
    num_active = exp.split.active_features
    if num_active is None:
        num_active = table.num_features // 2
    try:  # the bounds that depend on the data, such as a CSV's width
        train_tab, test_tab = split_rows(table, exp.split.test_fraction, exp.split.seed)
        del table
        train = vertical_split(train_tab, num_active, exp.split.seed)
        del train_tab
        test = vertical_split(test_tab, num_active, exp.split.seed)
    except ValueError as exc:
        raise ConfigError(f"{exp.source}: cannot split the dataset by split.test_fraction and "
                          f"split.active_features = {num_active}: {exc}") from None
    return train, test


def _save_models(path: str, result: RunResult) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, model in result.final_models.items():
        for idx, layer in enumerate(model.layers):
            arrays[f"{name}.layer{idx}.weight"] = layer.weight
            arrays[f"{name}.layer{idx}.bias"] = layer.bias
    np.savez(path, **arrays)


def cmd_profile(args) -> int:
    sweep = _flag_value("--batches", _parse_sweep, args.batches) if args.batches else None
    if args.repetitions < 1:
        raise ConfigError(f"--repetitions {args.repetitions}: must be >= 1")
    exp = _load_experiment(args)
    train, _ = _load_datasets(exp)
    passive, active, top = build_models(
        exp.train.shape, train.active_features.shape[1],
        train.passive_features.shape[1], exp.dataset.task, exp.train.seed,
    )
    samples = run_calibration(passive, active, top, sweep, repetitions=args.repetitions)
    constants = build_constants(samples, passive, active, top)
    with _writing(args.out):
        write_profile(args.out, constants)
    print(f"wrote delay profile ({len(samples)} samples) to {args.out}")
    return 0


def cmd_plan(args) -> int:
    wa = _flag_value("--wa", _parse_range, args.wa)
    wp = _flag_value("--wp", _parse_range, args.wp)
    batches = _flag_value("--batches", parse_int_list, args.batches)
    try:
        space = SearchSpace(*wa, *wp, batches)
    except ValueError as exc:
        flags = f"--wa {args.wa} --wp {args.wp} --batches {args.batches}"
        raise ConfigError(f"{flags}: {exc}") from None
    constants = read_profile(args.profile)
    plan = dp_search(constants, space)
    with _writing(args.out):
        write_plan(args.out, plan)
    print(
        f"plan: workers_active={plan.workers_active} "
        f"workers_passive={plan.workers_passive} batch_size={plan.batch_size} "
        f"predicted {plan.cost_seconds:.6f}s/iteration -> {args.out}"
    )
    return 0


def _run_one(exp: ExperimentConfig) -> RunResult:
    train, test = _load_datasets(exp)
    try:
        return run_training(train, test, exp.train)
    except ConfigError as exc:  # a combination of settings the run refuses
        raise ConfigError(f"{exp.source}: {exc}") from None


def cmd_train(args) -> int:
    exp = _load_experiment(args)
    with _writing(args.out):
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
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    rows: list[dict] = []
    for mode in modes:
        try:
            result = _run_one(replace(exp, train=exp.train.for_mode(mode)))
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
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def overrides(p: argparse.ArgumentParser, command: str) -> None:
        """``--config`` and the override flags ``command`` takes; see ``_load_experiment``."""
        p.add_argument("--config", help="experiment file (key = value lines)")
        for flag, (key, commands, text) in OVERRIDE_FLAGS.items():
            if command in commands.split():
                p.add_argument(flag, help=f"{text}; sets {key}")

    profile = add_parser("profile", help="time this machine and fit the delay model")
    overrides(profile, "profile")
    profile.add_argument("--out", default="profile.txt")
    profile.add_argument("--batches", help="comma-separated calibration batch sizes")
    profile.add_argument("--repetitions", type=int, default=5)
    profile.set_defaults(func=cmd_profile)

    plan = add_parser("plan", help="search worker counts and batch size")
    plan.add_argument("--profile", default="profile.txt")
    plan.add_argument("--out", default="plan.txt")
    plan.add_argument("--wa", default="1..10", help="active worker range, e.g. 2..50")
    plan.add_argument("--wp", default="1..10", help="passive worker range")
    plan.add_argument(
        "--batches", default="16,32,64,128,256,512,1024",
        help="comma-separated candidate batch sizes",
    )
    plan.set_defaults(func=cmd_plan)

    train = add_parser("train", help="run one training job")
    overrides(train, "train")
    train.add_argument("--out", default="run_out")
    train.add_argument("--plan", help="plan file from the plan command")
    train.set_defaults(func=cmd_train)

    compare = add_parser("compare", help="run several modes on the same data")
    overrides(compare, "compare")
    compare.add_argument("--out", default="compare_out")
    compare.add_argument(
        "--modes", default=",".join(m.value for m in Mode),
        help="comma-separated mode list",
    )
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
