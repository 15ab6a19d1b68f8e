"""Command-line behaviour: exit codes, file outputs, determinism, overrides."""

import json
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import splitbus
from splitbus import cli
from splitbus.broker import serialize_payload
from splitbus.cli import _load_experiment, _parse_range, build_parser, main
from splitbus.config import ExperimentConfig, ModelShape, experiment_from_mapping
from splitbus.data import Task, generate_synthetic, write_csv
from splitbus.metrics import read_jsonl
from splitbus.planner import PlanState, SearchSpace, comm_seconds, read_plan
from splitbus.profiler import read_profile, write_profile
from splitbus.runtime import build_models

from oracles import brute_force_search, realistic_constants


TINY_CONF = """
dataset.rows = 300
dataset.features = 12
train.epochs = 2
train.batch_size = 50
train.workers_active = 1
train.workers_passive = 1
train.learning_rate = 0.05
train.mode = lockstep
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text(TINY_CONF)
    return str(path)


class TestParsing:
    def test_parse_range(self):
        assert _parse_range("2..50") == (2, 50)
        assert _parse_range("8") == (8, 8)


class TestProfileCommand:
    @pytest.mark.filterwarnings("ignore:power-law fit")
    def test_writes_reparseable_profile(self, tiny_config, tmp_path):
        out = tmp_path / "prof.txt"
        code = main([
            "profile", "--config", tiny_config, "--out", str(out),
            "--batches", "8,32,128", "--repetitions", "2",
        ])
        assert code == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            constants = read_profile(str(out))
        coefs = [
            constants.forward_coef_active, constants.forward_coef_passive,
            constants.backward_coef_active, constants.backward_coef_passive,
            constants.top_forward_coef, constants.top_backward_coef,
        ]
        assert all(c > 0 for c in coefs)

    @pytest.mark.filterwarnings("ignore:power-law fit")
    def test_an_unbounded_bandwidth_is_allowed(self, tiny_config, tmp_path):
        out = tmp_path / "prof.txt"
        assert main([
            "profile", "--config", tiny_config, "--out", str(out),
            "--batches", "8,32,128", "--repetitions", "1", "--bandwidth", "inf",
        ]) == 0
        assert read_profile(str(out)).bandwidth_bytes_per_sec == float("inf")

    @pytest.mark.filterwarnings("ignore:power-law fit")
    def test_message_size_follows_from_the_cut_width(self, tmp_path):
        conf = tmp_path / "wide.conf"
        conf.write_text(TINY_CONF + "model.passive_embed = 24\n")
        out = tmp_path / "prof.txt"
        # a power-of-two bandwidth makes seconds * bandwidth exact
        code = main([
            "profile", "--config", str(conf), "--out", str(out),
            "--batches", "8,32,128", "--repetitions", "1", "--bandwidth", str(2**30),
        ])
        assert code == 0
        constants = read_profile(str(out))
        assert constants.cut_width == 24
        for b in (1, 50, 256, 4096):
            wire = 2 * len(serialize_payload(np.zeros((b, constants.cut_width))))
            assert comm_seconds(constants, b) * constants.bandwidth_bytes_per_sec == wire

    @pytest.mark.filterwarnings("ignore:power-law fit")
    def test_party_widths_come_from_the_split(self, tmp_path):
        conf = tmp_path / "split.conf"
        conf.write_text(TINY_CONF + "split.active_features = 3\n")
        out = tmp_path / "prof.txt"
        code = main([
            "profile", "--config", str(conf), "--out", str(out),
            "--batches", "8,32,128", "--repetitions", "1",
        ])
        assert code == 0
        constants = read_profile(str(out))
        passive, _, _ = build_models(ModelShape(), 3, 9, Task.CLASSIFICATION, 0)
        assert constants.mem_base_passive == 2 * passive.parameter_bytes

    @pytest.mark.parametrize("argv, flag", [
        (["--batches", "8,16"], "--batches"),  # the fit needs 3 distinct sizes
        (["--batches", "8,8,16"], "--batches"),
        (["--batches", "0,8,16"], "--batches"),
        (["--batches", "8,x,16"], "--batches"),
        (["--repetitions", "0"], "--repetitions"),
        (["--bandwidth", "0"], "--bandwidth"),  # inf is allowed: an unbounded link
        (["--bandwidth", "-5"], "--bandwidth"),
        (["--bandwidth", "nan"], "--bandwidth"),
    ])
    def test_a_bad_sweep_exits_2_naming_the_flag(self, tiny_config, tmp_path, capsys,
                                                 monkeypatch, argv, flag):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a bad flag must stop the command before the sweep")

        monkeypatch.setattr(cli, "run_calibration", no_sweep)
        out = tmp_path / "prof.txt"
        code = main(["profile", "--config", tiny_config, "--out", str(out), *argv])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and flag in err[0], err
        assert not out.exists()


class TestPlanCommand:
    def test_plan_matches_enumeration_oracle(self, tmp_path):
        prof = tmp_path / "prof.txt"
        write_profile(str(prof), realistic_constants())
        out = tmp_path / "plan.txt"
        code = main([
            "plan", "--profile", str(prof), "--out", str(out),
            "--wa", "1..6", "--wp", "2..8", "--batches", "16,64,256",
        ])
        assert code == 0
        oracle = brute_force_search(
            realistic_constants(), SearchSpace(1, 6, 2, 8, [16, 64, 256])
        )
        assert PlanState(**read_plan(str(out))) == oracle  # cost round-trips exactly

    def test_infeasible_space_exits_4(self, tmp_path, capsys):
        prof = tmp_path / "prof.txt"
        # memory bound is (4e9 - 1e8) / 1e6 = 3900; ask only for bigger batches
        write_profile(str(prof), realistic_constants())
        code = main([
            "plan", "--profile", str(prof), "--out", str(tmp_path / "p.txt"),
            "--wa", "1..2", "--wp", "1..2", "--batches", "4000,8000",
        ])
        assert code == 4
        assert "no feasible plan" in capsys.readouterr().err

    def test_old_format_profile_exits_2_naming_the_key(self, tmp_path, capsys):
        prof = tmp_path / "prof.txt"
        write_profile(str(prof), realistic_constants())
        prof.write_text(prof.read_text() + "mem_exponent = 1.0\n")
        assert main(["plan", "--profile", str(prof), "--out", str(tmp_path / "p.txt")]) == 2
        assert "mem_exponent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["forward_coef_active = nan", "top_backward_exp = inf"]
    )
    def test_non_finite_profile_value_exits_2_naming_the_field(self, tmp_path, capsys, line):
        prof = tmp_path / "prof.txt"
        write_profile(str(prof), realistic_constants())
        name = line.split(" = ")[0]
        lines = [
            line if row.startswith(name + " ") else row
            for row in prof.read_text().splitlines()
        ]
        prof.write_text("\n".join(lines) + "\n")
        out = tmp_path / "p.txt"
        assert main(["plan", "--profile", str(prof), "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, text", [
        ("--wa", "x"), ("--wp", "1..y"), ("--wa", "5..2"), ("--batches", "16,x"), ("--batches", ""),
    ])
    def test_a_bad_flag_exits_2_naming_it(self, tmp_path, capsys, flag, text):
        prof = tmp_path / "prof.txt"
        write_profile(str(prof), realistic_constants())
        out = tmp_path / "p.txt"
        assert main(["plan", "--profile", str(prof), "--out", str(out), flag, text]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and flag in err[0], err
        assert not out.exists()

    def test_missing_profile_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.txt"
        assert main(["plan", "--profile", str(missing), "--out", str(tmp_path / "p.txt")]) == 2
        assert "cannot read profile" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_metrics_and_models(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", tiny_config, "--out", str(out)]) == 0
        rows, summary = read_jsonl(str(out / "metrics.jsonl"))
        assert len(rows) == 2
        assert summary["mode"] == "lockstep"
        assert summary["epochs_run"] == 2
        assert summary["transport"] == "thread"  # lockstep: one batch in flight
        bundle = np.load(out / "models.npz")
        assert "passive_bottom.layer0.weight" in bundle.files
        assert "top.layer0.bias" in bundle.files

    def test_same_seed_identical_losses(self, tiny_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "train", "--config", tiny_config, "--out", str(out), "--seed", "9",
            ]) == 0
            rows, _ = read_jsonl(str(out / "metrics.jsonl"))
            outs.append([row["mean_train_loss"] for row in rows])
        assert outs[0] == outs[1]

    def test_flag_overrides_reach_the_run(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        code = main([
            "train", "--config", tiny_config, "--out", str(out),
            "--mode", "pubsub", "--mu", "1.0", "--delta-t0", "3",
        ])
        assert code == 0
        rows, summary = read_jsonl(str(out / "metrics.jsonl"))
        assert summary["mode"] == "pubsub"
        assert summary["noise_sigma"] > 0.0
        assert rows[0]["sync_performed"] is True

    def test_plan_file_feeds_training(self, tiny_config, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text(
            "workers_active = 2\nworkers_passive = 2\nbatch_size = 25\n"
        )
        out = tmp_path / "run"
        code = main([
            "train", "--config", tiny_config, "--out", str(out),
            "--mode", "pubsub", "--plan", str(plan),
        ])
        assert code == 0
        rows, _ = read_jsonl(str(out / "metrics.jsonl"))
        # 210 train rows at B=25 -> 9 batches per epoch
        assert rows[0]["batches_completed"] == 9

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_training_abort_exits_3(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text(
            "dataset.rows = 96\ndataset.features = 6\n"
            "dataset.task = regression\n"
            "train.mode = lockstep\ntrain.workers_active = 1\n"
            "train.workers_passive = 1\ntrain.batch_size = 32\n"
            "train.learning_rate = 1e10\ntrain.epochs = 15\n"
        )
        code = main(["train", "--config", str(conf), "--out", str(tmp_path / "r")])
        assert code == 3
        assert "aborted" in capsys.readouterr().err

    def test_junk_plan_exits_2(self, tiny_config, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("this is not a plan\n")
        code = main([
            "train", "--config", tiny_config, "--out", str(tmp_path / "r"), "--plan", str(plan),
        ])
        assert code == 2
        assert str(plan) in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("train.warp = 9\n")
        assert main(["train", "--config", str(conf), "--out", str(tmp_path / "r")]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_csv_exits_2(self, tmp_path):
        conf = tmp_path / "csv.conf"
        conf.write_text(
            "dataset.kind = csv\ndataset.csv_path = /nonexistent/data.csv\n"
        )
        assert main(["train", "--config", str(conf), "--out", str(tmp_path / "r")]) == 2

    def test_csv_end_to_end(self, tmp_path):
        table = generate_synthetic(200, 8, task=Task.CLASSIFICATION, seed=3)
        csv_path = tmp_path / "data.csv"
        write_csv(str(csv_path), table)
        conf = tmp_path / "csv.conf"
        conf.write_text(
            f"dataset.kind = csv\ndataset.csv_path = {csv_path}\n"
            "train.mode = lockstep\ntrain.workers_active = 1\n"
            "train.workers_passive = 1\ntrain.batch_size = 35\n"
            "train.epochs = 2\ntrain.learning_rate = 0.05\n"
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(conf), "--out", str(out)]) == 0
        rows, _ = read_jsonl(str(out / "metrics.jsonl"))
        assert rows[0]["batches_completed"] == 4  # 140 train rows / 35


class TestDatasetLoading:
    def test_each_copy_is_dropped_once_the_next_one_exists(self, tiny_config, monkeypatch):
        """The table is gone before any party view is built, and the train rows
        before the test view is: train and compare never hold every copy at once."""
        tables, dead_before_deal = [], []
        real_split, real_deal = cli.split_rows, cli.vertical_split

        def split_rows(table, *args):
            tables.append(weakref.ref(table.features))
            return real_split(table, *args)

        def vertical_split(table, *args):
            dead_before_deal.append([ref() is None for ref in tables])
            tables.append(weakref.ref(table.features))
            return real_deal(table, *args)

        monkeypatch.setattr(cli, "split_rows", split_rows)
        monkeypatch.setattr(cli, "vertical_split", vertical_split)
        train, test = cli._load_datasets(_load_experiment(
            build_parser().parse_args(["train", "--config", tiny_config, "--out", "unused"])
        ))
        # [table] at the train view; [table, train rows] at the test view
        assert dead_before_deal == [[True], [True, True]]
        assert train.num_rows + test.num_rows == 300


class TestCompareCommand:
    def test_one_row_per_mode(self, tiny_config, tmp_path):
        out = tmp_path / "cmp"
        code = main([
            "compare", "--config", tiny_config, "--out", str(out),
            "--modes", "lockstep,sync_ps,async",
        ])
        assert code == 0
        rows = json.loads((out / "compare.json").read_text())
        assert [row["mode"] for row in rows] == ["lockstep", "sync_ps", "async"]
        assert all(row["status"] == "ok" for row in rows)
        table = (out / "compare.txt").read_text()
        assert "lockstep" in table and "wall_seconds" in table

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failed_mode_marks_row_and_continues(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text(
            "dataset.rows = 96\ndataset.features = 6\n"
            "dataset.task = regression\n"
            "train.batch_size = 32\ntrain.learning_rate = 1e10\n"
            "train.epochs = 15\n"
        )
        out = tmp_path / "cmp"
        code = main([
            "compare", "--config", str(conf), "--out", str(out),
            "--modes", "lockstep,async",
        ])
        assert code == 0  # the command survives per-mode failures
        rows = json.loads((out / "compare.json").read_text())
        assert len(rows) == 2
        assert all(row["status"].startswith("failed:") for row in rows)

    def test_a_lookahead_does_not_stop_one_in_flight_modes(self, tmp_path):
        conf = tmp_path / "ahead.conf"
        conf.write_text(TINY_CONF + "train.lookahead = 2\n")
        out = tmp_path / "cmp"
        assert main([
            "compare", "--config", str(conf), "--out", str(out),
            "--modes", "lockstep,sync_ps,pubsub",
        ]) == 0
        rows = json.loads((out / "compare.json").read_text())
        assert [row["status"] for row in rows] == ["ok"] * 3

    def test_unknown_mode_exits_2(self, tiny_config, tmp_path):
        assert main([
            "compare", "--config", tiny_config, "--out", str(tmp_path / "c"),
            "--modes", "warp",
        ]) == 2


BAD_SETTINGS = [  # each on top of lockstep 1+1 over 400 synthetic rows
    "dataset.rows = 1",
    "dataset.informative = 999",
    "split.active_features = 99",  # the bound is the table's width
    "split.active_features = 0",
    "dataset.separation = nan",
    "dataset.label_column = ²",  # str.isdigit() holds, int() fails
    "train.learning_rate = nan",
    "train.deadline_ms = nan",
    "train.deadline_ms = inf",
    "train.skew_active_ms = nan",
    "train.privacy_scale_constant = 1",  # not a key
    "train.embed_capacity = 5",  # not keys: every channel has capacity 1
    "train.grad_capacity = 5",
    "train.workers_active = 2",  # refused by the run: lockstep is one pair
    "train.workers_passive = 3",
    "train.lookahead = 2",  # refused by the run: lockstep holds one batch in flight
]


@pytest.mark.filterwarnings("ignore:power-law fit")
@pytest.mark.parametrize("command, out, argv", [
    ("profile", "missing/prof.txt", ["--batches", "8,32,128", "--repetitions", "1"]),
    ("plan", "missing/p.txt", ["--wa", "1..2", "--wp", "1..2", "--batches", "16"]),
    ("train", "prof.txt/run", []),  # nothing can be made under a file
])
def test_an_out_path_that_cannot_be_written_exits_2_naming_it(tiny_config, tmp_path, capsys,
                                                              command, out, argv):
    prof = tmp_path / "prof.txt"
    write_profile(str(prof), realistic_constants())
    source = ["--profile", str(prof)] if command == "plan" else ["--config", tiny_config]
    out = tmp_path / out
    assert main([command, *source, *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0], err


@pytest.mark.parametrize("line", BAD_SETTINGS)
def test_a_bad_setting_exits_2_with_one_error_line(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    base = {
        "dataset.rows": "400", "dataset.features": "12", "train.mode": "lockstep",
        "train.workers_active": "1", "train.workers_passive": "1", "train.epochs": "1",
    }
    base.pop(key, None)
    conf = tmp_path / "bad.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in base.items()) + line + "\n")
    assert main(["train", "--config", str(conf), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert key in err[0] and "bad.conf" in err[0], err


@pytest.mark.parametrize("text, message", [("", "file is empty"), ("a,b,label\n", "no data rows")])
def test_a_csv_without_data_exits_2_naming_the_file(tmp_path, capsys, text, message):
    data = tmp_path / "data.csv"
    data.write_text(text)
    conf = tmp_path / "csv.conf"
    conf.write_text(f"dataset.kind = csv\ndataset.csv_path = {data}\n")
    assert main(["train", "--config", str(conf), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"error: {data}: {message}\n"


@pytest.mark.parametrize("flag", list(cli.OVERRIDE_FLAGS))
def test_each_flag_is_shorthand_for_its_config_key(flag):
    key, commands, _ = cli.OVERRIDE_FLAGS[flag]
    text = "async" if key == "train.mode" else "3"
    args = build_parser().parse_args([commands.split()[0], flag, text])
    via_flag = _load_experiment(args).train
    assert via_flag == experiment_from_mapping({key: text}).train
    assert via_flag != ExperimentConfig().train


def test_flags_beat_the_plan_file_and_the_plan_file_beats_the_config(tiny_config, tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("workers_active = 2\nworkers_passive = 4\nbatch_size = 25\n")
    args = build_parser().parse_args(
        ["train", "--config", tiny_config, "--plan", str(plan), "--wa", "3"]
    )
    train = _load_experiment(args).train
    assert (train.workers_active, train.workers_passive, train.batch_size) == (3, 4, 25)
    assert train.epochs == 2  # the config's values that neither overlay sets stay


def test_train_and_compare_share_the_override_flags():
    flags = [
        "--wa", "3", "--wp", "4", "--mu", "2.5", "--tddl-ms", "250", "--seed", "6",
        "--delta-t0", "2", "--skew-passive-ms", "1.5", "--skew-active-ms", "0.5",
    ]
    parser = build_parser()
    train = parser.parse_args(["train", *flags])
    compare = parser.parse_args(["compare", *flags])
    assert set(vars(train)) - {"mode", "plan"} == set(vars(compare)) - {"modes"}
    assert _load_experiment(train).train == _load_experiment(compare).train


@pytest.mark.parametrize("argv", [
    ["train", "--p", "6"],  # a prefix of --plan
    ["train", "--q", "7"],
    ["compare", "--mode", "lockstep"],  # a prefix of --modes
])
def test_abbreviated_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        # The child finds the package where this process imported it from,
        # installed or not.
        package_root = os.path.dirname(os.path.dirname(splitbus.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "splitbus", "--help"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        for verb in ("profile", "plan", "train", "compare"):
            assert verb in proc.stdout
