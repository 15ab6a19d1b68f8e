"""Config dataclass validation and the key=value experiment file format."""

import math
from dataclasses import fields

import pytest

from splitbus import config
from splitbus.config import (
    ConfigError,
    DatasetConfig,
    ExperimentConfig,
    Mode,
    ModelShape,
    ONE_IN_FLIGHT_MODES,
    SplitConfig,
    TrainConfig,
    experiment_from_mapping,
    parse_key_value_text,
)
from splitbus.data import Task

from oracles import load_experiment_config


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.mode is Mode.PUBSUB
        assert cfg.privacy_mu == math.inf
        assert cfg.workers_active == 8 and cfg.workers_passive == 10

    @pytest.mark.parametrize(
        "overrides",
        [
            {"batch_size": 0},
            {"workers_active": 0},
            {"learning_rate": 0.0},
            {"epochs": 0},
            {"sync_base_interval": 0},
            {"deadline_seconds": 0.0},
            {"workers_passive": 0},
            {"privacy_mu": 0.0},
            {"privacy_mu": float("nan")},
            {"learning_rate": float("nan")},
            {"deadline_seconds": float("nan")},
            {"deadline_seconds": math.inf},
            {"skew_active_seconds": float("nan")},
            {"skew_passive_seconds": -1.0},
            {"max_retries": -1},
            {"lookahead": 0},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigError):
            TrainConfig(**overrides)

    def test_for_mode_forces_single_pair(self):
        cfg = TrainConfig(workers_active=8, workers_passive=10)
        solo = cfg.for_mode(Mode.LOCKSTEP)
        assert solo.workers_active == solo.workers_passive == 1
        assert solo.mode is Mode.LOCKSTEP
        pooled = cfg.for_mode(Mode.SYNC_PS)
        assert pooled.workers_active == 8 and pooled.workers_passive == 10
        assert cfg.mode is Mode.PUBSUB  # original untouched

    def test_for_mode_clears_lookahead_where_one_batch_is_in_flight(self):
        cfg = TrainConfig(lookahead=3)
        kept = {mode: cfg.for_mode(mode).lookahead for mode in Mode}
        assert kept == {mode: None if mode in ONE_IN_FLIGHT_MODES else 3 for mode in Mode}
        assert set(ONE_IN_FLIGHT_MODES) == {Mode.LOCKSTEP, Mode.SYNC_PS}
        assert cfg.lookahead == 3

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            ModelShape(active_hidden=[0])
        with pytest.raises(ConfigError):
            ModelShape(passive_embed=0)


class TestSectionConfigs:
    def test_dataset_kinds(self):
        assert DatasetConfig().kind == "synthetic"
        with pytest.raises(ConfigError):
            DatasetConfig(kind="parquet")
        with pytest.raises(ConfigError):
            DatasetConfig(kind="csv")  # needs csv_path
        DatasetConfig(kind="csv", csv_path="/tmp/x.csv")

    @pytest.mark.parametrize(
        "overrides",
        [{"rows": 1}, {"features": 1}, {"informative": 0}, {"informative": 51},
         {"separation": float("nan")}],
    )
    def test_dataset_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigError):
            DatasetConfig(**overrides)

    def test_split_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SplitConfig(test_fraction=0.0)
        with pytest.raises(ConfigError):
            SplitConfig(test_fraction=1.0)
        with pytest.raises(ConfigError):
            SplitConfig(active_features=0)


class TestKeyValueParsing:
    def test_comments_blanks_and_values(self):
        text = """
        # an experiment
        dataset.rows = 500   # inline comment
        train.mode = sync_ps

        train.privacy_mu = inf
        """
        values = parse_key_value_text(text)
        assert values == {
            "dataset.rows": "500",
            "train.mode": "sync_ps",
            "train.privacy_mu": "inf",
        }

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match=":3: duplicate key"):
            parse_key_value_text("a = 1\n\na = 2\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match=":2: expected"):
            parse_key_value_text("a = 1\nbroken line\n")


class TestExperimentAssembly:
    def test_full_mapping(self):
        exp = experiment_from_mapping(
            {
                "dataset.rows": "2000",
                "dataset.features": "30",
                "dataset.task": "classification",
                "split.test_fraction": "0.2",
                "model.active_hidden": "32,16",
                "model.top_hidden": "8",
                "train.mode": "pubsub",
                "train.batch_size": "128",
                "train.deadline_ms": "50",
                "train.skew_passive_ms": "10",
                "train.privacy_mu": "1.5",
                "train.privacy_queries": "none",
                "train.lookahead": "3",
            }
        )
        assert exp.dataset.rows == 2000
        assert exp.dataset.task is Task.CLASSIFICATION
        assert exp.split.test_fraction == 0.2
        assert exp.train.shape.active_hidden == [32, 16]
        assert exp.train.shape.top_hidden == [8]
        assert exp.train.deadline_seconds == 0.05
        assert exp.train.skew_passive_seconds == 0.01
        assert exp.train.privacy_mu == 1.5
        assert exp.train.privacy_queries is None
        assert exp.train.lookahead == 3

    def test_defaults_when_empty(self):
        exp = experiment_from_mapping({})
        assert isinstance(exp, ExperimentConfig)
        assert exp.train.batch_size == 256

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            experiment_from_mapping({"train.warp_speed": "9"})

    def test_unknown_mode_and_task_rejected(self):
        with pytest.raises(ConfigError, match="unknown mode"):
            experiment_from_mapping({"train.mode": "turbo"})
        with pytest.raises(ConfigError, match="unknown task"):
            experiment_from_mapping({"dataset.task": "ranking"})

    def test_unparseable_value_names_the_key(self):
        with pytest.raises(ConfigError, match="train.batch_size"):
            experiment_from_mapping({"train.batch_size": "many"})

    def test_label_column_int_or_name(self):
        exp = experiment_from_mapping(
            {"dataset.kind": "csv", "dataset.csv_path": "x.csv",
             "dataset.label_column": "7"}
        )
        assert exp.dataset.label_column == 7
        exp = experiment_from_mapping(
            {"dataset.kind": "csv", "dataset.csv_path": "x.csv",
             "dataset.label_column": "outcome"}
        )
        assert exp.dataset.label_column == "outcome"

    def test_invalid_section_value_wrapped_as_config_error(self):
        with pytest.raises(ConfigError):
            experiment_from_mapping({"train.batch_size": "-5"})

    def test_keys_and_fields_are_one_to_one(self):
        sections = {"dataset": DatasetConfig, "split": SplitConfig, "train": TrainConfig,
                    "shape": ModelShape}
        wanted = {(section, f.name) for section, cls in sections.items()
                  for f in fields(cls) if (section, f.name) != ("train", "shape")}
        targets = [(section, attr) for section, attr, _ in config._KEYMAP.values()]
        assert len(targets) == len(set(targets))  # no field has two keys
        assert set(targets) == wanted


class TestFileLoading:
    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("dataset.rows = 123\ntrain.epochs = 2\n")
        exp = load_experiment_config(str(path))
        assert exp.dataset.rows == 123
        assert exp.train.epochs == 2

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_experiment_config("/nonexistent/exp.conf")
