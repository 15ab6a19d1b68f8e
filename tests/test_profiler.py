"""Delay-model fitting: exact recovery, noisy recovery, prediction arithmetic.

The fitted constants drive the planner, so the fit itself gets an identity
check on synthetic power-law data and the predictions get checked against
50-digit arithmetic — timing jitter only enters through the live-sweep
tests, which assert structure and repeat stability, not exact values.
"""

import dataclasses
import math
import os
import statistics
import subprocess
import sys
import warnings

import numpy as np
import pytest

import splitbus
from splitbus import nn, runtime
from splitbus.config import ConfigError
from splitbus.planner import iteration_objective
from splitbus.profiler import (
    CalibRole,
    CalibrationSample,
    DelayConstants,
    _bytes_per_row,
    build_constants,
    fit_power_law,
    memory_bound,
    read_profile,
    run_calibration,
    step_seconds,
    write_profile,
    DEFAULT_BATCH_SWEEP,
)

from oracles import model_memory_bytes, mp_stage_time, realistic_constants

SWEEP = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


def small_models():
    relu = nn.Activation.RELU
    passive = nn.init_mlp([10, 16, 4], [relu, relu], seed=1)
    active = nn.init_mlp([8, 16, 4], [relu, relu], seed=2)
    top = nn.init_mlp([8, 8, 1], [relu, nn.Activation.SIGMOID], seed=3)
    return passive, active, top


class TestPowerLawFit:
    def test_exact_recovery_simple(self):
        times = [2.0 * b**0.5 for b in SWEEP]
        coef, exponent, r2 = fit_power_law(SWEEP, times)
        assert abs(coef - 2.0) < 1e-9
        assert abs(exponent - 0.5) < 1e-9
        assert r2 == pytest.approx(1.0)

    def test_exact_recovery_negative_exponents(self):
        # the regime real vectorised measurements produce
        for coef_true, exp_true in [(0.018, -0.8015), (0.010, -1.0071)]:
            times = [coef_true * b**exp_true for b in SWEEP]
            coef, exponent, _ = fit_power_law(SWEEP, times)
            assert abs(coef - coef_true) < 1e-9
            assert abs(exponent - exp_true) < 1e-9

    def test_identity_property_sweep(self):
        for coef_true in (0.01, 0.018, 2.0):
            for exp_true in (-1.0071, -0.5, 0.5):
                times = [coef_true * b**exp_true for b in SWEEP]
                coef, exponent, _ = fit_power_law(SWEEP, times)
                assert abs(coef - coef_true) < 1e-9, (coef_true, exp_true)
                assert abs(exponent - exp_true) < 1e-9, (coef_true, exp_true)

    def test_noisy_recovery_within_tolerance(self):
        rng = np.random.default_rng(7)
        for exp_true in (-1.0, -0.5, 0.7):
            noise = 1.0 + rng.uniform(-0.05, 0.05, size=len(SWEEP))
            times = [0.05 * b**exp_true * eps for b, eps in zip(SWEEP, noise)]
            _, exponent, _ = fit_power_law(SWEEP, times)
            assert abs(exponent - exp_true) < 0.05

    def test_rejects_thin_or_bad_data(self):
        with pytest.raises(ValueError):
            fit_power_law([2, 4], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_power_law([2, 2, 2, 2], [1.0, 1.0, 1.0, 1.0])  # not distinct
        for sizes in ([8, 8, 16], [8, 8.0, 16]):
            with pytest.raises(ValueError, match="at least 3 distinct batch sizes"):
                fit_power_law(sizes, [1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            fit_power_law([2, 4, 8], [1.0, 0.0, 2.0])

    def test_poor_fit_warns_not_fails(self):
        rng = np.random.default_rng(0)
        scattered = list(rng.uniform(0.5, 50.0, size=len(SWEEP)))
        with pytest.warns(UserWarning, match="r\\^2"):
            coef, _, r2 = fit_power_law(SWEEP, scattered)
        assert coef > 0.0 and r2 < 0.9


class TestPrediction:
    def test_stage_times_match_high_precision(self):
        c = realistic_constants()
        for role, (coef, exponent) in c.stages.items():
            for w in (1, 3, 8):
                want = mp_stage_time(coef, exponent, 32, w)
                assert step_seconds(c, role, 32) * w == pytest.approx(want, rel=1e-12), role

    def test_unit_cancellation(self):
        c = realistic_constants(stages={"active_step": (1.0, 0.0)})
        assert step_seconds(c, CalibRole.ACTIVE_STEP, 17) == 1.0
        assert iteration_objective(c, 8, 1, 17) == 8.0

    @pytest.mark.parametrize("role", list(CalibRole), ids=lambda r: r.value)
    def test_a_batch_of_one_costs_the_coefficient(self, role):
        c = realistic_constants()
        coef, exp = c.stages[role]
        assert step_seconds(c, role, 1) == coef
        assert step_seconds(c, role, 256) == coef * 256.0**exp

    def test_rejects_bad_inputs(self):
        c = realistic_constants()
        with pytest.raises(ValueError):
            iteration_objective(c, 1, 1, 0)
        with pytest.raises(ValueError):
            iteration_objective(c, 0, 1, 8)


class TestMemoryBound:
    def test_linear_case_exact(self):
        c = realistic_constants(
            mem_slope_active=1.0, mem_slope_passive=1.0,
            mem_base_active=100.0, mem_base_passive=100.0,
            mem_budget_active=1000.0, mem_budget_passive=1000.0,
        )
        assert memory_bound(c) == 900.0

    def test_tighter_party_binds(self):
        c = realistic_constants(
            mem_slope_active=1.0, mem_slope_passive=2.0,
            mem_base_active=0.0, mem_base_passive=0.0,
            mem_budget_active=1000.0, mem_budget_passive=1000.0,
        )
        assert memory_bound(c) == 500.0  # the passive side runs out first

    def test_budget_must_exceed_base(self):
        with pytest.raises(ValueError):
            realistic_constants(mem_budget_active=1.0, mem_base_active=2.0)

    def test_monotonicity_sweep(self):
        base = dict(
            mem_base_active=50.0, mem_base_passive=50.0,
            mem_slope_active=2.0, mem_slope_passive=2.0,
            mem_budget_active=5000.0, mem_budget_passive=5000.0,
        )
        reference = memory_bound(realistic_constants(**base))
        assert memory_bound(
            realistic_constants(**{**base, "mem_slope_active": 4.0})
        ) <= reference
        assert memory_bound(
            realistic_constants(**{**base, "mem_base_passive": 500.0})
        ) <= reference
        assert memory_bound(
            realistic_constants(**{**base, "mem_budget_active": 9000.0,
                                  "mem_budget_passive": 9000.0})
        ) >= reference


class TestMemoryModel:
    def test_allocation_formula_hand_computed(self):
        model = nn.init_mlp([3, 5, 2], [nn.Activation.RELU, nn.Activation.IDENTITY], 0)
        # params: (3*5 + 5) + (5*2 + 2) = 32 doubles; activations per row:
        # input 3 + one output per layer (5 + 2) = 10 doubles
        assert model.parameter_bytes == 32 * 8
        assert model_memory_bytes(model, 4) == 2 * 32 * 8 + 8 * 4 * 10

    @pytest.mark.parametrize("batch", [1, 32, 257])
    def test_rows_term_is_what_the_tape_holds(self, batch):
        acts = [nn.Activation.RELU, nn.Activation.SIGMOID, nn.Activation.IDENTITY]
        model = nn.init_mlp([7, 16, 9, 3], acts, seed=2)
        x = np.random.default_rng(batch).normal(size=(batch, 7))
        _, tape = nn.forward(model, x)
        held = tape.inputs[0].nbytes + sum(post.nbytes for post in tape.postacts)
        assert held == batch * _bytes_per_row(model)

    def test_activations_are_counted_at_the_model_itemsize(self):
        acts = [nn.Activation.RELU, nn.Activation.SIGMOID, nn.Activation.IDENTITY]
        wide = nn.init_mlp([7, 16, 9, 3], acts, seed=2)
        narrow = nn.init_mlp([7, 16, 9, 3], acts, seed=2, dtype=np.float32)
        assert _bytes_per_row(wide) == 8 * (7 + 16 + 9 + 3)
        assert _bytes_per_row(narrow) == 4 * (7 + 16 + 9 + 3)
        for b in (1, 32, 257):
            x = np.random.default_rng(b).normal(size=(b, 7)).astype(np.float32)
            _, tape = nn.forward(narrow, x)
            held = tape.inputs[0].nbytes + sum(post.nbytes for post in tape.postacts)
            assert held == b * _bytes_per_row(narrow)
            assert model_memory_bytes(wide, b) == 2 * model_memory_bytes(narrow, b)

    def test_narrow_bottoms_halve_the_passive_rows_term(self):
        samples = [
            CalibrationSample(role, b, 0.004 * b**0.9, 3)
            for role in CalibRole
            for b in (8, 32, 128)
        ]
        relu = nn.Activation.RELU
        passive, active, top = small_models()
        narrow = [nn.init_mlp([m.in_dim] + [layer.weight.shape[1] for layer in m.layers],
                              [relu, relu], seed=1, dtype=np.float32)
                  for m in (passive, active)]
        wide_c = build_constants(samples, passive, active, top)
        narrow_c = build_constants(samples, *narrow, top)
        assert narrow_c.mem_slope_passive == wide_c.mem_slope_passive / 2

    def test_build_constants_equals_allocation_formula(self):
        samples = [
            CalibrationSample(role, b, 0.004 * b**0.9, 3)
            for role in CalibRole
            for b in (8, 32, 128)
        ]
        passive, active, top = small_models()
        c = build_constants(samples, passive, active, top)
        for b in (1, 7, 256, 4096):
            active_total = model_memory_bytes(active, b) + model_memory_bytes(top, b)
            assert c.mem_base_active + c.mem_slope_active * b == active_total
            passive_total = model_memory_bytes(passive, b)
            assert c.mem_base_passive + c.mem_slope_passive * b == passive_total


PROFILE_WITHOUT_NUMPY_MA = """
import sys
from splitbus import nn
from splitbus.profiler import build_constants, run_calibration
relu = nn.Activation.RELU
models = [nn.init_mlp([6, 8, 4], [relu, relu], seed=s) for s in (1, 2)]
models.append(nn.init_mlp([8, 4, 1], [relu, nn.Activation.SIGMOID], seed=3))
build_constants(run_calibration(*models, [2, 4, 8], repetitions=1), *models)
print("numpy.ma" in sys.modules)
"""


def test_profiling_does_not_import_numpy_ma():
    # Importing numpy.ma (np.unique does) would add about 10 ms to every profile.
    package_root = os.path.dirname(os.path.dirname(splitbus.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", PROFILE_WITHOUT_NUMPY_MA],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestCalibrationSweep:
    def test_sample_structure(self):
        passive, active, top = small_models()
        samples = run_calibration(passive, active, top, [2, 8, 32], repetitions=3)
        assert len(samples) == 2 * 3  # two steps x three sizes
        assert [(s.role, s.batch_size) for s in samples] == [
            (role, b) for role in CalibRole for b in (2, 8, 32)
        ]
        assert all(s.elapsed_seconds > 0.0 for s in samples)
        assert all(s.repetitions == 3 for s in samples)

    def test_default_sweep_is_the_doubling_ladder(self):
        passive, active, top = small_models()
        samples = run_calibration(passive, active, top, repetitions=1)
        sizes = sorted({s.batch_size for s in samples})
        assert sizes == DEFAULT_BATCH_SWEEP

    def test_repeat_run_medians_are_stable(self):
        # heavyweight steps so scheduler jitter stays well under the bound.
        # On a shared host the speed of the machine drifts by more than the
        # bound between two back-to-back sweeps, and a process on the other
        # CPU can slow one sweep for a while.  So the two sweeps are
        # interleaved per batch size: each round runs one sweep of each side
        # at that size back to back, the side that goes first alternating
        # from round to round, and each stage is judged by the median over
        # the rounds of the two sides' per-round ratio.
        relu = nn.Activation.RELU
        passive = nn.init_mlp([128, 256, 64], [relu, relu], seed=4)
        active = nn.init_mlp([128, 256, 64], [relu, relu], seed=5)
        top = nn.init_mlp([128, 128, 1], [relu, nn.Activation.SIGMOID], seed=6)
        for b in (64, 256):
            ratios = []
            for round_ in range(20):
                pair = [run_calibration(passive, active, top, [b], repetitions=3) for _ in range(2)]
                first, second = pair if round_ % 2 == 0 else pair[::-1]
                assert [s.role for s in first] == [s.role for s in second]
                ratios.append([f.elapsed_seconds / s.elapsed_seconds
                               for f, s in zip(first, second)])
            for step, sample in enumerate(first):
                ratio = statistics.median(r[step] for r in ratios)
                assert 0.8 < ratio < 1.25, (sample.role, b, ratio)

    def test_times_the_runtime_steps_alternating_within_each_batch_size(self, monkeypatch):
        # The sweep calls the runtime's own step functions.  Host drift must
        # hit both steps alike, so after one warm-up each, every repetition
        # runs the passive step and then the active one, one batch size
        # after the other.
        passive, active, top = small_models()
        real_update, real_step = runtime.passive_update, runtime.active_step
        calls = []

        def recording_update(model, tape, d_z, eta):
            calls.append((d_z.shape[0], "passive", eta))
            return real_update(model, tape, d_z, eta)

        def recording_step(bottom, top, bottom_out, z_passive, y, task, eta, send_gradient):
            calls.append((y.shape[0], "active", eta))
            return real_step(bottom, top, bottom_out, z_passive, y, task, eta, send_gradient)

        monkeypatch.setattr(runtime, "passive_update", recording_update)
        monkeypatch.setattr(runtime, "active_step", recording_step)
        reps = 4
        run_calibration(passive, active, top, [4, 16], repetitions=reps)
        # per batch size: one warm-up of each step, then the timed cycles
        assert calls == [
            (b, party, 0.0) for b in (4, 16) for _ in range(1 + reps)
            for party in ("passive", "active")
        ]

    def test_the_passive_step_draws_noise_at_sigma_one(self, monkeypatch):
        # A run with privacy_mu = inf skips the draw; the profile times it.
        passive, active, top = small_models()
        real_forward = runtime.passive_forward
        calls = []

        def recording_forward(model, x, sigma, rng, report=None):
            calls.append((x.shape[0], sigma, report))
            return real_forward(model, x, sigma, rng, report)

        monkeypatch.setattr(runtime, "passive_forward", recording_forward)
        reps = 2
        run_calibration(passive, active, top, [4, 16], repetitions=reps)
        assert [(b, sigma) for b, sigma, _ in calls] == [
            (b, 1.0) for b in (4, 16) for _ in range(1 + reps)
        ]
        for b, _, report in calls:
            assert report.entries == (1 + reps) * b * passive.out_dim

    def test_leaves_the_callers_models_as_they_were(self):
        passive, active, top = small_models()
        models = (passive, active, top)
        before = [(m.params.view(np.uint64).copy(), m.param_version) for m in models]
        run_calibration(passive, active, top, [4, 16], repetitions=2)
        for model, (params, version) in zip(models, before):
            assert np.array_equal(model.params.view(np.uint64), params)
            assert model.param_version == version

    def test_validates_arguments(self):
        passive, active, top = small_models()
        with pytest.raises(ValueError):
            run_calibration(passive, active, top, [0, 4], repetitions=1)
        with pytest.raises(ValueError):
            run_calibration(passive, active, top, [4], repetitions=0)
        with pytest.raises(ValueError):
            CalibrationSample(CalibRole.ACTIVE_STEP, 4, -0.1, 1)


class TestProfileBuild:
    def test_end_to_end_constants_and_roundtrip(self, tmp_path):
        passive, active, top = small_models()
        samples = run_calibration(passive, active, top, [4, 16, 64, 256], repetitions=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # tiny-model timings may fit loosely
            constants = build_constants(
                samples, passive, active, top, mem_budget_active=1e9, mem_budget_passive=1e9,
            )
        assert constants.mem_base_passive == 2 * passive.parameter_bytes
        assert constants.mem_base_active == 2 * (
            active.parameter_bytes + top.parameter_bytes
        )
        assert memory_bound(constants) > 256

        path = tmp_path / "profile.txt"
        write_profile(str(path), constants)
        loaded = read_profile(str(path))
        assert loaded == constants  # repr round-trip is lossless

    def test_unbounded_budgets_round_trip(self, tmp_path):
        c = realistic_constants(mem_budget_active=math.inf, mem_budget_passive=math.inf)
        path = tmp_path / "p.txt"
        write_profile(str(path), c)
        assert read_profile(str(path)) == c

    @pytest.mark.parametrize(
        "key", ["cut_width", "cores_active", "cores_passive", "bandwidth_bytes_per_sec"]
    )
    def test_read_profile_refuses_a_removed_constant(self, tmp_path, key):
        # The model has no wire term and no core scaling: a profile that still
        # carries one of their constants was fitted under the old model.
        path = tmp_path / "p.txt"
        write_profile(str(path), realistic_constants())
        path.write_text(path.read_text() + f"{key} = 16\n")
        with pytest.raises(ConfigError, match=f"unknown constant '{key}'"):
            read_profile(str(path))

    def test_single_worker_prediction_reproduces_measurement(self):
        # an exact power law: the fitted step time at w=1 is the measured median
        samples = [
            CalibrationSample(role, b, 0.004 * b**0.9, 3)
            for role in CalibRole
            for b in (8, 32, 128)
        ]
        passive, active, top = small_models()
        constants = build_constants(samples, passive, active, top)
        measured = 0.004 * 32**0.9
        for role in CalibRole:
            assert step_seconds(constants, role, 32) == pytest.approx(measured, rel=1e-9), role

    def test_non_finite_constants_are_rejected_by_name(self):
        unbounded = {"mem_budget_active", "mem_budget_passive"}
        for f in dataclasses.fields(DelayConstants):
            if f.name == "stages":
                continue
            bad = [math.nan] if f.name in unbounded else [math.nan, math.inf, -math.inf]
            for value in bad:
                with pytest.raises(ValueError, match=f"{f.name} must be finite"):
                    realistic_constants(**{f.name: value})
        for role in CalibRole:
            for value in (math.nan, math.inf, -math.inf):
                for pair in ((value, -0.5), (0.01, value)):
                    with pytest.raises(ValueError, match=f"{role.value} must be finite"):
                        realistic_constants(stages={role.value: pair})
        # the budgets may be unbounded: no memory ceiling
        c = realistic_constants(mem_budget_active=math.inf, mem_budget_passive=math.inf)
        assert memory_bound(c) == math.inf

    @pytest.mark.parametrize("coef", [0.0, -0.01])
    def test_a_non_positive_stage_coef_is_rejected_by_name(self, coef):
        for role in CalibRole:
            with pytest.raises(ValueError, match=f"{role.value} coef must be positive"):
                realistic_constants(stages={role.value: (coef, -0.5)})

    def test_stages_must_be_exactly_the_two_steps(self):
        stages = realistic_constants().stages
        for role in CalibRole:
            short = {r: pair for r, pair in stages.items() if r is not role}
            with pytest.raises(ValueError, match=f"missing \\['{role.value}'\\]"):
                DelayConstants(stages=short)
        with pytest.raises(ValueError, match="unknown \\['top_sideways'\\]"):
            DelayConstants(stages={**stages, "top_sideways": (1.0, 0.0)})

    def test_read_profile_rejects_junk(self, tmp_path):
        good = tmp_path / "p.txt"
        write_profile(str(good), realistic_constants())
        text = good.read_text()

        bad_key = tmp_path / "bad_key.txt"
        bad_key.write_text(text + "mystery_knob = 3\n")
        with pytest.raises(ValueError, match="unknown constant"):
            read_profile(str(bad_key))

        truncated = tmp_path / "short.txt"
        truncated.write_text("".join(text.splitlines(keepends=True)[:5]))
        with pytest.raises(ValueError, match="missing constants"):
            read_profile(str(truncated))

        malformed = tmp_path / "mal.txt"
        malformed.write_text("active_step 0.01 -0.5\n")
        with pytest.raises(ValueError, match="expected"):
            read_profile(str(malformed))

    def test_the_profile_has_one_coef_exp_line_per_stage(self, tmp_path):
        path = tmp_path / "p.txt"
        write_profile(str(path), realistic_constants())
        lines = dict(line.split(" = ") for line in path.read_text().splitlines())
        for role in CalibRole:
            assert lines[role.value] == "{!r} {!r}".format(*realistic_constants().stages[role])
        assert list(lines) == ["passive_step", "active_step"] + [
            f"mem_{kind}_{party}" for kind in ("base", "slope", "budget")
            for party in ("active", "passive")
        ]

    @pytest.mark.parametrize("role", list(CalibRole), ids=lambda r: r.value)
    def test_read_profile_names_a_missing_or_malformed_stage_line(self, tmp_path, role):
        good = tmp_path / "p.txt"
        write_profile(str(good), realistic_constants())
        rows = good.read_text().splitlines()
        mine = next(row for row in rows if row.startswith(role.value + " = "))
        missing = tmp_path / "missing.txt"
        missing.write_text("\n".join(row for row in rows if row != mine) + "\n")
        with pytest.raises(ConfigError, match=f"missing constants: {role.value}$"):
            read_profile(str(missing))
        for text in ("0.01", "0.01 -0.5 2", "0.01 x", "x -0.5"):
            bad = tmp_path / "bad.txt"
            bad.write_text("\n".join(
                f"{role.value} = {text}" if row == mine else row for row in rows
            ) + "\n")
            with pytest.raises(ConfigError, match=f"cannot parse {role.value} = "):
                read_profile(str(bad))
