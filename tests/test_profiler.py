"""Delay-model fitting: exact recovery, noisy recovery, prediction arithmetic.

The fitted constants drive the planner, so the fit itself gets an identity
check on synthetic power-law data and the predictions get checked against
50-digit arithmetic — timing jitter only enters through the live-sweep
tests, which assert structure and repeat stability, not exact values.
"""

import dataclasses
import math
import statistics
import warnings

import numpy as np
import pytest

from splitbus import nn
from splitbus.profiler import (
    CalibRole,
    CalibrationSample,
    DelayConstants,
    _bytes_per_row,
    build_constants,
    fit_power_law,
    memory_bound,
    model_memory_bytes,
    predict_times,
    read_profile,
    run_calibration,
    write_profile,
    DEFAULT_BATCH_SWEEP,
)

from oracles import mp_stage_time, realistic_constants

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
        times = predict_times(c, 32, 8, 8)
        cases = [
            (times.forward_active, c.forward_coef_active, c.forward_exp_active, 8, 32),
            (times.backward_active, c.backward_coef_active, c.backward_exp_active, 8, 32),
            (times.forward_passive, c.forward_coef_passive, c.forward_exp_passive, 8, 32),
            (times.backward_passive, c.backward_coef_passive, c.backward_exp_passive, 8, 32),
        ]
        for got, coef, exponent, w, cores in cases:
            want = mp_stage_time(coef, exponent, 32, w, cores)
            assert got == pytest.approx(want, rel=1e-12)
        want_top = mp_stage_time(
            c.top_forward_coef, c.top_forward_exp, 32, 8, 32
        ) + mp_stage_time(c.top_backward_coef, c.top_backward_exp, 32, 8, 32)
        assert times.top_active == pytest.approx(want_top, rel=1e-12)

    def test_transfer_times(self):
        # both messages: a 16-byte header and 64 x 2 float64 entries = 1040 bytes
        c = realistic_constants(cut_width=2, bandwidth_bytes_per_sec=1040.0)
        times = predict_times(c, 64, 1, 1)
        assert times.transfer == 1.0

    def test_unit_cancellation(self):
        c = realistic_constants(
            forward_coef_active=1.0, forward_exp_active=0.0, cores_active=8
        )
        assert predict_times(c, 17, 8, 1).forward_active == 1.0

    def test_core_scaling_homogeneous(self):
        c1 = realistic_constants(cores_active=8, cores_passive=4)
        c2 = realistic_constants(cores_active=16, cores_passive=8)
        t1 = predict_times(c1, 128, 4, 2)
        t2 = predict_times(c2, 128, 8, 4)
        assert t1 == t2  # w/C unchanged => identical floats

    def test_rejects_bad_inputs(self):
        c = realistic_constants()
        with pytest.raises(ValueError):
            predict_times(c, 0, 1, 1)
        with pytest.raises(ValueError):
            predict_times(c, 8, 0, 1)


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


class TestCalibrationSweep:
    def test_sample_structure(self):
        passive, active, top = small_models()
        samples = run_calibration(passive, active, top, [2, 8, 32], repetitions=3)
        assert len(samples) == 6 * 3  # six stages x three sizes
        seen = {(s.role, s.batch_size) for s in samples}
        assert len(seen) == 18
        assert all(s.elapsed_seconds > 0.0 for s in samples)
        assert all(s.repetitions == 3 for s in samples)

    def test_default_sweep_is_the_doubling_ladder(self):
        passive, active, top = small_models()
        samples = run_calibration(passive, active, top, repetitions=1)
        sizes = sorted({s.batch_size for s in samples})
        assert sizes == DEFAULT_BATCH_SWEEP

    def test_repeat_run_medians_are_stable(self):
        # heavyweight stage so scheduler jitter stays well under the bound.
        # On a shared host the speed of the machine drifts by more than the
        # bound between two back-to-back sweeps, so the two sides are 20
        # sweeps each, interleaved, and compared through their median.
        relu = nn.Activation.RELU
        passive = nn.init_mlp([128, 256, 64], [relu, relu], seed=4)
        active = nn.init_mlp([128, 256, 64], [relu, relu], seed=5)
        top = nn.init_mlp([128, 128, 1], [relu, nn.Activation.SIGMOID], seed=6)
        sweeps = [run_calibration(passive, active, top, [256], repetitions=3) for _ in range(40)]
        for stage, sample in enumerate(sweeps[0]):
            assert all(sweep[stage].role is sample.role for sweep in sweeps)
            first = statistics.median(s[stage].elapsed_seconds for s in sweeps[0::2])
            second = statistics.median(s[stage].elapsed_seconds for s in sweeps[1::2])
            assert 0.8 < first / second < 1.25, (sample.role, first / second)

    def test_backward_stages_pass_the_runtime_input_grad_switch(self, monkeypatch):
        # Bottom backprop stops at the parameter gradients in the runtime, so
        # it is timed that way; only the top model's input gradient is used.
        passive, active, top = small_models()
        real_backward = nn.backward
        seen = []

        def recording_backward(model, tape, d_out, **kwargs):
            seen.append((model, kwargs))
            return real_backward(model, tape, d_out, **kwargs)

        monkeypatch.setattr(nn, "backward", recording_backward)
        run_calibration(passive, active, top, [4, 16], repetitions=2)
        switches = {}
        for model, kwargs in seen:
            switches.setdefault(id(model), set()).add(kwargs["input_grad"])
        assert switches == {id(passive): {False}, id(active): {False}, id(top): {True}}

    def test_stages_alternate_within_each_batch_size(self, monkeypatch):
        # Host drift must hit all six stages alike, so each repetition times
        # every stage once, round-robin, instead of one stage's block at a time.
        passive, active, top = small_models()
        names = {id(passive): "passive", id(active): "active", id(top): "top"}
        real_forward, real_backward = nn.forward, nn.backward
        calls = []

        def recording_forward(model, x):
            calls.append((x.shape[0], names[id(model)], "forward"))
            return real_forward(model, x)

        def recording_backward(model, tape, d_out, **kwargs):
            calls.append((d_out.shape[0], names[id(model)], "backward"))
            return real_backward(model, tape, d_out, **kwargs)

        monkeypatch.setattr(nn, "forward", recording_forward)
        monkeypatch.setattr(nn, "backward", recording_backward)
        reps = 4
        run_calibration(passive, active, top, [4, 16], repetitions=reps)
        cycle = [(m, k) for m in ("passive", "active", "top") for k in ("forward", "backward")]
        sizes = [size for size, _, _ in calls]
        assert sizes == sorted(sizes)  # one batch size after the other
        for b in (4, 16):
            sequence = [(m, k) for size, m, k in calls if size == b]
            # per stage: a forward for its tape and one warm-up call, then the timed cycles
            assert len(sequence) == 2 * 6 + 6 * reps
            assert sequence[-6 * reps:] == cycle * reps

    def test_validates_arguments(self):
        passive, active, top = small_models()
        with pytest.raises(ValueError):
            run_calibration(passive, active, top, [0, 4], repetitions=1)
        with pytest.raises(ValueError):
            run_calibration(passive, active, top, [4], repetitions=0)
        with pytest.raises(ValueError):
            CalibrationSample(CalibRole.TOP_FORWARD, 4, -0.1, 1)


class TestProfileBuild:
    def test_end_to_end_constants_and_roundtrip(self, tmp_path):
        passive, active, top = small_models()
        samples = run_calibration(passive, active, top, [4, 16, 64, 256], repetitions=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # tiny-model timings may fit loosely
            constants = build_constants(
                samples, passive, active, top,
                cores_active=4, cores_passive=2,
                bandwidth_bytes_per_sec=1e9,
                mem_budget_active=1e9, mem_budget_passive=1e9,
            )
        assert constants.mem_base_passive == 2 * passive.parameter_bytes
        assert constants.mem_base_active == 2 * (
            active.parameter_bytes + top.parameter_bytes
        )
        assert constants.cut_width == passive.out_dim
        assert memory_bound(constants) > 256

        path = tmp_path / "profile.txt"
        write_profile(str(path), constants)
        loaded = read_profile(str(path))
        assert loaded == constants  # repr round-trip is lossless

    def test_single_worker_prediction_reproduces_measurement(self):
        # fitted coef absorbs the core count: predict(w=1) == measured median
        samples = [
            CalibrationSample(role, b, 0.004 * b**0.9, 3)
            for role in CalibRole
            for b in (8, 32, 128)
        ]
        passive, active, top = small_models()
        constants = build_constants(
            samples, passive, active, top, cores_active=4, cores_passive=2
        )
        predicted = predict_times(constants, 32, 1, 1)
        measured = 0.004 * 32**0.9
        assert predicted.forward_active == pytest.approx(measured, rel=1e-9)
        assert predicted.forward_passive == pytest.approx(measured, rel=1e-9)

    def test_non_finite_constants_are_rejected_by_name(self):
        unbounded = {"bandwidth_bytes_per_sec", "mem_budget_active", "mem_budget_passive"}
        for f in dataclasses.fields(DelayConstants):
            bad = [math.nan] if f.name in unbounded else [math.nan, math.inf, -math.inf]
            for value in bad:
                with pytest.raises(ValueError, match=f"{f.name} must be finite"):
                    realistic_constants(**{f.name: value})
        # bandwidth and budgets may be unbounded: no wire time, no memory ceiling
        c = realistic_constants(
            bandwidth_bytes_per_sec=math.inf, mem_budget_active=math.inf,
            mem_budget_passive=math.inf,
        )
        assert predict_times(c, 64, 1, 1).transfer == 0.0
        assert memory_bound(c) == math.inf

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
        malformed.write_text("forward_coef_active 0.01\n")
        with pytest.raises(ValueError, match="expected"):
            read_profile(str(malformed))
