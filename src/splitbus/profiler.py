"""Delay-model calibration: timing sweeps and power-law fits.

Per-call compute time for each model stage is modelled as ``coef * B**exp``
seconds at one core per worker; running ``w`` workers on ``C`` cores scales
it by ``w / C``.  The six (coef, exp) pairs — forward and backward for the
two bottom models and the top model — come from a log-log least-squares
fit over a batch-size sweep.  What the models fix is read off them, not
measured or configured: memory per party is ``base + slope * B`` bytes,
from the allocation formula of ``model_memory_bytes``, and both cut-layer
messages (the embedding and its gradient) are ``(B, cut_width)`` float64
arrays, ``broker.payload_byte_size(B, cut_width)`` bytes on the wire, where
``cut_width`` is the passive model's output width.  The largest batch both
parties can afford is the planner's feasibility ceiling.

The fits take the measurements at face value: if per-call time shrinks as
the batch grows (heavily amortised vectorised code), the fitted exponent is
simply negative.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import statistics
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import nn
from .broker import payload_byte_size
from .config import ConfigError, read_key_value_file


class CalibRole(enum.Enum):
    """One timed stage.  Forward and backward are timed separately for all
    three models so every delay constant is identified by its own sweep."""

    ACTIVE_BOTTOM_FORWARD = "active_bottom_forward"
    ACTIVE_BOTTOM_BACKWARD = "active_bottom_backward"
    TOP_FORWARD = "top_forward"
    TOP_BACKWARD = "top_backward"
    PASSIVE_FORWARD = "passive_forward"
    PASSIVE_BACKWARD = "passive_backward"


@dataclass
class CalibrationSample:
    role: CalibRole
    batch_size: int
    elapsed_seconds: float  # median over the repetitions
    repetitions: int

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.elapsed_seconds <= 0.0:
            raise ValueError("elapsed time must be positive")


DEFAULT_BATCH_SWEEP = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


def run_calibration(
    passive_model: nn.MlpModel,
    active_model: nn.MlpModel,
    top_model: nn.MlpModel,
    batch_sizes: list[int] | None = None,
    repetitions: int = 5,
    seed: int = 0,
) -> list[CalibrationSample]:
    """Time every stage at every batch size; median of repetitions.

    Single-threaded on purpose: contention would corrupt the timings.  For
    each batch size, every stage gets its own input and tape and one
    untimed warm-up call (absorbing allocator and cache effects), and then
    each repetition times all six stages round-robin, so that drift in the
    machine's speed hits every stage alike instead of whichever stage's
    block it falls in.  Samples come back stage by stage, each in sweep order.
    """
    if not batch_sizes:
        batch_sizes = list(DEFAULT_BATCH_SWEEP)
    if any(b < 1 for b in batch_sizes):
        raise ValueError("batch sizes must be >= 1")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rng = np.random.default_rng(seed)

    stages: list[tuple[CalibRole, nn.MlpModel]] = [
        (CalibRole.PASSIVE_FORWARD, passive_model),
        (CalibRole.PASSIVE_BACKWARD, passive_model),
        (CalibRole.ACTIVE_BOTTOM_FORWARD, active_model),
        (CalibRole.ACTIVE_BOTTOM_BACKWARD, active_model),
        (CalibRole.TOP_FORWARD, top_model),
        (CalibRole.TOP_BACKWARD, top_model),
    ]
    # medians[s][i]: stage s at batch_sizes[i]
    medians: list[list[float]] = [[] for _ in stages]
    for b in batch_sizes:
        calls = [_stage_call(role, model, b, rng) for role, model in stages]
        for call in calls:
            call()  # warm-up
        timings: list[list[float]] = [[] for _ in stages]
        for _ in range(repetitions):
            for call, times in zip(calls, timings):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
        for stage_medians, times in zip(medians, timings):
            stage_medians.append(statistics.median(times))
    return [
        CalibrationSample(role, b, elapsed, repetitions)
        for (role, _), stage_medians in zip(stages, medians)
        for b, elapsed in zip(batch_sizes, stage_medians)
    ]


def _stage_call(role: CalibRole, model: nn.MlpModel, b: int, rng: np.random.Generator):
    """One stage at batch size ``b`` as a no-argument call, with its own input and tape."""
    x = rng.normal(size=(b, model.in_dim))
    d_out = np.ones((b, model.out_dim))
    _, tape = nn.forward(model, x)
    if not role.value.endswith("backward"):
        return lambda: nn.forward(model, x)
    # As in the runtime: only the top model's input gradient is consumed.
    input_grad = role is CalibRole.TOP_BACKWARD
    return lambda: nn.backward(model, tape, d_out, input_grad=input_grad)


def fit_power_law(
    batch_sizes: list[int] | np.ndarray,
    elapsed: list[float] | np.ndarray,
    r2_warn_threshold: float = 0.9,
) -> tuple[float, float, float]:
    """Least squares on (log B, log T): returns (coef, exponent, r_squared).

    A poor fit (r^2 below the threshold) warns rather than fails — noisy
    timings are a fact of life and the caller sees the number either way.
    """
    b = np.asarray(batch_sizes, dtype=float)
    t = np.asarray(elapsed, dtype=float)
    if b.shape != t.shape or b.ndim != 1:
        raise ValueError("batch_sizes and elapsed must be equal-length 1-D")
    if np.unique(b).size < 3:
        raise ValueError("power-law fit needs at least 3 distinct batch sizes")
    if np.any(t <= 0.0) or np.any(b <= 0.0):
        raise ValueError("timings and batch sizes must be positive")
    log_b, log_t = np.log(b), np.log(t)
    exponent, intercept = np.polyfit(log_b, log_t, 1)
    fitted = intercept + exponent * log_b
    ss_res = float(np.sum((log_t - fitted) ** 2))
    ss_tot = float(np.sum((log_t - log_t.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if r_squared < r2_warn_threshold:
        warnings.warn(
            f"power-law fit r^2 = {r_squared:.3f} below {r2_warn_threshold}; "
            "the delay model may not describe these timings",
            stacklevel=2,
        )
    return float(math.exp(intercept)), float(exponent), r_squared


_MAY_BE_UNBOUNDED = frozenset(
    {"bandwidth_bytes_per_sec", "mem_budget_active", "mem_budget_passive"}
)


@dataclass
class DelayConstants:
    """Everything the planner needs about one deployment."""

    # per-call compute time = coef * B**exp seconds (one core per worker)
    forward_coef_active: float
    forward_exp_active: float
    forward_coef_passive: float
    forward_exp_passive: float
    backward_coef_active: float
    backward_exp_active: float
    backward_coef_passive: float
    backward_exp_passive: float
    top_forward_coef: float
    top_forward_exp: float
    top_backward_coef: float
    top_backward_exp: float
    # both cut-layer messages are (B, cut_width) float64 arrays
    cut_width: int
    # deployment
    cores_active: int = 1
    cores_passive: int = 1
    bandwidth_bytes_per_sec: float = 1e9
    # memory model: bytes(B) = base + slope * B, per party
    mem_base_active: float = 0.0
    mem_base_passive: float = 0.0
    mem_slope_active: float = 1.0
    mem_slope_passive: float = 1.0
    mem_budget_active: float = math.inf
    mem_budget_passive: float = math.inf

    def __post_init__(self) -> None:
        # NaN passes every comparison below, so finiteness is checked first.
        # Only an unbounded resource (bandwidth, a memory budget) may be +inf.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if math.isnan(value) or (math.isinf(value) and f.name not in _MAY_BE_UNBOUNDED):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.cores_active < 1 or self.cores_passive < 1:
            raise ValueError("core counts must be >= 1")
        if self.bandwidth_bytes_per_sec <= 0.0:
            raise ValueError("bandwidth must be positive")
        if self.cut_width < 1:
            raise ValueError("cut_width must be >= 1")
        for name in (
            "forward_coef_active", "forward_coef_passive",
            "backward_coef_active", "backward_coef_passive",
            "top_forward_coef", "top_backward_coef",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive (delay coefficients are)")
        if self.mem_slope_active <= 0.0 or self.mem_slope_passive <= 0.0:
            raise ValueError("memory slopes must be positive")
        if self.mem_budget_active <= self.mem_base_active:
            raise ValueError("active memory budget must exceed its base usage")
        if self.mem_budget_passive <= self.mem_base_passive:
            raise ValueError("passive memory budget must exceed its base usage")


@dataclass
class PredictedTimes:
    """Per-iteration stage times in seconds for one (B, w_a, w_p) point."""

    forward_active: float
    backward_active: float
    top_active: float  # top model forward + backward, runs on the active party
    forward_passive: float
    backward_passive: float
    transfer: float  # one cut-layer message; the embedding and its gradient are the same size


def predict_times(c: DelayConstants, batch_size: int, w_active: int, w_passive: int) -> PredictedTimes:
    """Evaluate the delay model termwise (handy for reports and oracles)."""
    if batch_size < 1 or w_active < 1 or w_passive < 1:
        raise ValueError("batch size and worker counts must be >= 1")
    b = float(batch_size)
    share_a = w_active / c.cores_active
    share_p = w_passive / c.cores_passive
    return PredictedTimes(
        forward_active=c.forward_coef_active * b**c.forward_exp_active * share_a,
        backward_active=c.backward_coef_active * b**c.backward_exp_active * share_a,
        top_active=(
            c.top_forward_coef * b**c.top_forward_exp
            + c.top_backward_coef * b**c.top_backward_exp
        )
        * share_a,
        forward_passive=c.forward_coef_passive * b**c.forward_exp_passive * share_p,
        backward_passive=c.backward_coef_passive * b**c.backward_exp_passive * share_p,
        transfer=message_seconds(c, batch_size),
    )


def message_seconds(c: DelayConstants, batch_size: int) -> float:
    """Wire time of one cut-layer message (embedding or gradient) at batch ``batch_size``."""
    return payload_byte_size(batch_size, c.cut_width) / c.bandwidth_bytes_per_sec


def memory_bound(c: DelayConstants) -> float:
    """Largest batch size both parties can hold in memory."""
    return min(
        (c.mem_budget_active - c.mem_base_active) / c.mem_slope_active,
        (c.mem_budget_passive - c.mem_base_passive) / c.mem_slope_passive,
    )


# -- memory accounting --------------------------------------------------------


def _bytes_per_row(model: nn.MlpModel) -> int:
    """Tape bytes per batch row: the input plus each layer's activated
    output, which is all ``nn.backward`` reads."""
    return 8 * (model.in_dim + sum(layer.weight.shape[1] for layer in model.layers))


def model_memory_bytes(model: nn.MlpModel, batch_size: int) -> int:
    """Deterministic allocation model: parameters + gradients + activations.

    Counts what training one batch materialises: two copies of the parameter
    tensors (weights and their gradients), the input minibatch, and one
    activation per layer, which is what the ``nn.forward`` tape keeps for
    the backward pass.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return 2 * model.parameter_bytes + batch_size * _bytes_per_row(model)


# -- end-to-end profile construction ------------------------------------------


def build_constants(
    samples: list[CalibrationSample],
    passive_model: nn.MlpModel,
    active_model: nn.MlpModel,
    top_model: nn.MlpModel,
    cores_active: int = 1,
    cores_passive: int = 1,
    bandwidth_bytes_per_sec: float = 1e9,
    mem_budget_active: float = math.inf,
    mem_budget_passive: float = math.inf,
) -> DelayConstants:
    """Fit the full constant set from calibration samples.

    The fitted coefficients are scaled by the party's core count so that the
    model's prediction for one worker on the profiled machine reproduces the
    measurement (the w/C factor divides it back out).  The memory constants
    are read off ``model_memory_bytes`` and the cut width off the passive
    model, not fitted.
    """
    by_role: dict[CalibRole, tuple[list[int], list[float]]] = {
        role: ([], []) for role in CalibRole
    }
    for sample in samples:
        by_role[sample.role][0].append(sample.batch_size)
        by_role[sample.role][1].append(sample.elapsed_seconds)

    fits = {}
    for role, (sizes, times) in by_role.items():
        coef, exponent, _ = fit_power_law(sizes, times)
        fits[role] = (coef, exponent)

    base_active = 2 * (active_model.parameter_bytes + top_model.parameter_bytes)
    base_passive = 2 * passive_model.parameter_bytes
    slope_active = _bytes_per_row(active_model) + _bytes_per_row(top_model)
    slope_passive = _bytes_per_row(passive_model)

    return DelayConstants(
        forward_coef_active=fits[CalibRole.ACTIVE_BOTTOM_FORWARD][0] * cores_active,
        forward_exp_active=fits[CalibRole.ACTIVE_BOTTOM_FORWARD][1],
        forward_coef_passive=fits[CalibRole.PASSIVE_FORWARD][0] * cores_passive,
        forward_exp_passive=fits[CalibRole.PASSIVE_FORWARD][1],
        backward_coef_active=fits[CalibRole.ACTIVE_BOTTOM_BACKWARD][0] * cores_active,
        backward_exp_active=fits[CalibRole.ACTIVE_BOTTOM_BACKWARD][1],
        backward_coef_passive=fits[CalibRole.PASSIVE_BACKWARD][0] * cores_passive,
        backward_exp_passive=fits[CalibRole.PASSIVE_BACKWARD][1],
        top_forward_coef=fits[CalibRole.TOP_FORWARD][0] * cores_active,
        top_forward_exp=fits[CalibRole.TOP_FORWARD][1],
        top_backward_coef=fits[CalibRole.TOP_BACKWARD][0] * cores_active,
        top_backward_exp=fits[CalibRole.TOP_BACKWARD][1],
        cut_width=passive_model.out_dim,
        cores_active=cores_active,
        cores_passive=cores_passive,
        bandwidth_bytes_per_sec=bandwidth_bytes_per_sec,
        mem_base_active=float(base_active),
        mem_base_passive=float(base_passive),
        mem_slope_active=float(slope_active),
        mem_slope_passive=float(slope_passive),
        mem_budget_active=mem_budget_active,
        mem_budget_passive=mem_budget_passive,
    )


# -- profile file I/O ----------------------------------------------------------


def write_profile(path: str, constants: DelayConstants) -> None:
    """One ``name = value`` line per constant; repr keeps floats lossless."""
    with open(path, "w") as handle:
        for f in dataclasses.fields(DelayConstants):
            handle.write(f"{f.name} = {getattr(constants, f.name)!r}\n")


def read_profile(path: str) -> DelayConstants:
    """Inverse of ``write_profile``; unreadable or malformed files raise ``ConfigError``."""
    field_types = {f.name: f.type for f in dataclasses.fields(DelayConstants)}
    values: dict[str, float | int] = {}
    for name, text in read_key_value_file(path, "profile").items():
        if name not in field_types:
            raise ConfigError(f"{path}: unknown constant {name!r} (re-run 'splitbus profile')")
        try:
            values[name] = int(text) if field_types[name] == "int" else float(text)
        except ValueError:
            raise ConfigError(f"{path}: cannot parse {name} = {text!r}") from None
    missing = sorted(set(field_types) - set(values))
    if missing:
        raise ConfigError(f"{path}: missing constants: {', '.join(missing)}")
    try:
        return DelayConstants(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
