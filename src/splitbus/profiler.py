"""Delay-model calibration: timing sweeps and power-law fits.

``DelayConstants.stages`` maps each :class:`CalibRole` (forward and backward
of the two bottom models and the top model, each run by one party) to a
``(coef, exp)`` pair fitted by log-log least squares over a batch-size sweep:
one call takes ``coef * B**exp`` seconds at one core per worker, and ``w``
workers on ``C`` cores scale it by ``w / C``.  A profile file has one
``<stage> = <coef> <exp>`` line per role.  What the models fix is read off
them, not measured or configured: memory per party is ``base + slope * B``
bytes, where ``base`` is twice its models' parameter bytes (the parameters
and their gradient workspace) and ``slope`` is what the forward tape keeps
per batch row (the input and each layer's output, at the model's
itemsize).  Both cut-layer messages (the embedding and its gradient) are
``(B, cut_width)`` float64 arrays, ``broker.payload_byte_size(B,
cut_width)`` bytes on the wire, where ``cut_width`` is the passive model's
output width.  The largest batch both parties can afford is the planner's
feasibility ceiling.

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
    three models so every delay constant is identified by its own sweep.

    The order is the order in which the planner adds up each party's stages.
    """

    ACTIVE_BOTTOM_FORWARD = "active_bottom_forward"
    TOP_FORWARD = "top_forward"
    ACTIVE_BOTTOM_BACKWARD = "active_bottom_backward"
    TOP_BACKWARD = "top_backward"
    PASSIVE_FORWARD = "passive_forward"
    PASSIVE_BACKWARD = "passive_backward"

    @property
    def party(self) -> str:
        """``"active"`` or ``"passive"``: the active party also runs the top model."""
        return "passive" if self.value.startswith("passive") else "active"


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
    """One stage at batch size ``b`` as a no-argument call, with its own input and tape.

    Input and output gradient are in the model's dtype, as in the runtime.
    """
    x = rng.normal(size=(b, model.in_dim)).astype(model.dtype, copy=False)
    d_out = np.ones((b, model.out_dim), dtype=model.dtype)
    _, tape = nn.forward(model, x)
    if not role.value.endswith("backward"):
        return lambda: nn.forward(model, x)
    # As in the runtime's steps: only the top model's input gradient is consumed.
    input_grad = role is CalibRole.TOP_BACKWARD
    return lambda: nn.backward(model, tape, d_out, input_grad=input_grad)


# A power-law fit with r^2 below this warns that the delay model may not fit.
R2_WARN_THRESHOLD = 0.9


def fit_power_law(
    batch_sizes: list[int] | np.ndarray, elapsed: list[float] | np.ndarray
) -> tuple[float, float, float]:
    """Least squares on (log B, log T): returns (coef, exponent, r_squared).

    A poor fit (r^2 below ``R2_WARN_THRESHOLD``) warns rather than fails — noisy
    timings are a fact of life and the caller sees the number either way.
    """
    b = np.asarray(batch_sizes, dtype=float)
    t = np.asarray(elapsed, dtype=float)
    if b.shape != t.shape or b.ndim != 1:
        raise ValueError("batch_sizes and elapsed must be equal-length 1-D")
    if len(set(b.tolist())) < 3:  # np.unique would import numpy.ma, ~10 ms
        raise ValueError("power-law fit needs at least 3 distinct batch sizes")
    if np.any(t <= 0.0) or np.any(b <= 0.0):
        raise ValueError("timings and batch sizes must be positive")
    log_b, log_t = np.log(b), np.log(t)
    exponent, intercept = np.polyfit(log_b, log_t, 1)
    fitted = intercept + exponent * log_b
    ss_res = float(np.sum((log_t - fitted) ** 2))
    ss_tot = float(np.sum((log_t - log_t.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if r_squared < R2_WARN_THRESHOLD:
        warnings.warn(
            f"power-law fit r^2 = {r_squared:.3f} below {R2_WARN_THRESHOLD}; "
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

    # role -> (coef, exp): per-call seconds = coef * B**exp at one core per worker
    stages: dict[CalibRole, tuple[float, float]]
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
        missing = [role.value for role in CalibRole if role not in self.stages]
        unknown = [str(key) for key in self.stages if not isinstance(key, CalibRole)]
        if missing or unknown:
            raise ValueError(f"stages: missing {missing}, unknown {unknown}")
        for role, (coef, exp) in self.stages.items():
            # NaN passes every comparison, so finiteness is checked first.
            if not (math.isfinite(coef) and math.isfinite(exp)):
                raise ValueError(f"{role.value} must be finite, got {coef!r} {exp!r}")
            if coef <= 0.0:
                raise ValueError(f"{role.value} coef must be positive, got {coef!r}")
        # Only an unbounded resource (bandwidth, a memory budget) may be +inf.
        for f in _SCALAR_FIELDS:
            value = getattr(self, f.name)
            if math.isnan(value) or (math.isinf(value) and f.name not in _MAY_BE_UNBOUNDED):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.cores_active < 1 or self.cores_passive < 1:
            raise ValueError("core counts must be >= 1")
        if self.bandwidth_bytes_per_sec <= 0.0:
            raise ValueError("bandwidth must be positive")
        if self.cut_width < 1:
            raise ValueError("cut_width must be >= 1")
        if self.mem_slope_active <= 0.0 or self.mem_slope_passive <= 0.0:
            raise ValueError("memory slopes must be positive")
        if self.mem_budget_active <= self.mem_base_active:
            raise ValueError("active memory budget must exceed its base usage")
        if self.mem_budget_passive <= self.mem_base_passive:
            raise ValueError("passive memory budget must exceed its base usage")


_SCALAR_FIELDS = [f for f in dataclasses.fields(DelayConstants) if f.name != "stages"]


def stage_seconds(c: DelayConstants, role: CalibRole, batch_size: int) -> float:
    """Per-call seconds of one stage at one core per worker: ``coef * B**exp``."""
    coef, exp = c.stages[role]
    return coef * float(batch_size) ** exp


def predict_times(c: DelayConstants, batch_size: int, w_active: int,
                  w_passive: int) -> dict[CalibRole, float]:
    """Each stage's seconds per iteration at one (B, w_a, w_p) point: its
    per-call seconds times its party's w/C share."""
    if batch_size < 1 or w_active < 1 or w_passive < 1:
        raise ValueError("batch size and worker counts must be >= 1")
    share = {"active": w_active / c.cores_active, "passive": w_passive / c.cores_passive}
    return {role: stage_seconds(c, role, batch_size) * share[role.party] for role in CalibRole}


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
    output, which is all ``nn.backward`` reads, at the model's itemsize."""
    widths = model.in_dim + sum(layer.weight.shape[1] for layer in model.layers)
    return model.dtype.itemsize * widths


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
    (twice the parameter bytes, plus the tape's bytes per row) and the cut
    width are read off the models, not fitted.
    """
    cores = {"active": cores_active, "passive": cores_passive}
    stages = {}
    for role in CalibRole:
        mine = [s for s in samples if s.role is role]
        coef, exponent, _ = fit_power_law(
            [s.batch_size for s in mine], [s.elapsed_seconds for s in mine]
        )
        stages[role] = (coef * cores[role.party], exponent)
    return DelayConstants(
        stages=stages,
        cut_width=passive_model.out_dim,
        cores_active=cores_active,
        cores_passive=cores_passive,
        bandwidth_bytes_per_sec=bandwidth_bytes_per_sec,
        mem_base_active=float(2 * (active_model.parameter_bytes + top_model.parameter_bytes)),
        mem_base_passive=float(2 * passive_model.parameter_bytes),
        mem_slope_active=float(_bytes_per_row(active_model) + _bytes_per_row(top_model)),
        mem_slope_passive=float(_bytes_per_row(passive_model)),
        mem_budget_active=mem_budget_active,
        mem_budget_passive=mem_budget_passive,
    )


# -- profile file I/O ----------------------------------------------------------


def write_profile(path: str, constants: DelayConstants) -> None:
    """One ``<stage> = <coef> <exp>`` line per stage, then one ``name = value``
    line per other constant; repr keeps floats lossless."""
    with open(path, "w") as handle:
        for role in CalibRole:
            coef, exp = constants.stages[role]
            handle.write(f"{role.value} = {coef!r} {exp!r}\n")
        for f in _SCALAR_FIELDS:
            handle.write(f"{f.name} = {getattr(constants, f.name)!r}\n")


def _stage_pair(text: str) -> tuple[float, float]:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError("expected '<coef> <exp>'")
    return float(parts[0]), float(parts[1])


def read_profile(path: str) -> DelayConstants:
    """Inverse of ``write_profile``; unreadable or malformed files raise ``ConfigError``."""
    parsers = {role.value: _stage_pair for role in CalibRole}
    parsers.update((f.name, int if f.type == "int" else float) for f in _SCALAR_FIELDS)
    values: dict[str, object] = {}
    for name, text in read_key_value_file(path, "profile").items():
        if name not in parsers:
            raise ConfigError(f"{path}: unknown constant {name!r} (re-run 'splitbus profile')")
        try:
            values[name] = parsers[name](text)
        except ValueError as exc:
            raise ConfigError(f"{path}: cannot parse {name} = {text!r}: {exc}") from None
    missing = [name for name in parsers if name not in values]
    if missing:
        raise ConfigError(f"{path}: missing constants: {', '.join(missing)}")
    stages = {role: values.pop(role.value) for role in CalibRole}
    try:
        return DelayConstants(stages, **values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
