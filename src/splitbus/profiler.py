"""Delay-model calibration: timing sweeps and power-law fits.

The profile times the two calls a party's worker makes per batch, through
the runtime's own functions: the passive step
(:func:`splitbus.runtime.passive_forward`, the bottom forward and the
embedding noise, then :func:`splitbus.runtime.passive_update`) and the
active step (the active bottom's ``nn.forward``, then
:func:`splitbus.runtime.active_step`: the top forward, the loss, the top
backward and both local updates).  The row gathers and the message exchange
are not timed.  ``DelayConstants.stages`` maps each :class:`CalibRole` to a
``(coef, exp)`` pair fitted by log-log least squares over a batch-size
sweep: one step takes ``coef * B**exp`` seconds (:func:`step_seconds`).  A
profile file has one ``<step> = <coef> <exp>`` line per step, then one
``name = value`` line per ``mem_*`` constant.  What the models fix is read
off them, not measured or configured: memory per party is
``base + slope * B`` bytes, where ``base`` is twice its models' parameter
bytes (the parameters and their gradient workspace) and ``slope`` is what
the forward tape keeps per batch row (the input and each layer's output, at
the model's itemsize).  The largest batch both parties can afford is the
planner's feasibility ceiling.

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

from . import nn, runtime
from .config import ConfigError, read_key_value_file
from .data import Task
from .privacy import NoiseReport


class CalibRole(enum.Enum):
    """One timed step: what one party's worker computes per batch, in the
    order the sweep times them."""

    PASSIVE_STEP = "passive_step"
    ACTIVE_STEP = "active_step"


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
    """Time both parties' steps at every batch size; median of repetitions.

    The steps run on clones of the models at learning rate 0: the caller's
    models keep their parameters and versions, and the clones' weights, and
    so the loss, never move.  The passive step adds noise at sigma 1,
    so the noise draw is timed with it; a run with ``privacy_mu = inf``
    skips that draw, which the profile still counts.  The active step trains
    on zero labels with the classification loss.

    Single-threaded on purpose: contention would corrupt the timings.  For
    each batch size, each step gets its own inputs and one untimed warm-up
    call (absorbing allocator and cache effects), and then each repetition
    times the two steps one after the other, so that drift in the machine's
    speed hits both alike instead of whichever step's block it falls in.
    Samples come back step by step, each in sweep order.
    """
    if not batch_sizes:
        batch_sizes = list(DEFAULT_BATCH_SWEEP)
    if any(b < 1 for b in batch_sizes):
        raise ValueError("batch sizes must be >= 1")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rng = np.random.default_rng(seed)
    models = [m.clone() for m in (passive_model, active_model, top_model)]

    # medians[s][i]: step s at batch_sizes[i]
    medians: list[list[float]] = [[] for _ in CalibRole]
    for b in batch_sizes:
        calls = _step_calls(*models, b, rng)
        for call in calls:
            call()  # warm-up
        timings: list[list[float]] = [[] for _ in calls]
        for _ in range(repetitions):
            for call, times in zip(calls, timings):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
        for step_medians, times in zip(medians, timings):
            step_medians.append(statistics.median(times))
    return [
        CalibrationSample(role, b, elapsed, repetitions)
        for role, step_medians in zip(CalibRole, medians)
        for b, elapsed in zip(batch_sizes, step_medians)
    ]


def _step_calls(passive: nn.MlpModel, active: nn.MlpModel, top: nn.MlpModel, b: int,
                rng: np.random.Generator):
    """Both steps at batch size ``b`` as no-argument calls, in ``CalibRole``
    order, with inputs in the dtypes the runtime passes: features in each
    bottom's dtype, and the noised embedding and its gradient in float64."""
    x_passive = rng.normal(size=(b, passive.in_dim)).astype(passive.dtype, copy=False)
    x_active = rng.normal(size=(b, active.in_dim)).astype(active.dtype, copy=False)
    z_passive = rng.normal(size=(b, passive.out_dim))
    d_z = np.ones((b, passive.out_dim))
    labels = np.zeros((b, 1))
    report = NoiseReport()

    def passive_step() -> None:
        _, tape = runtime.passive_forward(passive, x_passive, 1.0, rng, report)
        runtime.passive_update(passive, tape, d_z, 0.0)

    def active_step() -> None:
        runtime.active_step(active, top, nn.forward(active, x_active), z_passive, labels,
                            Task.CLASSIFICATION, 0.0, lambda d_z_passive: None)

    return passive_step, active_step


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


_MAY_BE_UNBOUNDED = frozenset({"mem_budget_active", "mem_budget_passive"})


@dataclass
class DelayConstants:
    """Everything the planner needs about one deployment."""

    # role -> (coef, exp): one step takes coef * B**exp seconds
    stages: dict[CalibRole, tuple[float, float]]
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
        # Only a memory budget may be +inf: an unbounded party.
        for f in _SCALAR_FIELDS:
            value = getattr(self, f.name)
            if math.isnan(value) or (math.isinf(value) and f.name not in _MAY_BE_UNBOUNDED):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.mem_slope_active <= 0.0 or self.mem_slope_passive <= 0.0:
            raise ValueError("memory slopes must be positive")
        if self.mem_budget_active <= self.mem_base_active:
            raise ValueError("active memory budget must exceed its base usage")
        if self.mem_budget_passive <= self.mem_base_passive:
            raise ValueError("passive memory budget must exceed its base usage")


_SCALAR_FIELDS = [f for f in dataclasses.fields(DelayConstants) if f.name != "stages"]


def step_seconds(c: DelayConstants, role: CalibRole, batch_size: int) -> float:
    """Seconds of one party's step at batch size ``batch_size``: ``coef * B**exp``."""
    coef, exp = c.stages[role]
    return coef * float(batch_size) ** exp


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
    mem_budget_active: float = math.inf,
    mem_budget_passive: float = math.inf,
) -> DelayConstants:
    """Fit the full constant set from calibration samples.

    Each step's power law is fitted to its medians.  The memory constants
    (twice the parameter bytes, plus the tape's bytes per row) are read off
    the models, not fitted.
    """
    stages = {}
    for role in CalibRole:
        mine = [s for s in samples if s.role is role]
        coef, exponent, _ = fit_power_law(
            [s.batch_size for s in mine], [s.elapsed_seconds for s in mine]
        )
        stages[role] = (coef, exponent)
    return DelayConstants(
        stages=stages,
        mem_base_active=float(2 * (active_model.parameter_bytes + top_model.parameter_bytes)),
        mem_base_passive=float(2 * passive_model.parameter_bytes),
        mem_slope_active=float(_bytes_per_row(active_model) + _bytes_per_row(top_model)),
        mem_slope_passive=float(_bytes_per_row(passive_model)),
        mem_budget_active=mem_budget_active,
        mem_budget_passive=mem_budget_passive,
    )


# -- profile file I/O ----------------------------------------------------------


def write_profile(path: str, constants: DelayConstants) -> None:
    """One ``<step> = <coef> <exp>`` line per step, then one ``name = value``
    line per memory constant; repr keeps floats lossless."""
    with open(path, "w") as handle:
        for role in CalibRole:
            coef, exp = constants.stages[role]
            handle.write(f"{role.value} = {coef!r} {exp!r}\n")
        for f in _SCALAR_FIELDS:
            handle.write(f"{f.name} = {getattr(constants, f.name)!r}\n")


def _step_pair(text: str) -> tuple[float, float]:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError("expected '<coef> <exp>'")
    return float(parts[0]), float(parts[1])


def read_profile(path: str) -> DelayConstants:
    """Inverse of ``write_profile``; unreadable or malformed files raise ``ConfigError``."""
    parsers = {role.value: _step_pair for role in CalibRole}
    parsers.update((f.name, float) for f in _SCALAR_FIELDS)
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
