"""Configuration search: pick (workers_active, workers_passive, batch_size).

The per-iteration wall time is modelled as the slower party's compute time
plus the wire time of the two cut-layer messages, whose size follows from
the batch size and the cut width (see ``profiler.message_seconds``); the
search minimises it over a discrete grid, restricted to batch sizes both
parties can hold in memory.  The memory model is affine in the batch size
by construction (see ``profiler.model_memory_bytes``), so the ceiling is
closed-form.  The grid has no overlapping subproblems, so the search is one
numpy evaluation of the whole grid and an argmin; the tests check it against
plain enumeration of ``iteration_objective``, bit for bit, including
tie-breaks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, read_key_value_file
from .profiler import DelayConstants, memory_bound, message_seconds

class InfeasiblePlanError(ValueError):
    """No candidate batch size fits in memory (or the space is empty)."""


@dataclass
class SearchSpace:
    """Inclusive worker ranges and the candidate batch sizes, in given order."""

    workers_active_min: int
    workers_active_max: int
    workers_passive_min: int
    workers_passive_max: int
    batch_candidates: list[int]

    def __post_init__(self) -> None:
        if not (1 <= self.workers_active_min <= self.workers_active_max):
            raise ValueError("bad active worker range")
        if not (1 <= self.workers_passive_min <= self.workers_passive_max):
            raise ValueError("bad passive worker range")
        if not self.batch_candidates or any(b < 1 for b in self.batch_candidates):
            raise ValueError("batch candidates must be a nonempty list of >= 1")

    @property
    def workers_active(self) -> range:
        return range(self.workers_active_min, self.workers_active_max + 1)

    @property
    def workers_passive(self) -> range:
        return range(self.workers_passive_min, self.workers_passive_max + 1)


@dataclass
class PlanState:
    """The chosen configuration and its predicted seconds per iteration."""

    workers_active: int
    workers_passive: int
    batch_size: int
    cost_seconds: float


def party_polynomials(c: DelayConstants, batch_size: int) -> tuple[float, float]:
    """Per-call compute seconds at one core per worker, per party.

    The active party runs its bottom model and the top model; the passive
    party only its bottom model.  Shared by ``iteration_objective`` and
    ``dp_search`` so both perform identical float operations.
    """
    b = float(batch_size)
    active = (
        c.forward_coef_active * b**c.forward_exp_active
        + c.top_forward_coef * b**c.top_forward_exp
        + c.backward_coef_active * b**c.backward_exp_active
        + c.top_backward_coef * b**c.top_backward_exp
    )
    passive = (
        c.forward_coef_passive * b**c.forward_exp_passive
        + c.backward_coef_passive * b**c.backward_exp_passive
    )
    return active, passive


def comm_seconds(c: DelayConstants, batch_size: int) -> float:
    """Embedding + gradient transfer time for one iteration."""
    return 2 * message_seconds(c, batch_size)


def iteration_objective(
    c: DelayConstants, workers_active: int, workers_passive: int, batch_size: int
) -> float:
    """Predicted wall seconds per iteration for one configuration."""
    if batch_size < 1 or workers_active < 1 or workers_passive < 1:
        raise ValueError("batch size and worker counts must be >= 1")
    if batch_size > memory_bound(c):
        raise InfeasiblePlanError(f"batch size {batch_size} exceeds the memory bound")
    poly_active, poly_passive = party_polynomials(c, batch_size)
    compute = max(
        poly_active * workers_active / c.cores_active,
        poly_passive * workers_passive / c.cores_passive,
    )
    return compute + comm_seconds(c, batch_size)


def dp_search(c: DelayConstants, space: SearchSpace) -> PlanState:
    """Full-grid argmin of ``iteration_objective`` over the feasible grid.

    Ties break toward the smaller batch size, then fewer active workers,
    then fewer passive workers — cheaper memory and coordination for free.
    Each batch's polynomials are Python scalars, as in ``iteration_objective``,
    so every grid cost is bit-equal to it.
    """
    ceiling = memory_bound(c)
    batches = sorted(b for b in space.batch_candidates if b <= ceiling)
    if not batches:
        raise InfeasiblePlanError(
            f"no candidate batch size fits the memory bound {ceiling:.1f}"
        )
    w_active = np.array(space.workers_active, dtype=float)
    w_passive = np.array(space.workers_passive, dtype=float)
    cost = np.empty((len(batches), w_active.size, w_passive.size))
    for k, b in enumerate(batches):
        poly_active, poly_passive = party_polynomials(c, b)
        cost[k] = np.maximum(
            poly_active * w_active[:, None] / c.cores_active,
            poly_passive * w_passive[None, :] / c.cores_passive,
        ) + comm_seconds(c, b)
    # the first minimum in C order is the (cost, B, w_a, w_p) tie-break
    k, i, j = np.unravel_index(np.argmin(cost), cost.shape)
    return PlanState(
        workers_active=space.workers_active_min + int(i),
        workers_passive=space.workers_passive_min + int(j),
        batch_size=batches[k],
        cost_seconds=float(cost[k, i, j]),
    )


# -- plan file I/O --------------------------------------------------------------


def write_plan(path: str, plan: PlanState) -> None:
    with open(path, "w") as handle:
        handle.write(f"workers_active = {plan.workers_active}\n")
        handle.write(f"workers_passive = {plan.workers_passive}\n")
        handle.write(f"batch_size = {plan.batch_size}\n")
        handle.write(f"cost_seconds = {plan.cost_seconds!r}\n")


_PLAN_FIELDS = {
    "workers_active": int, "workers_passive": int, "batch_size": int, "cost_seconds": float,
}


def read_plan(path: str) -> dict:
    """Inverse of ``write_plan``; unreadable or malformed files raise ``ConfigError``."""
    values: dict[str, float | int] = {}
    for name, text in read_key_value_file(path, "plan").items():
        if name not in _PLAN_FIELDS:
            raise ConfigError(f"{path}: unknown plan field {name!r}")
        try:
            values[name] = _PLAN_FIELDS[name](text)
        except ValueError:
            raise ConfigError(f"{path}: cannot parse {name} = {text!r}") from None
    for required in ("workers_active", "workers_passive", "batch_size"):
        if required not in values:
            raise ConfigError(f"{path}: missing plan field {required!r}")
    return values
