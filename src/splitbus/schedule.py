"""Tapering parameter-server sync schedule.

Early in training the replicas drift fast, so syncs are frequent; later the
interval widens towards its configured ceiling.  The interval at (1-based)
epoch ``t`` is

    interval(t) = ceil((T0/2) * tanh(2*t/T0 - 2) + T0/2)

where ``T0`` is the configured ceiling.  The expression inside ceil lives in
(0, T0), so the interval is always an integer in [1, T0], and it is
nondecreasing in ``t`` because tanh is increasing.  An aggregation fires at
epoch ``t`` iff ``t % interval(t) == 0``.
"""

from __future__ import annotations

import math


def sync_interval(base_interval: int, epoch: int) -> int:
    """Interval length in epochs at 1-based epoch ``epoch``."""
    if base_interval < 1:
        raise ValueError("base_interval must be >= 1")
    if epoch < 1:
        raise ValueError("epoch index is 1-based")
    half = base_interval / 2.0
    return math.ceil(half * math.tanh(2.0 * epoch / base_interval - 2.0) + half)


def should_sync(base_interval: int, epoch: int) -> bool:
    """Whether the parameter servers average their replicas after ``epoch``."""
    return epoch % sync_interval(base_interval, epoch) == 0
