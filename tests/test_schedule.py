"""Sync-interval tests against a 50-digit mpmath oracle and exhaustive bounds."""

import mpmath

from splitbus.schedule import should_sync, sync_interval


def _oracle_interval(base: int, epoch: int) -> int:
    with mpmath.workdps(50):
        half = mpmath.mpf(base) / 2
        value = half * mpmath.tanh(mpmath.mpf(2 * epoch) / base - 2) + half
        return int(mpmath.ceil(value))


def test_known_values():
    assert sync_interval(5, 1) == 1
    assert sync_interval(5, 5) == 3
    assert sync_interval(5, 1000) == 5
    assert sync_interval(1, 1) == 1


def test_matches_high_precision_oracle_everywhere():
    for base in (1, 2, 3, 5, 8, 13, 50):
        for epoch in list(range(1, 60)) + [120, 499, 500]:
            assert sync_interval(base, epoch) == _oracle_interval(base, epoch), (
                base,
                epoch,
            )


def test_bounds_and_monotonicity_exhaustive():
    for base in range(1, 51):
        previous = 0
        for epoch in range(1, 501):
            interval = sync_interval(base, epoch)
            assert 1 <= interval <= base
            assert interval >= previous
            previous = interval
        assert previous == base  # the interval reaches its ceiling


def test_should_sync_uses_modulo_rule():
    fired = [t for t in range(1, 21) if should_sync(5, t)]
    # intervals: 1,1,1,2,3,3,4,4,4,5,5,... => fires at multiples of current interval
    assert fired == [t for t in range(1, 21) if t % sync_interval(5, t) == 0]
    assert should_sync(5, 1)  # early epochs sync every time
    assert not should_sync(5, 5)  # 5 % 3 != 0
    assert should_sync(5, 10)  # 10 % 5 == 0


def test_rejects_bad_arguments():
    import pytest

    with pytest.raises(ValueError):
        sync_interval(0, 1)
    with pytest.raises(ValueError):
        sync_interval(5, 0)
