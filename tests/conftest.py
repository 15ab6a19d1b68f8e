"""Suite-wide leak guard: a test must not leave a child process or a thread behind.

The process transport forks at most one child per run and starts a
receiver thread in each process; a run that fails to reap its child or
join its thread fails the test that started it.
"""

import multiprocessing
import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_children_or_threads():
    baseline = threading.active_count()
    yield
    assert multiprocessing.active_children() == []
    assert threading.active_count() == baseline
