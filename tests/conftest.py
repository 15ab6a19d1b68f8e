"""Suite-wide leak guard: a test must not leave a child process or a thread
behind, nor change the CPUs the calling thread may run on.

The process transport forks at most one child per run, starts a receiver
thread in each process, and pins the runtime's threads, never the caller's;
a run that fails to reap its child, join its thread or keep the caller's
affinity fails the test that started it.
"""

import multiprocessing
import os
import threading

import pytest

# Taken at import, so a test that patches os.sched_getaffinity cannot fool the check.
_getaffinity = getattr(os, "sched_getaffinity", lambda pid: None)


@pytest.fixture(autouse=True)
def no_leaked_children_or_threads():
    baseline = threading.active_count()
    cpus = _getaffinity(0)
    yield
    assert multiprocessing.active_children() == []
    assert threading.active_count() == baseline
    assert _getaffinity(0) == cpus
