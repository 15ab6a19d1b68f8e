"""Suite-wide leak guard and hang backstop.

A test must not leave a child process, a thread or an entry under
``/dev/shm`` behind, nor change the CPUs the calling thread may run on.

The process transport forks at most one child per run, starts a receiver
thread in each process, shares an anonymous mapping and unlinked
semaphores with the child, and pins the runtime's threads, never the
caller's; a run that fails to reap its child, join its thread, unlink what
it shares or keep the caller's affinity fails the test that started it.

A test still running after ``HANG_BUDGET_SECONDS`` is taken to hang: every
thread's stack is printed and the whole run exits, instead of waiting for
an outer timeout.  The budget is many times the slowest test (about 2 s)
and above the 120 s a demo test gives its subprocess, so a slow demo still
fails as itself.
"""

import faulthandler
import multiprocessing
import os
import threading
import time

import pytest

HANG_BUDGET_SECONDS = 180
_hang_report_fd = 2  # where the stacks go; pytest_configure points it at the terminal

# Taken at import, so a test that patches os.sched_getaffinity cannot fool the check.
_getaffinity = getattr(os, "sched_getaffinity", lambda pid: None)


def _shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _new_shm_entries(before: set[str]) -> set[str]:
    """Entries under ``/dev/shm`` that were not there before and stay.

    ``sem_open`` in any process that shares this ``/dev/shm`` makes a
    temporary entry for a moment (and ``multiprocessing`` unlinks its
    semaphores at once), so an entry is a leak only if it is still there a
    little later.
    """
    for _ in range(5):
        extra = _shm_entries() - before
        if not extra:
            break
        time.sleep(0.05)
    return extra


def pytest_configure(config):
    # During a test, output capture points fd 2 at a file that an exit from
    # the watchdog never shows, so the stacks go to a copy of fd 2 taken
    # here, before any test runs and while capture is suspended.
    global _hang_report_fd
    _hang_report_fd = os.dup(2)


def pytest_unconfigure(config):
    os.close(_hang_report_fd)


@pytest.fixture(autouse=True)
def hang_backstop():
    faulthandler.dump_traceback_later(HANG_BUDGET_SECONDS, exit=True, file=_hang_report_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def no_leaked_children_or_threads():
    baseline = threading.active_count()
    cpus = _getaffinity(0)
    shm = _shm_entries()
    yield
    assert multiprocessing.active_children() == []
    assert threading.active_count() == baseline
    assert _getaffinity(0) == cpus
    assert _new_shm_entries(shm) == set()
