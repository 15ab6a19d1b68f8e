"""The benchmark's profile → plan set-up, run by the test suite.

``bench/job.py`` profiles the initial models of ``freerun_private`` and checks
the plan it gets from ``build_constants``, ``SearchSpace``, ``dp_search``,
``memory_bound`` and ``iteration_objective``.  Nothing else calls the planner
that way, so this test makes a change to that API fail here rather than first
in a benchmark run.
"""

import os

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


def test_freerun_private_profile_and_plan_is_valid(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import job

    workload = job.WORKLOADS["freerun_private"]
    train, _ = job.build_inputs(workload, seed=81)
    valid, detail, grid_points = job.profile_and_plan(
        train, job.train_config(workload, seed=81), tracer=None
    )
    assert valid, detail
    assert grid_points > 0
