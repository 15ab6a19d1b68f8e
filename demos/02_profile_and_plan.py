"""From stopwatch to worker plan.

Stage timings are measured on the actual models, each stage's batch-size
curve is fitted as a power law, and the fitted constants drive a search for
the cheapest (workers_active, workers_passive, batch_size) triple that fits
in memory.

Run:  python3 demos/02_profile_and_plan.py
"""

import warnings

import numpy as np

from splitbus.config import ModelShape
from splitbus.data import Task
from splitbus.planner import SearchSpace, dp_search, iteration_objective
from splitbus.profiler import (
    build_constants,
    fit_power_law,
    memory_bound,
    predict_times,
    run_calibration,
)
from splitbus.runtime import build_models

SEED = 7


def main():
    shape = ModelShape(
        active_hidden=[64, 32], passive_hidden=[64, 32],
        active_embed=16, passive_embed=16, top_hidden=[32],
    )
    passive, active, top = build_models(shape, 40, 40, Task.CLASSIFICATION, SEED)

    print("1. timing forward/backward stages over a batch-size sweep ...")
    sweep = [32, 64, 128, 256, 512]
    samples = run_calibration(passive, active, top, batch_sizes=sweep,
                              repetitions=5, seed=SEED)

    print("   fitted per-stage power laws (seconds ~= coef * batch^exp):")
    by_role = {}
    for sample in samples:
        by_role.setdefault(sample.role, []).append(sample)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny models fit loosely; that is fine here
        for role, rows in by_role.items():
            coef, exp, r2 = fit_power_law(
                [r.batch_size for r in rows], [r.elapsed_seconds for r in rows]
            )
            print(f"     {role.value:<16} coef={coef:.3e}  exp={exp:+.3f}  r2={r2:.3f}")
        constants = build_constants(
            samples, passive, active, top,
            mem_budget_active=64 * 2**20, mem_budget_passive=64 * 2**20,
        )

    print(f"\n2. memory ceiling: batches larger than {memory_bound(constants):,.0f} rows "
          "would not fit either party's budget")

    biggest = int(min(memory_bound(constants), 4096))
    candidates = [b for b in (32, 64, 128, 256, 512, 1024, 2048, 4096) if b <= biggest]
    space = SearchSpace(1, 8, 1, 8, candidates)
    plan = dp_search(constants, space)

    print("\n3. cheapest configuration over an 8x8 worker grid:")
    print(f"     workers_active={plan.workers_active}  "
          f"workers_passive={plan.workers_passive}  batch_size={plan.batch_size}")
    print(f"     predicted seconds per iteration: {plan.cost_seconds:.6f}")

    print("\n4. what the model predicts for a few configurations:")
    print(f"   {'wa':>4} {'wp':>4} {'batch':>6} {'iter s':>10}")
    shown = [(1, 1, candidates[0]), (4, 4, plan.batch_size),
             (plan.workers_active, plan.workers_passive, plan.batch_size),
             (8, 8, candidates[-1])]
    for wa, wp, batch in dict.fromkeys(shown):
        cost = iteration_objective(constants, wa, wp, batch)
        tag = "  <- chosen" if (wa, wp, batch) == (
            plan.workers_active, plan.workers_passive, plan.batch_size) else ""
        print(f"   {wa:>4} {wp:>4} {batch:>6} {cost:>10.6f}{tag}")

    times = predict_times(constants, plan.batch_size, plan.workers_active,
                          plan.workers_passive)
    slowest = max(
        ("active bottom", times.forward_active + times.backward_active + times.top_active),
        ("passive bottom", times.forward_passive + times.backward_passive),
        key=lambda pair: pair[1],
    )
    print(f"\n   at the chosen plan the bottleneck branch is the {slowest[0]} "
          f"({slowest[1]:.6f} s per iteration)")


if __name__ == "__main__":
    main()
