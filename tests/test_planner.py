"""Configuration search vs its enumeration oracle, plus objective arithmetic."""

import math

import numpy as np
import pytest


from splitbus.planner import (
    InfeasiblePlanError,
    PlanState,
    SearchSpace,
    dp_search,
    iteration_objective,
    party_polynomials,
    read_plan,
    write_plan,
)
from splitbus.profiler import memory_bound

from oracles import (
    brute_force_search,
    mp_iteration_objective,
    random_delay_constants,
    realistic_constants,
)


def swap_roles(c):
    return realistic_constants(
        forward_coef_active=c.forward_coef_passive,
        forward_exp_active=c.forward_exp_passive,
        forward_coef_passive=c.forward_coef_active,
        forward_exp_passive=c.forward_exp_active,
        backward_coef_active=c.backward_coef_passive,
        backward_exp_active=c.backward_exp_passive,
        backward_coef_passive=c.backward_coef_active,
        backward_exp_passive=c.backward_exp_active,
        top_forward_coef=c.top_forward_coef,
        top_forward_exp=c.top_forward_exp,
        top_backward_coef=c.top_backward_coef,
        top_backward_exp=c.top_backward_exp,
        cores_active=c.cores_passive,
        cores_passive=c.cores_active,
    )


class TestObjective:
    def test_matches_high_precision_reference(self):
        c = realistic_constants()
        got = iteration_objective(c, 8, 10, 256)
        want = mp_iteration_objective(c, 8, 10, 256)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_comm_equals_pure_compute_max(self):
        c = realistic_constants(bandwidth_bytes_per_sec=math.inf)
        poly_active, poly_passive = party_polynomials(c, 64)
        assert iteration_objective(c, 3, 5, 64) == max(
            poly_active * 3 / c.cores_active, poly_passive * 5 / c.cores_passive
        )

    def test_symmetric_parties_swap_invariant(self):
        # make the top model's contribution vanishingly small so the two
        # parties' compute branches are mirror images
        c = realistic_constants(
            top_forward_coef=1e-300, top_backward_coef=1e-300,
            cores_active=16, cores_passive=16,
        )
        assert iteration_objective(c, 4, 9, 128) == pytest.approx(
            iteration_objective(swap_roles(c), 9, 4, 128), rel=1e-9
        )

    def test_infeasible_batch_rejected(self):
        c = realistic_constants(mem_budget_active=1e8 + 1e6 * 100)  # bound = 100
        with pytest.raises(InfeasiblePlanError):
            iteration_objective(c, 1, 1, 512)



class TestStateCost:
    """The cost of one grid state with zero message bytes is pure compute."""

    def test_matches_high_precision_reference(self):
        c = realistic_constants(bandwidth_bytes_per_sec=math.inf)
        got = iteration_objective(c, 8, 8, 32)
        assert got == pytest.approx(mp_iteration_objective(c, 8, 8, 32), rel=1e-12)

    def test_identical_branches_collapse(self):
        c = realistic_constants(
            top_forward_coef=1e-300, top_backward_coef=1e-300,
            forward_coef_active=0.010, forward_exp_active=-1.0071,
            backward_coef_active=0.038, backward_exp_active=-1.0546,
            cores_active=8, cores_passive=8,
            bandwidth_bytes_per_sec=math.inf,
        )
        poly_active, poly_passive = party_polynomials(c, 64)
        assert poly_active == pytest.approx(poly_passive, rel=1e-12)
        assert iteration_objective(c, 4, 4, 64) == pytest.approx(
            poly_passive * 4 / 8, rel=1e-12
        )


class TestSearch:
    def test_single_point_grid(self):
        c = realistic_constants()
        space = SearchSpace(8, 8, 10, 10, [256])
        plan = dp_search(c, space)
        assert (plan.workers_active, plan.workers_passive, plan.batch_size) == (8, 10, 256)
        assert plan.cost_seconds == iteration_objective(c, 8, 10, 256)

    def test_agrees_with_enumeration_on_random_instances(self):
        # candidates come with duplicates and in any order, so every branch
        # of the tie-break gets exercised
        rng = np.random.default_rng(42)
        candidates_pool = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        for trial in range(40):
            k = int(rng.integers(1, 6))
            batches = rng.choice(candidates_pool, size=k, replace=True).tolist()
            c = random_delay_constants(rng, batches)
            space = SearchSpace(
                int(rng.integers(1, 5)), int(rng.integers(5, 11)),
                int(rng.integers(1, 5)), int(rng.integers(5, 11)),
                batches,
            )
            fast = dp_search(c, space)
            assert fast == brute_force_search(c, space), trial  # cost bitwise too
            assert fast.batch_size <= memory_bound(c)

    def test_reference_constants_agree_too(self):
        c = realistic_constants()
        space = SearchSpace(1, 10, 1, 10, [2, 8, 32, 128, 512])
        fast, slow = dp_search(c, space), brute_force_search(c, space)
        assert fast == slow

    def test_monotone_objective_picks_fewest_workers(self):
        # every term positive and growing with w; B fixed
        c = realistic_constants()
        space = SearchSpace(2, 9, 3, 7, [64])
        plan = dp_search(c, space)
        assert plan.workers_active == 2
        assert plan.workers_passive == 3

    def test_tie_breaks_prefer_small_batch_then_small_workers(self):
        # flat exponents make every batch size equally fast; the active
        # branch dwarfs the passive one so w_p never affects the max
        c = realistic_constants(
            forward_exp_active=0.0, forward_exp_passive=0.0,
            backward_exp_active=0.0, backward_exp_passive=0.0,
            top_forward_exp=0.0, top_backward_exp=0.0,
            forward_coef_passive=1e-12, backward_coef_passive=1e-12,
            bandwidth_bytes_per_sec=math.inf,
        )
        space = SearchSpace(3, 3, 2, 6, [512, 128, 256, 128])
        plan = dp_search(c, space)
        assert plan.batch_size == 128  # smallest candidate wins the tie
        assert plan.workers_passive == 2  # then fewest passive workers
        assert plan == brute_force_search(c, space)

    def test_subgrid_never_beats_full_grid(self):
        rng = np.random.default_rng(3)
        c = random_delay_constants(rng, [64, 256])  # both grids' batches fit
        full = dp_search(c, SearchSpace(1, 6, 1, 6, [16, 64, 256]))
        sub = dp_search(c, SearchSpace(2, 5, 2, 5, [64, 256]))
        assert sub.cost_seconds >= full.cost_seconds

    def test_all_batches_infeasible(self):
        c = realistic_constants(mem_budget_active=1e8 + 1e6 * 4)  # bound = 4
        space = SearchSpace(1, 2, 1, 2, [64, 128])
        with pytest.raises(InfeasiblePlanError):
            dp_search(c, space)
        with pytest.raises(InfeasiblePlanError):
            brute_force_search(c, space)


class TestPlanIO:
    def test_roundtrip(self, tmp_path):
        plan = PlanState(4, 5, 256, 0.123456789012345)
        path = tmp_path / "plan.txt"
        write_plan(str(path), plan)
        loaded = read_plan(str(path))
        assert loaded["workers_active"] == 4
        assert loaded["workers_passive"] == 5
        assert loaded["batch_size"] == 256
        assert loaded["cost_seconds"] == plan.cost_seconds

    def test_read_rejects_unknown_and_missing(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("workers_active = 1\nnonsense = 2\n")
        with pytest.raises(ValueError, match="unknown plan field"):
            read_plan(str(bad))
        short = tmp_path / "short.txt"
        short.write_text("workers_active = 1\nworkers_passive = 2\n")
        with pytest.raises(ValueError, match="missing plan field"):
            read_plan(str(short))

    def test_space_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(2, 1, 1, 1, [32])
        with pytest.raises(ValueError):
            SearchSpace(1, 1, 1, 1, [])
