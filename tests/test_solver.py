"""Exact solver: certified optima, statuses, determinism, oracle agreement."""

import hashlib
import random
import time
from itertools import product

import pytest

from dinners.bounds import lb_best
from dinners.constructions import build_prime, build_trivial, load_example_schedule
from dinners.howell import SearchBudgetExceeded
from dinners.model import Instance, encode_schedule, validate_schedule
from dinners.solver import (
    BUDGET_EXHAUSTED,
    FEASIBLE_ONLY,
    INFEASIBLE_AT_BOUND,
    OPTIMAL,
    SolveLimits,
    certify_optimal,
    solve_exact,
)


def test_singleton_instance():
    res = solve_exact(Instance(1, 1, 1, 1, 1))
    assert res.status == OPTIMAL and res.value == 1


def test_two_customers_one_supplier():
    res = solve_exact(Instance(1, 1, 2, 1, 1))
    assert res.status == OPTIMAL and res.value == 2


def test_no_two_dinner_solution_for_two_groups_four_suppliers():
    inst = Instance(2, 4, 2, 2, 1)
    res = solve_exact(inst, SolveLimits(max_dinners=2, node_budget=1_000_000))
    assert res.status == INFEASIBLE_AT_BOUND
    res = solve_exact(inst, SolveLimits(node_budget=1_000_000))
    assert res.status == OPTIMAL and res.value == 3
    assert validate_schedule(res.witness).feasible


def test_example_instance_optimum_is_three():
    res = solve_exact(Instance(2, 5, 6, 2, 3), SolveLimits(node_budget=2_000_000))
    assert res.status == OPTIMAL and res.value == 3
    assert validate_schedule(res.witness).feasible


def test_determinism_including_node_counts():
    inst = Instance(2, 4, 4, 2, 2)
    a = solve_exact(inst, SolveLimits(node_budget=500_000))
    b = solve_exact(inst, SolveLimits(node_budget=500_000))
    assert (a.status, a.value, a.nodes, a.witness) == (b.status, b.value, b.nodes, b.witness)


def test_budget_exhaustion_status():
    res = solve_exact(Instance(2, 5, 5, 2, 2), SolveLimits(node_budget=50, max_dinners=4))
    assert res.status == BUDGET_EXHAUSTED
    assert res.value is None and res.witness is None


def test_feasible_only_when_a_level_was_cut():
    # A tiny per-level budget cannot refute the lower-bound level, but a
    # later level is easy to satisfy, so the answer is feasible-not-proven.
    inst = Instance(1, 4, 4, 2, 1)
    full = solve_exact(inst, SolveLimits(node_budget=2_000_000))
    assert full.status == OPTIMAL
    res = solve_exact(inst, SolveLimits(node_budget=3_000))
    assert res.status in (FEASIBLE_ONLY, BUDGET_EXHAUSTED)
    if res.status == FEASIBLE_ONLY:
        assert res.value >= full.value
        assert validate_schedule(res.witness).feasible


def test_oracle_mode_matches_pruned_search():
    rng = random.Random(11)
    cells = [
        cell
        for cell in product((1, 2), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3), (1, 2, 3))
    ]
    for cell in rng.sample(cells, 30):
        inst = Instance(*cell)
        fast = solve_exact(inst, SolveLimits(node_budget=2_000_000))
        slow = solve_exact(inst, SolveLimits(node_budget=20_000_000), prune=False)
        assert fast.status == OPTIMAL and slow.status == OPTIMAL, cell
        assert fast.value == slow.value, cell


@pytest.mark.parametrize("field, bad", [
    ("time_budget", float("nan")), ("time_budget", -1.0), ("time_budget", 0), ("time_budget", "5"),
    ("time_budget", True), ("max_dinners", 1.5), ("max_dinners", -1), ("max_dinners", "3"),
    ("max_dinners", True),
])
def test_solve_limits_reject_bad_time_and_dinner_budgets(field, bad):
    with pytest.raises(ValueError, match=field):
        SolveLimits(**{field: bad})


def test_solve_limits_accept_an_endless_deadline_and_a_zero_dinner_cap():
    res = solve_exact(Instance(1, 1, 1, 1, 1), SolveLimits(time_budget=float("inf")))
    assert res.status == OPTIMAL and res.value == 1
    res = solve_exact(Instance(1, 1, 1, 1, 1), SolveLimits(max_dinners=0))
    assert res.status == INFEASIBLE_AT_BOUND


def test_certify_optimal():
    assert certify_optimal(build_trivial(Instance(1, 3, 2, 2, 3)))
    assert certify_optimal(build_prime(Instance(1, 4, 2, 2, 1)))
    assert not certify_optimal(load_example_schedule(), SolveLimits(node_budget=2_000_000))


def test_certify_requires_feasible_input():
    ex = load_example_schedule()
    broken = Instance(2, 5, 6, 2, 3)
    from dinners.model import Schedule

    with pytest.raises(ValueError):
        certify_optimal(Schedule.of(broken, []))


def test_certify_budget_exhaustion_is_distinct():
    from dinners.transforms import best_feasible

    sched, _ = best_feasible(Instance(2, 5, 5, 2, 2))
    with pytest.raises(SearchBudgetExceeded):
        certify_optimal(sched, SolveLimits(node_budget=200))


def test_witness_values_match_closed_forms():
    # Optima proven in the covered special cases, certified by search.
    for cell, expected in [
        ((1, 3, 2, 3, 2), 1),
        ((2, 2, 4, 1, 2), 2),
        ((3, 4, 3, 2, 1), 3),
        ((1, 4, 2, 2, 1), 4),
        ((2, 3, 5, 2, 1), 6),
    ]:
        res = solve_exact(Instance(*cell), SolveLimits(node_budget=2_000_000))
        assert res.status == OPTIMAL and res.value == expected, cell


# (cell, node budget per level, max_dinners, prune): status, value, nodes,
# lower bound and a digest of the witness's JSON, as the recursive search
# returned them before its rewrite.  Any change to the tree, its order or its
# node count shows here.
PINNED_SOLVES = [
    ((2, 5, 6, 2, 3), 2_000_000, None, True, OPTIMAL, 3, 1118, 3, "281cdcba61a2fae5"),
    ((2, 4, 4, 2, 2), 20_000, None, True, OPTIMAL, 3, 7904, 3, "06839a6557564bbf"),
    ((3, 5, 4, 2, 2), 20_000, None, True, OPTIMAL, 3, 17118, 3, "24daa10987fca3e0"),
    ((1, 3, 5, 2, 1), 20_000, None, True, OPTIMAL, 12, 5683, 12, "0111288a89359bf6"),
    ((1, 4, 5, 2, 1), 2_000, None, True, FEASIBLE_ONLY, 18, 9679, 14, "970a801d714766f7"),
    ((1, 3, 5, 2, 2), 2_000, None, True, BUDGET_EXHAUSTED, None, 8004, 6, None),
    ((2, 4, 2, 2, 1), 1_000_000, 2, True, INFEASIBLE_AT_BOUND, None, 9, 3, None),
    ((1, 5, 4, 2, 3), 20_000, 5, True, INFEASIBLE_AT_BOUND, None, 5059, 6, None),
    ((2, 3, 3, 2, 1), 2_000_000, None, False, OPTIMAL, 4, 2903, 4, "12e7b2ca7f5609bb"),
    ((1, 3, 4, 1, 2), 2_000_000, None, False, OPTIMAL, 6, 27627, 6, "d2df5702158abb60"),
]


@pytest.mark.parametrize("cell, budget, max_dinners, prune, status, value, nodes, lb, digest",
                         PINNED_SOLVES)
def test_search_tree_is_pinned(cell, budget, max_dinners, prune, status, value, nodes, lb, digest):
    res = solve_exact(Instance(*cell), SolveLimits(max_dinners=max_dinners, node_budget=budget),
                      prune=prune)
    assert (res.status, res.value, res.nodes, res.lower_bound) == (status, value, nodes, lb)
    if digest is None:
        assert res.witness is None
    else:
        assert hashlib.sha256(encode_schedule(res.witness).encode()).hexdigest()[:16] == digest
        assert validate_schedule(res.witness).feasible


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # 1200 tables, one a dinner, stacked on one branch of the search.
    res = solve_exact(Instance(1, 30, 40, 1, 1))
    assert res.status == OPTIMAL and res.value == 1200
    assert validate_schedule(res.witness).feasible


def test_mid_scale_level_enumerates_lazily():
    # A table of every customer subset of size <= 4 would hold ~4M entries.
    inst = Instance(10, 50, 100, 3, 4)
    start = time.monotonic()
    res = solve_exact(inst, SolveLimits(node_budget=2000, max_dinners=lb_best(inst)))
    assert time.monotonic() - start < 2.0
    assert res.status == BUDGET_EXHAUSTED and res.nodes == 2001
