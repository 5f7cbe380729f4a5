"""Exact solver: certified optima, statuses, determinism, oracle agreement."""

import hashlib
import random
import time
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dinners import howell, solver
from dinners.bounds import lb_best, ub_best
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
from dinners.transforms import best_feasible


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
    a = solve_exact(inst, SolveLimits(max_dinners=3, node_budget=500_000))
    b = solve_exact(inst, SolveLimits(max_dinners=3, node_budget=500_000))
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
# returned them before its rewrite.  nodes is the count of the full climb
# from lb_best (`_climb` below), so each level's tree stays pinned; the
# solver's own count differs only where it descends after a cut level, and
# DESCENT_NODES holds it there.  Any change to the tree, its order or its
# node count shows here.  max_dinners None caps the search at ub_best, so
# these rows pin the search alone, without the construction it may start from.
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
    inst = Instance(*cell)
    cap = ub_best(inst) if max_dinners is None else max_dinners
    limits = SolveLimits(max_dinners=cap, node_budget=budget)
    res = solve_exact(inst, limits, prune=prune)
    _assert_pinned(res, status, value, DESCENT_NODES.get(cell, nodes), lb, digest)
    assert _climb(inst, limits, prune) == (status, value, lb, nodes)


# The solver's node counts on the PINNED_SOLVES rows where a level is cut:
# it searches down from the cap after the first cut level, not on up.
DESCENT_NODES = {(1, 4, 5, 2, 1): 5677, (1, 3, 5, 2, 2): 4002}


def _assert_pinned(res, status, value, nodes, lb, digest):
    assert (res.status, res.value, res.nodes, res.lower_bound) == (status, value, nodes, lb)
    if digest is None:
        assert res.witness is None
    else:
        assert hashlib.sha256(encode_schedule(res.witness).encode()).hexdigest()[:16] == digest
        assert validate_schedule(res.witness).feasible


# The default cap: the search runs only below the best construction's count
# and returns that construction when no level finds a smaller schedule.  It
# is Optimal with 0 nodes where the construction meets lb_best, and
# FeasibleOnly where a level below it was cut.  nodes is the full climb's
# count, as in PINNED_SOLVES; on (1, 4, 5, 2, 1) the solver descends after
# cutting 14 and searches 4,002 nodes.
@pytest.mark.parametrize("cell, budget, status, value, nodes, lb, digest", [
    ((2, 5, 6, 2, 3), 2_000_000, OPTIMAL, 3, 0, 3, "7b582a2ab8bf3868"),
    ((1, 4, 5, 2, 1), 2_000, FEASIBLE_ONLY, 18, 8004, 14, "b42d2763fdf34cd1"),
    ((1, 3, 5, 2, 2), 2_000, FEASIBLE_ONLY, 7, 2001, 6, "5604f9653aeb67c2"),
])
def test_default_cap_starts_from_the_construction(cell, budget, status, value, nodes, lb, digest):
    inst = Instance(*cell)
    limits = SolveLimits(node_budget=budget)
    res = solve_exact(inst, limits)
    _assert_pinned(res, status, value, {(1, 4, 5, 2, 1): 4002}.get(cell, nodes), lb, digest)
    assert _climb(inst, limits) == (status, value, lb, nodes)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # 1200 tables, one a dinner, stacked on one branch of the search.
    res = solve_exact(Instance(1, 30, 40, 1, 1), SolveLimits(max_dinners=1200))
    assert res.status == OPTIMAL and res.value == 1200
    assert validate_schedule(res.witness).feasible


@pytest.mark.parametrize("s, budget", [(1500, 0.3), (500, 0.5)])
def test_time_budget_is_kept(s, budget):
    # s = 1,500: a node costs about 0.3 ms, so reading the clock every 4,096
    # nodes would overrun by over a second.  s = 500: building the
    # 250,000-dinner construction takes over a second and does not read the
    # clock, so under a deadline the search starts without it.
    start = time.monotonic()
    res = solve_exact(Instance(1, s, s, 1, 1), SolveLimits(time_budget=budget))
    assert time.monotonic() - start < 1.0
    assert res.status == BUDGET_EXHAUSTED


@pytest.mark.parametrize("budget", [17, 18])
def test_construction_is_built_only_when_ub_best_tables_fit_the_budget(budget):
    # ub_best * t = 18 here: below that budget the default call is the
    # search up to ub_best; at it, the construction is the witness.
    inst = Instance(1, 4, 5, 2, 1)
    default = solve_exact(inst, SolveLimits(node_budget=budget))
    searched = solve_exact(inst, SolveLimits(max_dinners=18, node_budget=budget))
    assert searched.status == BUDGET_EXHAUSTED
    if budget < 18:
        assert default == searched
    else:
        assert (default.status, default.value, default.lower_bound) == (FEASIBLE_ONLY, 18, 14)


@settings(deadline=None, max_examples=60)
@given(cell=st.one_of(st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
                                st.integers(1, 3), st.integers(1, 3)),
                      st.sampled_from([(5, 10, 8, 2, 1), (6, 12, 7, 2, 1)])),
       earlier=st.lists(st.sampled_from([100, 2_000, 10_001, 1_000_000]), max_size=3))
@example(cell=(5, 10, 8, 2, 1), earlier=[1_000_000])  # H(8,10) is found at 1M, cut at 10k
@example(cell=(6, 12, 7, 2, 1), earlier=[1_000_000])  # H(7,12) likewise
def test_answers_do_not_depend_on_earlier_calls(cell, earlier):
    # The criterion-9 box and two cells whose Howell design a 10k-node
    # budget does not reach: best_feasible at 10k nodes and solve_exact at
    # 2,000 give the same answers from an empty Howell cache as after
    # calls at other budgets.
    inst = Instance(*cell)

    def answers():
        sched, _ = best_feasible(inst, 10_000)
        return encode_schedule(sched), solve_exact(inst, SolveLimits(node_budget=2_000))

    with patch.dict(howell._CACHE, clear=True):
        cold = answers()
        for budget in earlier:
            best_feasible(inst, budget)
            if budget <= 10_001:  # 1M nodes a level would take minutes
                solve_exact(inst, SolveLimits(node_budget=budget))
        assert answers() == cold


@settings(deadline=None)
@given(cell=st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
                      st.integers(1, 3), st.integers(1, 3)))
def test_default_cap_never_does_worse_than_searching_to_ub_best(cell):
    # The criterion-9 box at a 2,000-node level budget.
    inst = Instance(*cell)
    default = solve_exact(inst, SolveLimits(node_budget=2_000))
    searched = solve_exact(inst, SolveLimits(max_dinners=ub_best(inst), node_budget=2_000))
    _, count = best_feasible(inst, node_budget=2_000)
    assert default.value <= count
    assert searched.value is None or default.value <= searched.value
    assert default.lower_bound >= searched.lower_bound
    for res in (default, searched):
        assert res.witness is None or validate_schedule(res.witness).feasible
        assert res.status != OPTIMAL or res.value == res.lower_bound


def _climb(inst, limits, prune=True):
    """The solver's level order before the descent: every level from lb_best
    to the cap, the bound raised only while no level has been cut.  Returns
    status, value, lower bound and nodes."""
    cap = ub_best(inst) if limits.max_dinners is None else limits.max_dinners
    incumbent = None
    if prune and limits.max_dinners is None and cap * inst.t <= limits.node_budget:
        sched, count = best_feasible(inst, node_budget=limits.node_budget)
        if count <= cap:
            incumbent, cap = sched, count - 1
    keys = solver._Keys(inst)
    nodes, cut, lower = 0, False, lb_best(inst) if prune else 1
    for d_max in range(lower, cap + 1):
        level = solver._Level(inst, keys, d_max, prune, limits.node_budget, None)
        try:
            witness = level.run()
        except SearchBudgetExceeded:
            witness, cut = None, True
        nodes += level.nodes
        if witness is not None:
            return FEASIBLE_ONLY if cut else OPTIMAL, witness.dinner_count(), lower, nodes
        if not cut:
            lower = d_max + 1
    if incumbent is not None:
        return FEASIBLE_ONLY if cut else OPTIMAL, cap + 1, lower, nodes
    return BUDGET_EXHAUSTED if cut else INFEASIBLE_AT_BOUND, None, lower, nodes


@pytest.mark.parametrize("explicit_cap", [False, True])
def test_descent_after_a_cut_level_answers_as_the_full_climb(explicit_cap):
    # On the criterion-9 box at 2,000 nodes a level, with the default cap and
    # with max_dinners = ub_best.  Nodes rise on a few explicit-cap cells, so
    # only their sum is compared.
    new_nodes = old_nodes = 0
    for cell in product(range(1, 4), range(1, 6), range(1, 6), range(1, 4), range(1, 4)):
        inst = Instance(*cell)
        limits = SolveLimits(max_dinners=ub_best(inst) if explicit_cap else None,
                             node_budget=2_000)
        res = solve_exact(inst, limits)
        status, value, lower, nodes = _climb(inst, limits)
        assert (res.status, res.value, res.lower_bound) == (status, value, lower), cell
        new_nodes += res.nodes
        old_nodes += nodes
    assert new_nodes < old_nodes


def test_a_refuted_level_above_a_cut_one_proves_the_bound(monkeypatch):
    # Scripted levels: lb_best = 14 is cut, the 18-dinner schedule is found
    # at the cap, and 17 is refuted, so 18 is optimal.  The climb would have
    # searched 15..18 and proven nothing past 14.
    inst = Instance(1, 4, 5, 2, 1)
    sched, count = best_feasible(inst)
    assert (lb_best(inst), count) == (14, 18)
    searched = []

    class Scripted:
        def __init__(self, inst, keys, d_max, prune, node_cap, deadline):
            self.d_max, self.nodes = d_max, 1
            searched.append(d_max)

        def run(self):
            if self.d_max == 14:
                raise SearchBudgetExceeded
            return sched if self.d_max == 18 else None

    monkeypatch.setattr(solver, "_Level", Scripted)
    res = solve_exact(inst, SolveLimits(max_dinners=18))
    assert (res.status, res.value, res.lower_bound, res.nodes) == (OPTIMAL, 18, 18, 3)
    assert res.witness is sched and searched == [14, 18, 17]


def test_mid_scale_level_enumerates_lazily():
    # A table of every customer subset of size <= 4 would hold ~4M entries.
    inst = Instance(10, 50, 100, 3, 4)
    start = time.monotonic()
    res = solve_exact(inst, SolveLimits(node_budget=2000, max_dinners=lb_best(inst)))
    assert time.monotonic() - start < 2.0
    assert res.status == BUDGET_EXHAUSTED and res.nodes == 2001
