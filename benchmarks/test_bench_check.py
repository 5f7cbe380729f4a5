"""Tests of the benchmark's own output checker and of its metric list.

Run with ``python -m pytest benchmarks``.  The checker must reject every kind
of broken schedule on its own and reproduce the paper's lower-bound table.
"""

import json
import random
from pathlib import Path

import pytest

import check
import run
import spans
import workloads

# Suppliers 1..4, customers 1..2, two suppliers per table, one customer.
BASE = (2, 4, 2, 2, 1)
FEASIBLE = [
    [([1, 2], [1]), ([3, 4], [2])],
    [([1], [2]), ([3], [1])],
    [([2], [2]), ([4], [1])],
]


def kinds(inst, dinners):
    return set(check.violations(inst, dinners))


def test_feasible_schedule_passes():
    assert kinds(BASE, FEASIBLE) == set()
    assert kinds((1, 1, 2, 1, 2), [[([1], [1, 2])]]) == set()


@pytest.mark.parametrize("inst, dinners, expected", [
    ((1, 4, 2, 2, 1), FEASIBLE, {check.TABLE_COUNT_EXCEEDED}),
    ((2, 4, 2, 1, 1), FEASIBLE, {check.SUPPLIER_CAP_EXCEEDED}),
    ((1, 1, 2, 1, 1), [[([1], [1, 2])]], {check.CUSTOMER_CAP_EXCEEDED}),
    ((4, 4, 2, 2, 1), [FEASIBLE[0], FEASIBLE[1] + FEASIBLE[2]], {check.PERSON_AT_TWO_TABLES}),
    (BASE, FEASIBLE[:2], {check.PAIR_MISSING}),
    (BASE, FEASIBLE + [FEASIBLE[1]], {check.PAIR_REPEATED}),
    (BASE, [[([1, 2], [1]), ([3, 4], [2])], [([1, 2], [2]), ([3, 4], [1])]],
     {check.SUPPLIER_PAIR_REPEATED}),
    (BASE, FEASIBLE[:2] + [[([2], [2]), ([5], [1])]], {check.ID_OUT_OF_RANGE, check.PAIR_MISSING}),
])
def test_each_broken_schedule_is_rejected(inst, dinners, expected):
    assert kinds(inst, dinners) == expected


# The paper's lower-bound table: (t, s, c, sigma, gamma) -> lb1..lb5, with
# lb4 read as 0 where gamma >= c does not hold.
PAPER_ROWS = [
    ((5, 8, 8, 1, 2), (8, 4, 7, 3, 0)),
    ((6, 8, 8, 2, 1), (4, 8, 6, 4, 6)),
    ((1, 8, 8, 1, 1), (8, 8, 64, 23, 0)),
    ((1, 11, 8, 6, 4), (2, 2, 4, 7, 4)),
    ((1, 8, 11, 2, 1), (4, 11, 44, 32, 60)),
]


@pytest.mark.parametrize("inst, row", PAPER_ROWS)
def test_lower_bounds_reproduce_the_paper(inst, row):
    lbs = check.lower_bounds(inst)
    assert tuple(lbs[k] or 0 for k in ("lb1", "lb2", "lb3", "lb4", "lb5")) == row


def test_lb4_absent_when_one_table_holds_every_customer():
    assert check.lower_bounds((2, 5, 3, 2, 3))["lb4"] is None


def test_closed_forms():
    assert check.closed_form_optimum((3, 7, 2, 2, 3)) == 4  # c <= gamma: ceil(s/sigma)
    assert check.closed_form_optimum((2, 4, 6, 1, 2)) == 6  # sigma = 1: max(s, cg, ceil(s*cg/t))
    assert check.closed_form_optimum((2, 5, 6, 2, 3)) is None


def test_built_schedule_below_a_lower_bound_is_rejected():
    lbs = check.lower_bounds(BASE)
    check.check_built(BASE, FEASIBLE, 3, lbs)
    with pytest.raises(check.CheckFailed):
        check.check_built(BASE, FEASIBLE, 2, lbs)  # claimed count differs from the file
    with pytest.raises(check.CheckFailed):
        check.check_built(BASE, FEASIBLE[:2], 2, lbs)  # infeasible


def test_solver_result_checks():
    lbs = check.lower_bounds(BASE)
    check.check_solved(BASE, "Optimal", 3, 3, FEASIBLE, 4, lbs)
    check.check_solved(BASE, "BudgetExhausted", None, 2, None, 4, lbs)
    for args in [("Optimal", 3, 2, FEASIBLE, 4),  # optimum above its proven bound
                 ("FeasibleOnly", 3, 2, FEASIBLE, 2),  # value above ub_best
                 ("Optimal", 2, 2, FEASIBLE[:2], 4),  # infeasible witness
                 ("Infeasible_at_bound", None, 4, None, 4)]:
        with pytest.raises(check.CheckFailed):
            check.check_solved(BASE, *args, lbs)


@pytest.mark.parametrize("n, kind", enumerate(workloads.AUDIT_BREAKS))
def test_audit_files_break_as_intended(n, kind):
    rng = random.Random(7)
    inst, dinners = workloads._sigma1_schedule(rng, n)
    assert kinds(inst, dinners) == set()
    broken = workloads._broken(rng, kind, inst[0], dinners)
    assert kinds(inst, broken) == workloads.AUDIT_EXPECTED[kind]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    layers = {k: v[1:] for k, v in spans.layer_metrics([], 1).items()}
    layers[run.OVERHEAD[0]] = run.OVERHEAD[1:]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
