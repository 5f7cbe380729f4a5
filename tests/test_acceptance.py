"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criterion 9 is the long one (an exact-solver sweep over every
instance with t <= 3, s <= 5, c <= 5, sigma <= 3, gamma <= 3).
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

from dinners.bounds import (
    compute_bounds,
    lb4,
    lb5_term,
    lb_best,
    lp_value_scan,
    optimum_floor,
    lb3,
    lb5,
    ub_best,
)
from dinners.cli import LB_REFERENCE, UB_REFERENCE
from dinners.coloring import equitable_bipartite_coloring
from dinners.constructions import (
    build_cas_par,
    build_howell_schedule,
    build_prime,
    build_sigma1,
    exceptional_schedule,
    load_example_schedule,
)
from dinners.howell import generate_howell, howell_exists, search_howell, validate_howell
from dinners.model import (
    Dinner,
    Instance,
    Schedule,
    TableSeating,
    decode_schedule,
    encode_schedule,
    group_customers,
    validate_schedule,
)
from dinners.solver import INFEASIBLE_AT_BOUND, OPTIMAL, SolveLimits, solve_exact
from dinners.transforms import (
    best_feasible,
    concat_suppliers,
    group_gamma,
    split_sigma,
    split_tables,
)

# The paper's reference rows live once, in the CLI's `reference-tables`.
LB_TABLE = {params: (expected, star) for params, expected, star in LB_REFERENCE}


def test_criterion_01_lower_bound_table():
    t0 = time.time()
    assert len(LB_TABLE) == 5
    for params, (expected, star) in LB_TABLE.items():
        inst = Instance(*params)
        rep = compute_bounds(inst)
        got = (rep.lb1, rep.lb2, rep.lb3, rep.lb4 if rep.lb4 is not None else 0, rep.lb5)
        assert got == expected, (params, got)
        assert all(got[star] > got[i] for i in range(5) if i != star), params
    print(f"\nACCEPTANCE 1 PASS: 25 lower-bound cells exact, starred bound dominates "
          f"in each row ({time.time()-t0:.2f}s)")


def test_criterion_02_upper_bound_comparisons():
    t0 = time.time()
    assert [params for params, _, _ in UB_REFERENCE] == [(3, 6, 3, 2, 1), (3, 6, 9, 2, 1)]
    for params, ub1, ub2 in UB_REFERENCE:
        rep = compute_bounds(Instance(*params))
        assert (rep.ub1, rep.ub2) == (ub1, ub2), params
    print(f"\nACCEPTANCE 2 PASS: upper-bound comparison instances exact "
          f"({time.time()-t0:.2f}s)")


def test_criterion_03_example_instance_end_to_end():
    t0 = time.time()
    inst = Instance(2, 5, 6, 2, 3)
    fixture = load_example_schedule()
    assert fixture.instance == inst
    assert validate_schedule(fixture).feasible
    assert fixture.dinner_count() == 6
    assert lb_best(inst) == 3 == optimum_floor(inst)
    built, count = best_feasible(inst)
    assert count == 3
    assert validate_schedule(built).feasible
    res = solve_exact(inst, SolveLimits(node_budget=2_000_000))
    assert res.status == OPTIMAL and res.value == 3
    print(f"\nACCEPTANCE 3 PASS: 6-dinner fixture feasible, lb_best=3, 3-dinner build, "
          f"solver optimum 3 ({time.time()-t0:.2f}s)")


def test_criterion_04_two_group_four_supplier_exception():
    t0 = time.time()
    inst = Instance(2, 4, 2, 2, 1)
    refute = solve_exact(inst, SolveLimits(max_dinners=2, node_budget=1_000_000))
    assert refute.status == INFEASIBLE_AT_BOUND
    res = solve_exact(inst, SolveLimits(node_budget=1_000_000))
    assert res.status == OPTIMAL and res.value == 3
    built = build_howell_schedule(inst)
    template = exceptional_schedule("S4C2")
    grouping = group_customers(inst.c, inst.gamma)
    expected = Schedule.of(
        inst,
        [
            Dinner.of(
                TableSeating(cell, grouping[j])
                for j, cell in enumerate(row)
                if cell
            )
            for row in template.rows
        ],
    )
    assert built == expected
    assert validate_schedule(built).feasible
    print(f"\nACCEPTANCE 4 PASS: no 2-dinner schedule exists; 3-dinner embedded "
          f"template certified optimal ({time.time()-t0:.2f}s)")


def test_criterion_05_howell_layer():
    t0 = time.time()
    generated = 0
    for n2 in (2, 4, 6, 8, 10):
        n = n2 // 2
        for m in range(n, 2 * n):
            design = generate_howell(m, n2, node_budget=400_000_000)
            if howell_exists(m, n2):
                assert design is not None, (m, n2)
                assert validate_howell(design) == [], (m, n2)
                generated += 1
            else:
                assert design is None, (m, n2)
    assert generated == 11
    # Exhaustive nonexistence proofs (search without the existence theorem).
    assert search_howell(2, 4) is None
    assert search_howell(3, 4) is None
    print(f"\nACCEPTANCE 5 PASS: {generated} designs generated and axiom-checked; "
          f"(2,4) and (3,4) proven nonexistent exhaustively ({time.time()-t0:.2f}s)")


def test_criterion_06_prime_construction():
    t0 = time.time()
    for p in (2, 3, 5):
        for c in range(1, p + 1):
            inst = Instance(1, p * p, c, p, 1)
            sched = build_prime(inst)
            assert validate_schedule(sched).feasible, (p, c)
            assert sched.dinner_count() == p * c, (p, c)
    inst = Instance(1, 9, 3, 3, 1)
    assert lb4(inst) == 9 == build_prime(inst).dinner_count()
    print(f"\nACCEPTANCE 6 PASS: prime construction feasible with p*c dinners for "
          f"p in {{2,3,5}}; (p=3,c=3) meets lb4=9 ({time.time()-t0:.2f}s)")


def test_criterion_07_single_supplier_sweep():
    t0 = time.time()
    checked = 0
    for t, s, c, gamma in product(range(1, 5), range(1, 9), range(1, 9), range(1, 4)):
        inst = Instance(t, s, c, 1, gamma)
        cg = inst.customer_groups
        expected = max(s, cg, -(-s * cg // t))
        sched = build_sigma1(inst)
        assert validate_schedule(sched).feasible, inst
        assert sched.dinner_count() == expected, inst
        assert expected == lb_best(inst), inst
        checked += 1
    print(f"\nACCEPTANCE 7 PASS: {checked} single-supplier instances built at exactly "
          f"max(s, cg, ceil(s*cg/t)) = lb_best ({time.time()-t0:.2f}s)")


def test_criterion_08_half_table_even_case():
    t0 = time.time()
    for c in (6, 7, 8):
        inst = Instance(2, 4, c, 2, 1)
        sched = build_cas_par(inst)
        assert validate_schedule(sched).feasible, c
        assert sched.dinner_count() == 2 * c - 3, c
        assert sched.dinner_count() == lb5_term(inst, 2), c
    print(f"\nACCEPTANCE 8 PASS: s=4 half-table schedules hit 2c-3 dinners, equal to "
          f"the pairing bound at j=2 ({time.time()-t0:.2f}s)")


def test_criterion_09_oracle_sweep():
    t0 = time.time()
    unresolved = []
    total = 0
    at_floor = 0
    for t, s, c, sg, gm in product(
        range(1, 4), range(1, 6), range(1, 6), range(1, 4), range(1, 4)
    ):
        inst = Instance(t, s, c, sg, gm)
        total += 1
        witness, count = best_feasible(inst)
        assert validate_schedule(witness).feasible, inst
        floor = optimum_floor(inst)
        at_floor += count == floor
        res = solve_exact(inst, SolveLimits(node_budget=400_000))
        if res.status != OPTIMAL:
            unresolved.append(((t, s, c, sg, gm), res.status, res.lower_bound, res.value))
            continue
        assert lb_best(inst) <= floor <= res.value <= count, (inst, floor, res.value, count)
        # The floor is sound, so a count on it is the solver's optimum.
        assert count != floor or res.value == count, (inst, floor, res.value)
        assert res.value <= ub_best(inst), (inst, res.value)
    resolved = total - len(unresolved)
    for cell in unresolved:
        print(f"\n  budget-exhausted cell: {cell}")
    assert resolved / total >= 0.95, f"only {resolved}/{total} resolved"
    print(f"\nACCEPTANCE 9 PASS: {resolved}/{total} cells solved exactly "
          f"({100 * resolved / total:.1f}%); {at_floor} built at optimum_floor, so proven "
          f"by the bound; bounds and floor consistent ({time.time()-t0:.0f}s)")


def test_criterion_10_lp_duality_cross_check():
    t0 = time.time()
    for sigma in range(1, 11):
        js = list(range(2, sigma + 1))
        for s in range(1, 61):
            for cg in range(1, 61):
                scan = lp_value_scan(s, sigma, cg)
                closed = Fraction(cg, sigma)
                for j in js:
                    term = Fraction(2 * cg, j) - Fraction(s - 1, j * (j - 1))
                    if term > closed:
                        closed = term
                assert scan == closed, (s, sigma, cg)
    # Scaled by s/t and ceiled, the scan recombines into max(lb3, lb5).
    for t, s, c, sigma, gamma in [
        (1, 8, 11, 2, 1), (6, 8, 8, 2, 1), (3, 20, 17, 4, 2), (2, 41, 9, 7, 3),
    ]:
        inst = Instance(t, s, c, sigma, gamma)
        value = math.ceil(Fraction(s, t) * lp_value_scan(s, sigma, inst.customer_groups))
        assert value == max(lb3(inst), lb5(inst)), inst
    print(f"\nACCEPTANCE 10 PASS: breakpoint scan of the dual equals the closed form "
          f"for all s<=60, sigma<=10, cg<=60 ({time.time()-t0:.1f}s)")


def _random_feasible(rng: random.Random, cache: dict) -> Schedule:
    key = (
        rng.randint(1, 3),
        rng.randint(1, 7),
        rng.randint(1, 7),
        rng.randint(1, 3),
        rng.randint(1, 3),
    )
    if key not in cache:
        cache[key] = best_feasible(Instance(*key))[0]
    base = cache[key]
    inst = base.instance
    sup_map = dict(zip(range(1, inst.s + 1), rng.sample(range(1, inst.s + 1), inst.s)))
    cust_map = dict(zip(range(1, inst.c + 1), rng.sample(range(1, inst.c + 1), inst.c)))
    dinners = [
        Dinner.of(
            TableSeating(
                frozenset(sup_map[x] for x in tab.suppliers),
                frozenset(cust_map[x] for x in tab.customers),
            )
            for tab in rng.sample(list(d.tables), len(d.tables))
        )
        for d in rng.sample(list(base.dinners), len(base.dinners))
    ]
    return Schedule.of(inst, dinners)


def test_criterion_11_property_suites():
    t0 = time.time()
    rng = random.Random(20240911)
    cache: dict = {}
    for i in range(1000):
        sched = _random_feasible(rng, cache)
        inst = sched.instance
        assert validate_schedule(sched).feasible
        out = split_tables(sched, rng.randint(1, inst.t))
        assert validate_schedule(out).feasible
        out = split_sigma(sched, rng.randint(1, inst.sigma))
        assert validate_schedule(out).feasible
        assert validate_schedule(concat_suppliers(sched, sched)).feasible
        assert decode_schedule(encode_schedule(sched)) == sched
        if i % 4 == 0:
            gamma1 = rng.randint(1, inst.gamma)
            gg = group_gamma(inst, gamma1)
            derived, _ = best_feasible(gg.derived)
            assert validate_schedule(gg.expand(derived)).feasible
    colorings = 0
    for a in range(1, 9):
        for b in range(1, 9):
            for k in range(max(a, b), 21):
                classes = equitable_bipartite_coloring(a, b, k)
                assert sorted(e for cls in classes for e in cls) == [
                    (i, j) for i in range(1, a + 1) for j in range(1, b + 1)
                ]
                sizes = [len(cls) for cls in classes]
                assert max(sizes) - min(sizes) <= 1
                for cls in classes:
                    assert len({i for i, _ in cls}) == len(cls)
                    assert len({j for _, j in cls}) == len(cls)
                colorings += 1
    print(f"\nACCEPTANCE 11 PASS: 1000 randomized schedules survive every transform "
          f"and round-trip; {colorings} colorings proper and equitable "
          f"({time.time()-t0:.1f}s)")
