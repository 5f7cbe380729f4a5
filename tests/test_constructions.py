"""Schedule builders: feasibility and exact dinner counts per closed form."""

from itertools import combinations, permutations, product

import pytest

from dinners import constructions
from dinners.bounds import (
    ceil_div,
    lb5_term,
    optimum_floor,
    sigma2_base_dinners,
    sigma2_base_tables,
)
from dinners.constructions import (
    ConstructionError,
    build_cas_par,
    build_howell_schedule,
    build_prime,
    build_sigma1,
    build_trivial,
    cas_par_dinner_count,
    exceptional_schedule,
)
from dinners.howell import DEFAULT_NODE_BUDGET, SearchBudgetExceeded
from dinners.model import Instance, validate_schedule
from dinners.transforms import ROUTES, TOTAL_ROUTES


def feasible(sched) -> bool:
    return validate_schedule(sched).feasible


def test_trivial_examples():
    sched = build_trivial(Instance(1, 3, 2, 2, 3))
    assert sched.dinner_count() == 2 and feasible(sched)
    tables = [sorted(t.suppliers) for d in sched.dinners for t in d.tables]
    assert tables == [[1, 2], [3]]
    assert build_trivial(Instance(1, 4, 1, 4, 1)).dinner_count() == 1
    with pytest.raises(ConstructionError):
        build_trivial(Instance(1, 3, 4, 2, 3))


def test_trivial_matches_lb1_sweep():
    for s in range(1, 51, 3):
        for sigma in (1, 2, 3, 5):
            inst = Instance(2, s, 2, sigma, 4)
            sched = build_trivial(inst)
            assert sched.dinner_count() == ceil_div(s, sigma)
            assert feasible(sched)


def test_sigma1_examples():
    sched = build_sigma1(Instance(1, 2, 2, 1, 1))
    assert sched.dinner_count() == 4 and feasible(sched)
    # max(s, cg, ceil(s*cg/t)) = max(8, 8, ceil(64/6)) = 11
    sched = build_sigma1(Instance(6, 8, 8, 1, 1))
    assert sched.dinner_count() == 11 and feasible(sched)
    sched = build_sigma1(Instance(5, 8, 8, 1, 2))
    assert sched.dinner_count() == 8 and feasible(sched)
    with pytest.raises(ConstructionError):
        build_sigma1(Instance(1, 2, 2, 2, 1))


def test_exceptional_templates_are_consistent():
    expected_shapes = {"S4C3": (4, 3, 3), "S6C5": (6, 5, 5), "S8C5": (8, 5, 5), "S4C2": (4, 2, 3)}
    for key, (s, g, dinners) in expected_shapes.items():
        tpl = exceptional_schedule(key)
        assert (tpl.suppliers, tpl.groups, len(tpl.rows)) == (s, g, dinners)
        pairs = set()
        for row in tpl.rows:
            seen_in_row: set[int] = set()
            for cell in row:
                assert not (cell & seen_in_row)
                seen_in_row |= cell
                cell_sorted = sorted(cell)
                for a in range(len(cell_sorted)):
                    for b in range(a + 1, len(cell_sorted)):
                        pair = (cell_sorted[a], cell_sorted[b])
                        assert pair not in pairs
                        pairs.add(pair)
        for j in range(tpl.groups):
            col = [x for row in tpl.rows for x in row[j]]
            assert sorted(col) == list(range(1, tpl.suppliers + 1))
    with pytest.raises(ConstructionError):
        exceptional_schedule("S9C9")


def test_exceptional_template_contents():
    assert [sorted(c) for c in exceptional_schedule("S4C3").rows[0]] == [[1, 2], [3, 4], []]
    assert [sorted(c) for c in exceptional_schedule("S8C5").rows[0]] == [
        [4], [6], [1, 5], [7, 8], [2, 3]]
    assert [[sorted(c) for c in row] for row in exceptional_schedule("S4C2").rows] == [
        [[1, 2], [3, 4]], [[3], [1]], [[4], [2]]]


def test_howell_schedule_examples():
    sched = build_howell_schedule(Instance(2, 5, 6, 2, 3))
    assert sched.dinner_count() == 3 and feasible(sched)
    sched = build_howell_schedule(Instance(5, 8, 5, 2, 1))
    assert sched.dinner_count() == 5 and feasible(sched)
    sched = build_howell_schedule(Instance(2, 4, 2, 2, 1))
    assert sched.dinner_count() == 3 and feasible(sched)


def test_howell_schedule_rejections():
    with pytest.raises(ConstructionError):
        build_howell_schedule(Instance(2, 4, 3, 2, 1))  # (cg=3, s=4) needs 3 tables
    with pytest.raises(ConstructionError):
        build_howell_schedule(Instance(1, 2, 3, 2, 2))  # (2, 2) needs 2 tables
    with pytest.raises(ConstructionError):
        build_howell_schedule(Instance(2, 5, 6, 3, 3))  # sigma != 2
    with pytest.raises(ConstructionError):
        build_howell_schedule(Instance(2, 3, 9, 2, 1))  # s <= c/gamma


def test_howell_schedule_sweep():
    # Shapes whose underlying array search runs for minutes; the generator
    # handles them given budget, but they are beyond the test-time scale.
    too_big = {(10, 11), (11, 11), (10, 12), (11, 12), (12, 12)}
    checked = 0
    for t in range(1, 7):
        for s in range(1, 13):
            for c in range(1, 13):
                for gamma in (1, 2, 3):
                    inst = Instance(t, s, c, 2, gamma)
                    cg = inst.customer_groups
                    if s * gamma <= c or cg > s or (cg, s) in too_big:
                        continue
                    if t < sigma2_base_tables(cg, s):
                        continue
                    sched = build_howell_schedule(inst)
                    assert feasible(sched), inst
                    assert sched.dinner_count() == sigma2_base_dinners(cg, s), inst
                    widest = max(len(dinner.tables) for dinner in sched.dinners)
                    assert widest == sigma2_base_tables(cg, s), inst
                    checked += 1
    assert checked > 150


def test_cas_par_even_four_suppliers():
    for c in (6, 7, 8, 11):
        inst = Instance(2, 4, c, 2, 1)
        sched = build_cas_par(inst)
        assert feasible(sched), c
        assert sched.dinner_count() == 2 * c - 3
        assert sched.dinner_count() == lb5_term(inst, 2)


def test_cas_par_odd_three_suppliers():
    for c, expected in [(5, 6), (6, 8), (9, 12)]:
        inst = Instance(2, 3, c, 2, 1)
        sched = build_cas_par(inst)
        assert feasible(sched), c
        assert sched.dinner_count() == expected
        assert sched.dinner_count() == cas_par_dinner_count(inst)


def test_cas_par_sweep():
    # Every stored grid (s = 3..6) from its smallest cg up, and a Howell-row
    # stretch for s = 7..14, with full and ragged last customer groups.
    cells = [(s, cg) for s in range(3, 7) for cg in range(ceil_div(3 * s, 2), 81)]
    cells += [(s, cg) for s in range(7, 15) for cg in range(ceil_div(3 * s, 2), 3 * s + 6, 3)]
    checked = 0
    for s, cg in cells:
        for gamma in (1, 2, 3):
            for c in {gamma * cg, gamma * (cg - 1) + 1}:
                inst = Instance(ceil_div(s, 2), s, c, 2, gamma)
                sched = build_cas_par(inst, 10_000)
                assert feasible(sched), inst
                assert sched.dinner_count() == cas_par_dinner_count(inst), inst
                checked += 1
    assert checked == 5 * len(cells)  # one c for gamma = 1, two otherwise


@pytest.mark.parametrize("s", sorted(constructions._HALF_TABLE_GRIDS))
def test_cas_par_holds_for_any_supplier_labelling(monkeypatch, s):
    # The suppliers are the coloring's left side; relabelling them keeps it
    # proper and equitable, and every grid must seat any labelling's singles.
    closed_form = constructions.equitable_bipartite_coloring
    lo = ceil_div(3 * s, 2)
    for perm in permutations(range(1, s + 1)):
        monkeypatch.setattr(
            constructions,
            "equitable_bipartite_coloring",
            lambda a, b, k, perm=perm: [[(perm[i - 1], j) for i, j in cls] for cls in closed_form(a, b, k)],
        )
        for c in (lo, lo + 1, lo + 4):
            inst = Instance(ceil_div(s, 2), s, c, 2, 1)
            sched = build_cas_par(inst)
            assert feasible(sched), (perm, c)
            assert sched.dinner_count() == cas_par_dinner_count(inst)


@pytest.mark.parametrize("s", range(2, 11))
def test_half_table_rows_seat_every_pair_once_and_close_in_runs(s):
    rows = constructions._half_table_rows(s, 10_000)
    pairs = []
    for row in rows:
        assert sum(1 for cell in row if cell) <= ceil_div(s, 2)
        assert all(len(cell) <= 2 and cell <= set(range(1, s + 1)) for cell in row)
        pairs += [cell for cell in row if len(cell) == 2]
    assert sorted(map(sorted, pairs)) == sorted(map(sorted, combinations(range(1, s + 1), 2)))
    run = set()
    for column in zip(*rows):
        seated = [x for cell in column for x in cell]
        assert len(seated) == len(set(seated))
        owed = set(range(1, s + 1)) - set(seated)
        assert run.isdisjoint(owed)
        run |= owed
        if run == set(range(1, s + 1)):
            run = set()
    assert run == set()


def test_cas_par_two_suppliers_and_grouped_customers():
    for c in (3, 4, 5):
        inst = Instance(1, 2, c, 2, 1)
        sched = build_cas_par(inst)
        assert feasible(sched)
        assert sched.dinner_count() == 2 * c - 1
    inst = Instance(2, 4, 12, 2, 2)  # cg = 6 via gamma = 2
    sched = build_cas_par(inst)
    assert feasible(sched) and sched.dinner_count() == 9


def test_cas_par_larger_supplier_pools():
    inst = Instance(4, 8, 12, 2, 1)
    sched = build_cas_par(inst)
    assert feasible(sched) and sched.dinner_count() == 2 * 12 - 8 + 1
    inst = Instance(4, 7, 11, 2, 1)
    sched = build_cas_par(inst)
    assert feasible(sched)
    assert sched.dinner_count() == 7 + ceil_div(7 * (11 - 7), 4)


def test_cas_par_rejections():
    with pytest.raises(ConstructionError):
        build_cas_par(Instance(3, 4, 6, 2, 1))  # t != ceil(s/2)
    with pytest.raises(ConstructionError):
        build_cas_par(Instance(2, 4, 5, 2, 1))  # cg < 3s/2
    with pytest.raises(ConstructionError):
        build_cas_par(Instance(1, 1, 3, 2, 1))  # s < 2


def test_prime_examples():
    sched = build_prime(Instance(1, 4, 2, 2, 1))
    assert sched.dinner_count() == 4 and feasible(sched)
    rows = [sorted(d.tables[0].suppliers) for d in sched.dinners]
    assert rows == [[1, 2], [3, 4], [1, 4], [2, 3]]
    sched = build_prime(Instance(1, 9, 3, 3, 1))
    assert sched.dinner_count() == 9 and feasible(sched)
    sched = build_prime(Instance(1, 25, 5, 5, 1))
    assert sched.dinner_count() == 25 and feasible(sched)


def test_prime_block_structure():
    # Within each customer's block of p dinners, all suppliers appear once.
    p, c = 5, 4
    sched = build_prime(Instance(1, p * p, c, p, 1))
    for k in range(c):
        block = sched.dinners[k * p : (k + 1) * p]
        assert all(next(iter(d.tables[0].customers)) == k + 1 for d in block)
        seen = sorted(x for d in block for x in d.tables[0].suppliers)
        assert seen == list(range(1, p * p + 1))


def test_prime_rejections():
    with pytest.raises(ConstructionError):
        build_prime(Instance(2, 4, 2, 2, 1))  # t != 1
    with pytest.raises(ConstructionError):
        build_prime(Instance(1, 8, 2, 2, 1))  # s not a prime square
    with pytest.raises(ConstructionError):
        build_prime(Instance(1, 4, 2, 1, 5))  # sigma < p and gamma != 1


def special_route_counts(params) -> set[int]:
    """Dinner counts of the special-case routes that build this instance, each
    checked to validate and to land exactly on optimum_floor."""
    inst = Instance(*params)
    counts = set()
    for name, build in ROUTES.items():
        if name in TOTAL_ROUTES:
            continue
        try:
            sched = build(inst, DEFAULT_NODE_BUDGET)
        except (ConstructionError, SearchBudgetExceeded):
            continue
        assert feasible(sched), (name, inst)
        assert sched.dinner_count() == optimum_floor(inst), (name, inst)
        counts.add(sched.dinner_count())
    return counts


def test_dispatch_examples():
    assert special_route_counts((1, 4, 2, 4, 3)) == {1}
    assert special_route_counts((2, 5, 6, 2, 3)) == {3}
    # c <= gamma always builds on one table, even with sigma >= 3
    assert special_route_counts((7, 9, 4, 3, 5)) == {3}
    # sigma >= 3 with many customers: no special case applies
    assert special_route_counts((7, 9, 14, 3, 2)) == set()


def test_dispatch_output_always_validates():
    # On this grid every special case that builds is optimal by the bound.  (Off it,
    # prime also accepts c <= gamma, where (1, 4, 1, 4, 1) builds 2 against a floor of 1.)
    grid = product(range(1, 5), range(1, 9), range(1, 9), range(1, 4), range(1, 4))
    hits = sum(1 for params in grid if special_route_counts(params))
    assert hits > 500
