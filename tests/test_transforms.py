"""Schedule rewrites preserve feasibility; pipelines stay within their bounds."""

import hashlib
import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dinners
import dinners.transforms as transforms
from dinners.bounds import compute_bounds, lb_best, optimum_floor, ub1, ub2, ub_eucli
from dinners.constructions import ConstructionError, build_sigma1, load_example_schedule
from dinners.howell import SearchBudgetExceeded
from dinners.model import (
    Dinner,
    Instance,
    Schedule,
    TableSeating,
    encode_schedule,
    validate_schedule,
)
from dinners.transforms import (
    ROUTE_COUNTS,
    ROUTES,
    TOTAL_ROUTES,
    best_feasible,
    build_eucli,
    build_ub1,
    build_ub2,
    concat_suppliers,
    group_gamma,
    route_counts,
    split_sigma,
    split_tables,
)


def feasible(sched) -> bool:
    return validate_schedule(sched).feasible


def test_split_tables_noop_when_enough_tables():
    ex = load_example_schedule()
    out = split_tables(ex, 2)
    assert out.dinners == ex.dinners
    out = split_tables(ex, 5)
    assert out.dinners == ex.dinners and out.instance.t == 5
    assert feasible(out)


def test_split_tables_partition():
    inst = Instance(4, 4, 4, 1, 1)
    dinner = Dinner.of(TableSeating.of([i], [i]) for i in range(1, 5))
    sched = Schedule.of(inst, [dinner])
    out = split_tables(sched, 2)
    assert out.instance.t == 2
    assert out.dinner_count() == 2
    assert all(len(d.tables) == 2 for d in out.dinners)
    assert [t for d in out.dinners for t in d.tables] == list(dinner.tables)


def test_split_tables_example_schedule_to_single_table():
    out = split_tables(load_example_schedule(), 1)
    assert out.dinner_count() == 12
    assert feasible(out)


def test_split_sigma_noop_and_chunks():
    ex = load_example_schedule()
    assert split_sigma(ex, 2).dinners == ex.dinners
    inst = Instance(1, 4, 1, 4, 1)
    sched = Schedule.of(inst, [Dinner.of([TableSeating.of([1, 2, 3, 4], [1])])])
    out = split_sigma(sched, 2)
    assert out.dinner_count() == 2
    assert [sorted(d.tables[0].suppliers) for d in out.dinners] == [[1, 2], [3, 4]]
    assert feasible(out)


def test_split_sigma_preserves_feasibility_on_example():
    out = split_sigma(load_example_schedule(), 1)
    assert out.instance.sigma == 1
    assert feasible(out)


def test_group_gamma_full_grouping():
    inst = Instance(2, 5, 6, 2, 3)
    gg = group_gamma(inst, 3)
    assert gg.derived == Instance(2, 5, 2, 2, 1)
    assert [sorted(g) for g in gg.grouping] == [[1, 2, 3], [4, 5, 6]]


def test_group_gamma_expansion_feasible():
    inst = Instance(2, 5, 6, 2, 3)
    gg = group_gamma(inst, 3)
    from dinners.constructions import build_howell_schedule

    derived_sched = build_howell_schedule(gg.derived)
    out = gg.expand(derived_sched)
    assert out.instance == inst
    assert feasible(out)


def test_group_gamma_partial_grouping_keeps_cap():
    # gamma1=2 under gamma=3 must allow only one super-customer per table.
    inst = Instance(2, 4, 8, 2, 3)
    gg = group_gamma(inst, 2)
    assert gg.derived.gamma == 1
    with pytest.raises(ValueError):
        group_gamma(inst, 4)


def test_concat_suppliers():
    inst = Instance(1, 1, 2, 1, 1)
    single = Schedule.of(
        inst,
        [
            Dinner.of([TableSeating.of([1], [1])]),
            Dinner.of([TableSeating.of([1], [2])]),
        ],
    )
    out = concat_suppliers(single, single)
    assert out.instance.s == 2
    assert out.dinner_count() == 4
    assert feasible(out)
    empty_second = Schedule.of(inst, [])
    grown = concat_suppliers(single, empty_second)
    assert grown.dinners == single.dinners and grown.instance.s == 2
    with pytest.raises(ValueError):
        concat_suppliers(single, Schedule.of(Instance(2, 1, 2, 1, 1), []))


def test_pipeline_reference_counts():
    assert build_ub1(Instance(3, 6, 3, 2, 1)).dinner_count() == 3
    assert build_ub1(Instance(2, 5, 6, 2, 3)).dinner_count() == 3
    assert build_ub1(Instance(3, 6, 9, 2, 1)).dinner_count() <= 18
    assert build_ub2(Instance(3, 6, 3, 2, 1)).dinner_count() <= 11
    assert build_ub2(Instance(3, 6, 9, 2, 1)).dinner_count() <= 17
    # Staged on 2 tables the ub2 construction uses 7 evenings; split to one
    # table it doubles, matching the bound of 14.
    sched = build_ub2(Instance(1, 4, 4, 2, 1))
    assert sched.dinner_count() == 14 == ub2(Instance(1, 4, 4, 2, 1))
    assert feasible(sched)
    assert build_eucli(Instance(1, 12, 2, 2, 1)).dinner_count() <= 42
    assert build_eucli(Instance(1, 14, 2, 2, 1)).dinner_count() <= 49


@pytest.mark.parametrize("s", [3, 4])
def test_ub1_at_one_table_on_the_three_dinner_shapes(s):
    # cg = 2, s in {3, 4}: the base gives each group its own pair matching,
    # 4 dinners of tables of 2 and s - 2 suppliers, each split down to sigma.
    for sigma, gamma in product(range(1, 4), range(1, 4)):
        for c in range(gamma + 1, 2 * gamma + 1):
            inst = Instance(1, s, c, sigma, gamma)
            sched = build_ub1(inst)
            assert feasible(sched), inst
            assert sched.dinner_count() == ub1(inst), inst


# SHA-256 over every instance with t <= 3, s, c <= 6, sigma, gamma <= 3 of
# each ROUTES entry's encode_schedule text (or the name of the exception it
# raised) and of best_feasible's, all at a 10k-node Howell budget.  Any change
# to a schedule a route builds shows here.
PINNED_ROUTES_DIGEST = "00ba18874792d141fbcfe66dcf2d896c57bd234342e46e31452ea3cfb2257cc5"


def test_route_outputs_are_pinned():
    digest = hashlib.sha256()
    for cell in product(range(1, 4), range(1, 7), range(1, 7), range(1, 4), range(1, 4)):
        inst = Instance(*cell)
        for name, build in ROUTES.items():
            try:
                out = encode_schedule(build(inst, 10_000))
            except (ConstructionError, SearchBudgetExceeded) as exc:
                out = type(exc).__name__
            digest.update(f"{cell}{name}{out}".encode())
        sched, _ = best_feasible(inst, 10_000)
        digest.update(f"{cell}best{encode_schedule(sched)}".encode())
    assert digest.hexdigest() == PINNED_ROUTES_DIGEST


@pytest.mark.parametrize("cell, budget, count", [
    ((10, 50, 100, 3, 4), None, 75),  # H(25,50), closed form, at the default budget
    ((3, 20, 30, 2, 2), 2_000_000, 60),  # H(15,20): the starter builds it in 54 nodes
])
def test_best_feasible_of_a_mid_scale_cell_returns_at_once(cell, budget, count):
    # In a fresh process, so that no design is cached, and under a wall-clock
    # timeout, since the failure this guards against is a hang.
    budget_arg = "" if budget is None else f", {budget}"
    code = ("from dinners.model import Instance, validate_schedule\n"
            "from dinners.transforms import best_feasible\n"
            f"sched, count = best_feasible(Instance{cell}{budget_arg})\n"
            "print(count, validate_schedule(sched).feasible)\n")
    env_path = str(Path(dinners.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=5,
                          env={**os.environ, "PYTHONPATH": env_path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(count), "True"]


def test_pipelines_within_bounds_sweep():
    rng = random.Random(42)
    cells = [
        (t, s, c, sg, gm)
        for t in range(1, 7)
        for s in range(1, 13)
        for c in range(1, 13)
        for sg in range(1, 5)
        for gm in range(1, 5)
    ]
    for cell in rng.sample(cells, 500):
        inst = Instance(*cell)
        rep = compute_bounds(inst)
        s1 = build_ub1(inst)
        assert feasible(s1), cell
        assert s1.dinner_count() <= rep.ub1, cell
        if rep.ub1_improved is not None:
            assert s1.dinner_count() <= rep.ub1_improved, cell
        se = build_eucli(inst)
        assert feasible(se), cell
        assert se.dinner_count() <= rep.ub_eucli, cell
        if rep.ub2 is not None:
            s2 = build_ub2(inst)
            assert feasible(s2), cell
            assert s2.dinner_count() <= rep.ub2, cell


@given(
    t=st.integers(1, 6),
    c=st.integers(1, 30),
    sigma=st.integers(1, 6),
    gamma=st.integers(1, 4),
    data=st.data(),
)
def test_eucli_is_ub2_wherever_ub2_applies(t, c, sigma, gamma, data):
    # ceil(s/sigma) <= cg means s <= sigma*cg, so build_eucli cuts a single
    # block, the whole instance: this is why ub2 is not a route of its own.
    cg = -(-c // gamma)
    inst = Instance(t, data.draw(st.integers(1, sigma * cg), label="s"), c, sigma, gamma)
    assert encode_schedule(build_eucli(inst)) == encode_schedule(build_ub2(inst))


def test_best_feasible_examples():
    sched, count = best_feasible(Instance(2, 5, 6, 2, 3))
    assert count == 3 and feasible(sched)
    sched, count = best_feasible(Instance(1, 9, 3, 3, 1))
    assert count == 9 and feasible(sched)
    for cell in [(1, 7, 5, 2, 2), (2, 6, 7, 3, 1), (4, 3, 9, 1, 2)]:
        inst = Instance(*cell)
        sched, count = best_feasible(inst)
        assert feasible(sched)
        assert count >= lb_best(inst)


def _permute_relabel(sched: Schedule, rng: random.Random) -> Schedule:
    inst = sched.instance
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
        for d in rng.sample(list(sched.dinners), len(sched.dinners))
    ]
    return Schedule.of(inst, dinners)


def test_transforms_preserve_feasibility_randomized():
    rng = random.Random(20240902)
    checked = 0
    while checked < 250:
        inst = Instance(
            rng.randint(1, 4),
            rng.randint(1, 9),
            rng.randint(1, 9),
            rng.randint(1, 3),
            rng.randint(1, 3),
        )
        base, _ = best_feasible(inst)
        sched = _permute_relabel(base, rng)
        assert feasible(sched)
        out = split_tables(sched, rng.randint(1, inst.t))
        assert feasible(out), inst
        out = split_sigma(sched, rng.randint(1, inst.sigma))
        assert feasible(out), inst
        shifted = concat_suppliers(sched, sched)
        assert feasible(shifted), inst
        checked += 1


def _count_searches(monkeypatch) -> list:
    import dinners.howell as howell

    calls = []
    real = howell.search_howell
    monkeypatch.setattr(howell, "_CACHE", {})
    monkeypatch.setattr(howell, "search_howell",
                        lambda m, n2, budget: calls.append((m, n2)) or real(m, n2, budget))
    return calls


def test_best_feasible_searches_a_failed_shape_once(monkeypatch):
    # sigma = 2: the howell route and the ub1 base both need H(10,20), which
    # has no closed form (10 = 2 mod 4) and is searched.
    calls = _count_searches(monkeypatch)
    sched, count = best_feasible(Instance(9, 20, 22, 2, 3), node_budget=1000)
    assert calls == [(10, 20)]
    assert feasible(sched) and count == sched.dinner_count()


def test_best_feasible_stops_at_a_proven_route(monkeypatch):
    # sigma = 1 is proven optimal, so the ub1 route's H(7,12) base is never searched.
    calls = _count_searches(monkeypatch)
    sched, count = best_feasible(Instance(4, 12, 20, 1, 3), node_budget=1000)
    assert calls == []
    assert feasible(sched) and count == build_sigma1(Instance(4, 12, 20, 1, 3)).dinner_count()


def test_best_feasible_propagates_a_fault_in_a_total_route(monkeypatch):
    import dinners.transforms as transforms
    from dinners.constructions import ConstructionError

    def broken(inst, node_budget=None):
        raise ConstructionError("internal fault")

    monkeypatch.setattr(transforms, "build_ub1", broken)
    # c > gamma and sigma = 3: no proven route applies, so the generic ones run.
    with pytest.raises(ConstructionError, match="internal fault"):
        best_feasible(Instance(2, 7, 5, 3, 1))


def test_best_feasible_mid_scale_is_fast():
    # ub1's base needs H(25,50): built in closed form, not searched.
    start = time.perf_counter()
    sched, count = best_feasible(Instance(10, 50, 100, 3, 4))
    assert time.perf_counter() - start < 1.0
    assert feasible(sched) and count == sched.dinner_count()


# The criterion-9 box and a mid-scale stratum of the plan ladder's sizes.
BOX_CELLS = st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
                      st.integers(1, 3), st.integers(1, 3))
MID_CELLS = st.tuples(st.integers(1, 10), st.integers(6, 50), st.integers(6, 100),
                      st.integers(1, 5), st.integers(1, 4))
EXACT_ROUTES = ("trivial", "sigma1", "prime", "howell", "caspar", "eucli")


def test_route_counts_follow_the_routes():
    assert list(ROUTE_COUNTS) == list(ROUTES)
    assert set(ROUTES) - set(EXACT_ROUTES) == {"ub1"}


@settings(deadline=None)
@given(cell=st.one_of(BOX_CELLS, MID_CELLS))
@example(cell=(1, 4, 2, 2, 1))  # prime, p = 2
@example(cell=(2, 4, 6, 2, 1))  # caspar, s = 4
@example(cell=(3, 5, 8, 2, 1))  # caspar, s = 5: a stored grid
@example(cell=(3, 6, 9, 2, 1))  # caspar, s = 6: a stored grid
@example(cell=(4, 7, 11, 2, 1))  # caspar, s = 7: Howell rows
@example(cell=(1, 11, 2, 2, 1))  # eucli, two supplier blocks and a short one
def test_route_counts_bound_what_each_route_builds(cell):
    inst = Instance(*cell)
    floor = optimum_floor(inst)
    counts = route_counts(inst)
    for name, build in ROUTES.items():
        assert counts[name] >= floor, name
        try:
            built = build(inst, 10_000).dinner_count()
        except (ConstructionError, SearchBudgetExceeded):
            assert name not in TOTAL_ROUTES
            continue
        if name in EXACT_ROUTES:
            assert counts[name] == built, name
        else:
            assert counts[name] <= built, name


def _every_route_walk(inst, node_budget):
    """best_feasible as it was before route counts: build every route in
    ROUTES order, keep the first fewest, stop at the floor."""
    floor = optimum_floor(inst)
    best = None
    for name, build in ROUTES.items():
        try:
            sched = build(inst, node_budget)
        except (ConstructionError, SearchBudgetExceeded):
            if name in TOTAL_ROUTES:
                raise
            continue
        if best is None or sched.dinner_count() < best.dinner_count():
            best = sched
            if best.dinner_count() == floor:
                break
    return best


@settings(deadline=None)
@given(cell=st.one_of(BOX_CELLS, MID_CELLS), budget=st.sampled_from([100, 1_000, 10_000]))
def test_best_feasible_answers_as_building_every_route(cell, budget):
    inst = Instance(*cell)
    reference = _every_route_walk(inst, budget)
    sched, count = best_feasible(inst, budget)
    assert count == reference.dinner_count()
    assert encode_schedule(sched) == encode_schedule(reference)


def test_a_route_whose_count_cannot_win_is_not_built(monkeypatch):
    # sigma = gamma = 3 and s*gamma > c: ub1 builds 60 dinners on its Howell
    # base, and eucli's count, 116, cannot beat that.
    inst = Instance(5, 26, 60, 3, 3)
    assert route_counts(inst)["eucli"] == 116 == build_eucli(inst).dinner_count()
    calls = []
    monkeypatch.setattr(transforms, "build_eucli", lambda inst: calls.append(inst) or build_eucli(inst))
    sched, count = best_feasible(inst, 10_000)
    assert (count, calls) == (60, [])
    assert feasible(sched)


def test_no_howell_search_runs_once_an_exact_route_meets_the_floor(monkeypatch):
    # sigma = 1 meets the floor, 40; the ub1 route would search H(10,20).
    calls = _count_searches(monkeypatch)
    inst = Instance(1, 20, 5, 1, 3)
    sched, count = best_feasible(inst, node_budget=1000)
    assert calls == [] and count == 40 == optimum_floor(inst)
    build_ub1(inst, 1000)
    assert calls == [(10, 20)]
