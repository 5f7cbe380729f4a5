"""Domain types, validator, grouping, and the JSON interchange format."""

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dinners.constructions import load_example_schedule
from dinners.model import (
    CUSTOMER_CAP_EXCEEDED,
    ID_OUT_OF_RANGE,
    PAIR_MISSING,
    PAIR_REPEATED,
    PERSON_AT_TWO_TABLES,
    SUPPLIER_CAP_EXCEEDED,
    SUPPLIER_PAIR_REPEATED,
    TABLE_COUNT_EXCEEDED,
    Dinner,
    Instance,
    Schedule,
    ScheduleRangeError,
    ScheduleStructureError,
    ScheduleSyntaxError,
    TableSeating,
    ValidationReport,
    decode_schedule,
    encode_schedule,
    group_customers,
    validate_schedule,
)


def test_instance_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        Instance(0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        Instance(1, 1, 1, 1, -2)


def test_group_customers_examples():
    assert [set(g) for g in group_customers(6, 3).groups] == [{1, 2, 3}, {4, 5, 6}]
    assert [set(g) for g in group_customers(5, 2).groups] == [{1, 2}, {3, 4}, {5}]
    assert [set(g) for g in group_customers(4, 4).groups] == [{1, 2, 3, 4}]


def test_group_customers_partition_property():
    for c, gamma in [(1, 1), (7, 3), (100, 7), (10000, 11), (9999, 1000), (5, 9)]:
        grouping = group_customers(c, gamma)
        assert len(grouping.groups) == -(-c // gamma)
        seen = set()
        for g in grouping.groups:
            assert 1 <= len(g) <= gamma
            assert not (seen & g)
            seen |= g
        assert seen == set(range(1, c + 1))


def test_example_schedule_is_feasible():
    report = validate_schedule(load_example_schedule())
    assert report.feasible
    assert report.violations == ()


def test_empty_schedule_reports_all_pairs_missing():
    inst = Instance(2, 3, 4, 2, 2)
    report = validate_schedule(Schedule.of(inst, []))
    assert not report.feasible
    missing = [v for v in report.violations if v[0] == PAIR_MISSING]
    assert len(missing) == 3 * 4


def test_repeated_dinner_reports_pair_repeated():
    ex = load_example_schedule()
    doubled = Schedule.of(ex.instance, list(ex.dinners) + [ex.dinners[1]])
    report = validate_schedule(doubled)
    assert not report.feasible
    details = [d for kind, d in report.violations if kind == PAIR_REPEATED]
    assert any("supplier 3 and customer 2" in d for d in details)


def test_validator_reports_capacity_and_range_violations():
    inst = Instance(1, 3, 3, 1, 1)
    dinner = Dinner.of(
        [
            TableSeating.of([1, 2], [1, 7]),
            TableSeating.of([2], [2]),
        ]
    )
    report = validate_schedule(Schedule.of(inst, [dinner]))
    kinds = report.kinds()
    assert TABLE_COUNT_EXCEEDED in kinds
    assert SUPPLIER_CAP_EXCEEDED in kinds
    assert CUSTOMER_CAP_EXCEEDED in kinds
    assert PERSON_AT_TWO_TABLES in kinds  # supplier 2 twice
    assert ID_OUT_OF_RANGE in kinds  # customer 7


def test_validator_reports_supplier_pair_repeats():
    inst = Instance(1, 2, 2, 2, 1)
    dinners = [
        Dinner.of([TableSeating.of([1, 2], [1])]),
        Dinner.of([TableSeating.of([1, 2], [2])]),
    ]
    report = validate_schedule(Schedule.of(inst, dinners))
    assert SUPPLIER_PAIR_REPEATED in report.kinds()


def test_roundtrip_of_example():
    ex = load_example_schedule()
    assert decode_schedule(encode_schedule(ex)) == ex


def test_decode_minimal_instance():
    text = '{"instance":{"t":1,"s":1,"c":1,"sigma":1,"gamma":1},"dinners":[[{"suppliers":[1],"customers":[1]}]]}'
    sched = decode_schedule(text)
    assert sched.dinner_count() == 1
    assert sched.dinners[0].tables[0] == TableSeating.of([1], [1])
    assert validate_schedule(sched).feasible


def test_decode_rejects_out_of_range_supplier():
    text = '{"instance":{"t":1,"s":5,"c":1,"sigma":2,"gamma":1},"dinners":[[{"suppliers":[7],"customers":[1]}]]}'
    with pytest.raises(ScheduleRangeError):
        decode_schedule(text)


def test_decode_error_kinds_are_distinct():
    with pytest.raises(ScheduleSyntaxError):
        decode_schedule("{not json")
    with pytest.raises(ScheduleStructureError):
        decode_schedule('{"instance":{"t":1,"s":1,"c":1,"sigma":1},"dinners":[]}')
    with pytest.raises(ScheduleStructureError):
        decode_schedule(
            '{"instance":{"t":1,"s":1,"c":1,"sigma":1,"gamma":1},"dinners":[],"extra":1}'
        )
    with pytest.raises(ScheduleStructureError):
        decode_schedule(
            '{"instance":{"t":1,"s":2,"c":1,"sigma":2,"gamma":1},"dinners":[[{"suppliers":[1,1],"customers":[1]}]]}'
        )


def random_schedule(rng: random.Random) -> Schedule:
    """A structurally valid (not necessarily feasible) schedule for round-trips."""
    inst = Instance(
        t=rng.randint(1, 4),
        s=rng.randint(1, 6),
        c=rng.randint(1, 6),
        sigma=rng.randint(1, 3),
        gamma=rng.randint(1, 3),
    )
    dinners = []
    for _ in range(rng.randint(0, 5)):
        tables = []
        free_s = list(range(1, inst.s + 1))
        free_c = list(range(1, inst.c + 1))
        for _ in range(rng.randint(1, inst.t)):
            ns = rng.randint(0, min(inst.sigma, len(free_s)))
            nc_max = min(inst.gamma, len(free_c))
            nc = rng.randint(0, nc_max)
            if ns + nc == 0:
                continue
            sups = rng.sample(free_s, ns)
            custs = rng.sample(free_c, nc)
            for x in sups:
                free_s.remove(x)
            for x in custs:
                free_c.remove(x)
            tables.append(TableSeating.of(sups, custs))
        if tables:
            dinners.append(Dinner.of(tables))
    return Schedule.of(inst, dinners)


def test_roundtrip_random_schedules():
    rng = random.Random(20240817)
    for _ in range(200):
        sched = random_schedule(rng)
        assert decode_schedule(encode_schedule(sched)) == sched


# Multi-digit ids, so that a frozenset's iteration order is not sorted.
ID_SETS = st.frozensets(st.integers(1, 10**6), max_size=5)
TABLES = st.tuples(ID_SETS, ID_SETS).filter(any).map(lambda ids: TableSeating(*ids))


@st.composite
def schedules(draw) -> Schedule:
    """Schedules that decode: no table is wholly empty, every id is in range.

    Zero dinners, dinners with no tables and tables with one empty side occur.
    """
    dinners = draw(st.lists(st.lists(TABLES, max_size=3).map(Dinner.of), max_size=4))
    tables = [tab for dinner in dinners for tab in dinner.tables]
    s = max((i for tab in tables for i in tab.suppliers), default=1)
    c = max((k for tab in tables for k in tab.customers), default=1)
    extra = st.integers(0, 10**3)
    inst = Instance(draw(st.integers(1, 10**4)), s + draw(extra), c + draw(extra),
                    draw(st.integers(1, 200)), draw(st.integers(1, 200)))
    return Schedule.of(inst, dinners)


@given(sched=schedules())
def test_encode_is_json_dumps_with_indent(sched):
    inst = sched.instance
    reference = json.dumps({
        "instance": {"t": inst.t, "s": inst.s, "c": inst.c, "sigma": inst.sigma, "gamma": inst.gamma},
        "dinners": [
            [{"suppliers": sorted(tab.suppliers), "customers": sorted(tab.customers)}
             for tab in dinner.tables]
            for dinner in sched.dinners
        ],
    }, indent=2) + "\n"
    text = encode_schedule(sched)
    assert text == reference
    assert decode_schedule(text) == sched


def dict_validator(sched: Schedule) -> tuple:
    """The validator's report, computed with a dict keyed by every pair."""
    inst = sched.instance
    violations = []
    meet_count = {}
    sup_pair_count = {}
    for d, dinner in enumerate(sched.dinners, start=1):
        if len(dinner.tables) > inst.t:
            violations.append((TABLE_COUNT_EXCEEDED, f"dinner {d} uses {len(dinner.tables)} tables > t={inst.t}"))
        seen_sups, seen_custs = set(), set()
        for x, table in enumerate(dinner.tables, start=1):
            if len(table.suppliers) > inst.sigma:
                violations.append((SUPPLIER_CAP_EXCEEDED, f"dinner {d} table {x} seats "
                                   f"{len(table.suppliers)} suppliers > sigma={inst.sigma}"))
            if len(table.customers) > inst.gamma:
                violations.append((CUSTOMER_CAP_EXCEEDED, f"dinner {d} table {x} seats "
                                   f"{len(table.customers)} customers > gamma={inst.gamma}"))
            for i in table.suppliers:
                if not 1 <= i <= inst.s:
                    violations.append((ID_OUT_OF_RANGE, f"dinner {d} table {x}: supplier {i} not in 1..{inst.s}"))
                if i in seen_sups:
                    violations.append((PERSON_AT_TWO_TABLES, f"dinner {d}: supplier {i} sits at two tables"))
            for k in table.customers:
                if not 1 <= k <= inst.c:
                    violations.append((ID_OUT_OF_RANGE, f"dinner {d} table {x}: customer {k} not in 1..{inst.c}"))
                if k in seen_custs:
                    violations.append((PERSON_AT_TWO_TABLES, f"dinner {d}: customer {k} sits at two tables"))
            seen_sups.update(table.suppliers)
            seen_custs.update(table.customers)
            for i in table.suppliers:
                for k in table.customers:
                    meet_count[i, k] = meet_count.get((i, k), 0) + 1
            sups = sorted(table.suppliers)
            for a in range(len(sups)):
                for b in range(a + 1, len(sups)):
                    sup_pair_count[sups[a], sups[b]] = sup_pair_count.get((sups[a], sups[b]), 0) + 1
    for i in range(1, inst.s + 1):
        for k in range(1, inst.c + 1):
            n = meet_count.get((i, k), 0)
            if n == 0:
                violations.append((PAIR_MISSING, f"supplier {i} and customer {k} never meet"))
            elif n > 1:
                violations.append((PAIR_REPEATED, f"supplier {i} and customer {k} meet {n} times"))
    for (i, j), n in sorted(sup_pair_count.items()):
        if n > 1:
            violations.append((SUPPLIER_PAIR_REPEATED, f"suppliers {i} and {j} share a table {n} times"))
    return tuple(violations)


@st.composite
def broken_schedules(draw) -> Schedule:
    """A feasible sigma=gamma=1 schedule, then up to five random breaks.

    Supplier i meets customer k in dinner (i + k) mod max(s, c).  A break
    drops or duplicates a dinner, adds a table, or seats extra people at a
    table, with ids that may lie outside 1..s or 1..c, zero and negatives too.
    """
    s, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = max(s, c)
    dinners = [[[{i}, {k}] for i in range(1, s + 1) for k in range(1, c + 1) if (i + k) % n == r]
               for r in range(n)]
    sup_ids, cust_ids = st.integers(-2, s + 2), st.integers(-2, c + 2)
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["drop", "duplicate", "extra_table", "oversize"]))
        if not dinners:
            dinners.append([])
        d = draw(st.integers(0, len(dinners) - 1))
        if kind == "drop":
            del dinners[d]
        elif kind == "duplicate":
            dinners.append([[set(sups), set(custs)] for sups, custs in dinners[d]])
        elif kind == "extra_table" or not dinners[d]:
            dinners[d].append([draw(st.sets(sup_ids, max_size=3)), draw(st.sets(cust_ids, max_size=3))])
        else:
            sups, custs = draw(st.sampled_from(dinners[d]))
            sups |= draw(st.sets(sup_ids, max_size=2))
            custs |= draw(st.sets(cust_ids, max_size=2))
    inst = Instance(min(s, c), s, c, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return Schedule.of(inst, [Dinner.of(TableSeating.of(*tab) for tab in tables) for tables in dinners])


@given(sched=broken_schedules())
def test_validator_matches_the_dict_reference(sched):
    want = dict_validator(sched)
    assert validate_schedule(sched) == ValidationReport(feasible=not want, violations=want)
