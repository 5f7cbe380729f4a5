"""Domain types, validator, grouping, and the JSON interchange format."""

import json
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dinners import model
from dinners.constructions import load_example_schedule
from dinners.model import (
    CUSTOMER_CAP_EXCEEDED,
    ID_OUT_OF_RANGE,
    MAX_PAIRS_MISSING_LISTED,
    PAIR_MISSING,
    PAIR_REPEATED,
    PERSON_AT_TWO_TABLES,
    SUPPLIER_CAP_EXCEEDED,
    SUPPLIER_PAIR_REPEATED,
    TABLE_COUNT_EXCEEDED,
    Dinner,
    Instance,
    Schedule,
    ScheduleDecodeError,
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
    assert [set(g) for g in group_customers(6, 3)] == [{1, 2, 3}, {4, 5, 6}]
    assert [set(g) for g in group_customers(5, 2)] == [{1, 2}, {3, 4}, {5}]
    assert [set(g) for g in group_customers(4, 4)] == [{1, 2, 3, 4}]


def test_group_customers_partition_property():
    for c, gamma in [(1, 1), (7, 3), (100, 7), (10000, 11), (9999, 1000), (5, 9)]:
        grouping = group_customers(c, gamma)
        assert len(grouping) == -(-c // gamma)
        seen = set()
        for g in grouping:
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


def json_reference(sched: Schedule) -> str:
    """The canonical text, written by json.dumps."""
    inst = sched.instance
    return json.dumps({
        "instance": {"t": inst.t, "s": inst.s, "c": inst.c, "sigma": inst.sigma, "gamma": inst.gamma},
        "dinners": [
            [{"suppliers": sorted(tab.suppliers), "customers": sorted(tab.customers)}
             for tab in dinner.tables]
            for dinner in sched.dinners
        ],
    }, indent=2) + "\n"


@given(sched=schedules())
def test_encode_is_json_dumps_with_indent(sched):
    text = encode_schedule(sched)
    assert text == json_reference(sched)
    assert decode_schedule(text) == sched


def test_encode_writes_shared_id_sets_as_json_dumps_does():
    # build_sigma1 seats every table of a group with the same frozenset object,
    # which the encoder writes once and reuses.
    from dinners.constructions import build_sigma1

    sched = build_sigma1(Instance(10, 40, 90, 1, 3))
    groups = [tab.customers for dinner in sched.dinners for tab in dinner.tables]
    assert len({id(g) for g in groups}) == 30 < len(groups)
    assert encode_schedule(sched) == json_reference(sched)


def test_encode_writes_equal_but_distinct_id_sets_alike():
    # Equal sets built apart are distinct objects, and 1 and 9 collide in a
    # small set's hash table, so the two iterate in different orders.
    a, b = frozenset([1, 9, 20]), frozenset([20, 9, 1])
    assert a == b and a is not b and list(a) != list(b)
    sched = Schedule.of(Instance(2, 20, 20, 3, 3), [
        Dinner.of([TableSeating(a, frozenset([2])), TableSeating(frozenset([3]), b)]),
        Dinner.of([TableSeating(b, a)]),
    ])
    assert encode_schedule(sched) == json_reference(sched)


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


@pytest.mark.parametrize("s, c, met", [(10**5, 10**5, 0), (1, 10**12, 0), (1, 10**7, 10**7)])
def test_pair_missing_is_counted_in_full_and_listed_up_to_the_cap(s, c, met):
    """An empty schedule, or one whose only table seats supplier 1 with customer `met`."""
    dinners = [Dinner.of([TableSeating.of([1], [met])])] if met else []
    start = time.perf_counter()
    report = validate_schedule(Schedule.of(Instance(1, s, c, 1, 1), dinners))
    elapsed = time.perf_counter() - start
    assert report.total == s * c - bool(met)
    assert len(report.violations) == MAX_PAIRS_MISSING_LISTED
    assert report.unlisted_missing == s * c - bool(met) - MAX_PAIRS_MISSING_LISTED
    assert report.violations[-1] == (PAIR_MISSING, f"supplier 1 and customer {MAX_PAIRS_MISSING_LISTED} never meet")
    assert not report.feasible
    assert elapsed < 2.0


@pytest.mark.parametrize("times", [1, 2])
def test_validator_memory_follows_the_schedule_not_the_largest_id(times):
    """One table seating customer 10**9, once or twice: a few sets, not a 10**9-bit mask."""
    c = 10**9
    dinner = Dinner.of([TableSeating.of([1], [c])])
    sched = Schedule.of(Instance(1, 1, c, 1, 1), [dinner] * times)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = validate_schedule(sched)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if times == 1:
        assert report.total == c - 1
    else:
        assert report.violations[-1] == (PAIR_REPEATED, f"supplier 1 and customer {c} meet 2 times")
    assert peak < 16 * 2**20
    assert elapsed < 2.0


@pytest.mark.parametrize("sigma, m, gamma, groups", [(5, 101, 100, 5), (31, 31, 31, 31)])
def test_validator_memory_stays_near_one_bit_a_pair_on_a_dense_schedule(sigma, m, gamma, groups):
    """s = c = 505, sigma = 5, gamma = 100: 255,025 meetings in 505 tables, one
    table a dinner; or s = c = 961, sigma = gamma = 31: 923,521 meetings in 961
    tables.  Every supplier's meetings held at once would take megabytes
    (some 8 MiB for the first); one supplier's at a time take a few kB.  m is
    prime, so supplier blocks share at most one supplier."""
    dinners = [
        Dinner.of([TableSeating.of([a * m + (b + h * a) % m + 1 for a in range(sigma)],
                                   range(h * gamma + 1, (h + 1) * gamma + 1))])
        for h in range(groups) for b in range(m)
    ]
    sched = Schedule.of(Instance(1, sigma * m, gamma * groups, sigma, gamma), dinners)
    tracemalloc.start()
    try:
        report = validate_schedule(sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.feasible
    assert peak < 2 * 2**20


def test_validator_memory_does_not_grow_with_a_tables_supplier_pairs():
    """One table of 2,000 suppliers seats 1,999,000 supplier pairs, but a
    table cannot repeat its own pairs, so none of them is counted."""
    s = 2000
    sched = Schedule.of(Instance(1, s, 1, s, 1), [Dinner.of([TableSeating.of(range(1, s + 1), [1])])])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = validate_schedule(sched)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.feasible
    assert peak < 2 * 2**20
    assert elapsed < 0.5


@given(sched=broken_schedules(), cap=st.integers(0, 8))
def test_capped_listing_drops_only_the_pair_missing_past_the_cap(sched, cap):
    want = dict_validator(sched)
    missing = [v for v in want if v[0] == PAIR_MISSING]
    dropped = set(missing[cap:])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "MAX_PAIRS_MISSING_LISTED", cap)
        report = validate_schedule(sched)
    assert report.violations == tuple(v for v in want if v not in dropped)
    assert report.total == len(want)
    assert report.feasible == (not want)


def reference_require_keys(obj: dict, keys: set[str], where: str) -> None:
    missing = keys - obj.keys()
    if missing:
        raise ScheduleStructureError(f"{where}: missing field(s) {sorted(missing)}")
    extra = obj.keys() - keys
    if extra:
        raise ScheduleStructureError(f"{where}: unexpected field(s) {sorted(extra)}")


def reference_id_list(raw, where: str) -> list[int]:
    if not isinstance(raw, list):
        raise ScheduleStructureError(f"{where}: expected an array of ids")
    ids = []
    for v in raw:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ScheduleStructureError(f"{where}: id {v!r} is not an integer")
        ids.append(v)
    if len(set(ids)) != len(ids):
        raise ScheduleStructureError(f"{where}: duplicate ids {ids}")
    return ids


def reference_decode(text: str) -> Schedule:
    """The decoder that checked each table field by field, kept as the reference."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScheduleSyntaxError(f"not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ScheduleStructureError("top level must be a JSON object")
    reference_require_keys(obj, {"instance", "dinners"}, "top level")
    raw_inst = obj["instance"]
    if not isinstance(raw_inst, dict):
        raise ScheduleStructureError("instance must be an object")
    reference_require_keys(raw_inst, {"t", "s", "c", "sigma", "gamma"}, "instance")
    for name, v in raw_inst.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ScheduleStructureError(f"instance.{name} must be a positive integer, got {v!r}")
    inst = Instance(**raw_inst)

    raw_dinners = obj["dinners"]
    if not isinstance(raw_dinners, list):
        raise ScheduleStructureError("dinners must be an array")
    dinners = []
    for d, raw_dinner in enumerate(raw_dinners, start=1):
        if not isinstance(raw_dinner, list):
            raise ScheduleStructureError(f"dinner {d} must be an array of tables")
        tables = []
        for x, raw_table in enumerate(raw_dinner, start=1):
            where = f"dinner {d} table {x}"
            if not isinstance(raw_table, dict):
                raise ScheduleStructureError(f"{where} must be an object")
            reference_require_keys(raw_table, {"suppliers", "customers"}, where)
            sups = reference_id_list(raw_table["suppliers"], where)
            custs = reference_id_list(raw_table["customers"], where)
            if not sups and not custs:
                raise ScheduleStructureError(f"{where} is completely empty")
            for i in sups:
                if not 1 <= i <= inst.s:
                    raise ScheduleRangeError(f"{where}: supplier id {i} not in 1..{inst.s}")
            for k in custs:
                if not 1 <= k <= inst.c:
                    raise ScheduleRangeError(f"{where}: customer id {k} not in 1..{inst.c}")
            tables.append(TableSeating.of(sups, custs))
        dinners.append(Dinner.of(tables))
    return Schedule.of(inst, dinners)


# Values that are not what a field, table, dinner or id list should hold.
WRONG_VALUES = st.sampled_from([None, True, 1, 1.0, "x", [], {}, [1], {"suppliers": [1]}])


@st.composite
def schedule_texts(draw) -> str:
    """A schedule file, well-formed or broken by up to three random edits.

    An edit drops a key or adds one, puts a wrong value in place of the
    instance, a field, the dinner list, a dinner, a table or an id list,
    swaps an id for one that is a bool, a float, a string, null, zero,
    negative, out of range or a duplicate, or empties a table.  Edits pick
    their target from the file as generated, so a later edit may land in a
    part an earlier one cut off.
    """
    s, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    def ids(n):
        return st.lists(st.integers(1, n), unique=True, max_size=3)
    table = st.fixed_dictionaries({"suppliers": ids(s), "customers": ids(c)}).filter(
        lambda tab: tab["suppliers"] or tab["customers"])
    inst = {"t": draw(st.integers(1, 4)), "s": s, "c": c,
            "sigma": draw(st.integers(1, 3)), "gamma": draw(st.integers(1, 3))}
    dinners = draw(st.lists(st.lists(table, min_size=1, max_size=3), min_size=1, max_size=4))
    obj = {"instance": inst, "dinners": dinners}
    tables = [tab for dinner in dinners for tab in dinner]
    id_lists = [tab[key] for tab in tables for key in ("suppliers", "customers")]
    spots = [(obj, "instance"), (obj, "dinners")] + [(inst, name) for name in inst]
    spots += [(dinners, d) for d in range(len(dinners))]
    spots += [(dinner, x) for dinner in dinners for x in range(len(dinner))]
    spots += [(tab, key) for tab in tables for key in ("suppliers", "customers")]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["key", "value", "id", "id", "id", "empty"]))
        if edit == "key":
            target = draw(st.sampled_from([obj, inst] + tables))
            if target and draw(st.booleans()):
                del target[draw(st.sampled_from(sorted(target)))]
            else:
                target[draw(st.sampled_from(["extra", "s", "suppliers"]))] = 1
        elif edit == "value":
            container, key = draw(st.sampled_from(spots))
            container[key] = draw(WRONG_VALUES)
        elif edit == "id" and id_lists:
            target = draw(st.sampled_from(id_lists))
            bad = draw(st.sampled_from([True, "duplicate", False, 1.0, "1", None, 0, -1, max(s, c) + 1]))
            if bad == "duplicate":
                target.append(draw(st.sampled_from(target)) if target else 1)
                target.append(target[-1])
            elif target:
                target[draw(st.integers(0, len(target) - 1))] = bad
            else:
                target.append(bad)
        elif edit == "empty" and tables:
            tab = draw(st.sampled_from(tables))
            tab["suppliers"], tab["customers"] = [], []
    return json.dumps(obj)


def decoded(decode, text: str):
    try:
        return decode(text)
    except ScheduleDecodeError as e:
        return type(e), str(e)


def table_text(table: str) -> str:
    """A file whose second table is `table`, after a well-formed first one."""
    return ('{"instance":{"t":1,"s":2,"c":2,"sigma":2,"gamma":2},'
            '"dinners":[[{"suppliers":[1],"customers":[2]},' + table + "]]}")


@settings(max_examples=500)
@given(text=schedule_texts())
@example(text=table_text('{"suppliers":[true],"customers":[1,1]}'))
@example(text=table_text('{"suppliers":[true],"customers":[]}'))
@example(text=table_text('{"suppliers":[2],"customers":[1,1]}'))
@example(text=table_text('{"suppliers":[],"customers":[0]}'))
@example(text=table_text('{"suppliers":[3],"customers":[1.0],"extra":[]}'))
@example(text=table_text('{"suppliers":[],"customers":[]}'))
def test_decoder_matches_the_reference(text):
    assert decoded(decode_schedule, text) == decoded(reference_decode, text)
