"""Core domain types for dinner schedules, plus validation and the JSON interchange format.

The problem: seat suppliers and customers at up to ``t`` tables per dinner so
that every (supplier, customer) pair shares a table exactly once over the whole
schedule, two suppliers share a table at most once, and each table holds at
most ``sigma`` suppliers and ``gamma`` customers.  All ids are 1-based.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

# Violation kinds reported by validate_schedule.
TABLE_COUNT_EXCEEDED = "TableCountExceeded"
SUPPLIER_CAP_EXCEEDED = "SupplierCapExceeded"
CUSTOMER_CAP_EXCEEDED = "CustomerCapExceeded"
PERSON_AT_TWO_TABLES = "PersonAtTwoTables"
PAIR_MISSING = "PairMissing"
PAIR_REPEATED = "PairRepeated"
SUPPLIER_PAIR_REPEATED = "SupplierPairRepeated"
ID_OUT_OF_RANGE = "IdOutOfRange"

# validate_schedule lists this many PairMissing violations at most and counts
# the rest; every other kind is listed in full.
MAX_PAIRS_MISSING_LISTED = 10_000

# validate_schedule keeps the customers a supplier has met in a set while it
# holds at most c >> SET_LIMIT_SHIFT of them, and in a c-bit mask from then
# on: a set costs some 300 bits an id, so past that point the mask is smaller.
SET_LIMIT_SHIFT = 8


class ScheduleDecodeError(ValueError):
    """Base class for schedule text that cannot be decoded."""


class ScheduleSyntaxError(ScheduleDecodeError):
    """The input is not syntactically valid JSON."""


class ScheduleStructureError(ScheduleDecodeError):
    """JSON is well-formed but fields are missing, extra, or of the wrong shape."""


class ScheduleRangeError(ScheduleDecodeError):
    """A supplier or customer id lies outside the instance's declared range."""


@dataclass(frozen=True)
class Instance:
    """Problem parameters: tables, suppliers, customers, per-table caps."""

    t: int
    s: int
    c: int
    sigma: int
    gamma: int

    def __post_init__(self):
        for name in ("t", "s", "c", "sigma", "gamma"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"instance field {name} must be a positive integer, got {v!r}")

    @property
    def customer_groups(self) -> int:
        """Number of customer groups of size <= gamma: ceil(c / gamma)."""
        return -(-self.c // self.gamma)


@dataclass(frozen=True)
class TableSeating:
    """One table on one evening: the supplier ids and customer ids seated there."""

    suppliers: frozenset[int]
    customers: frozenset[int]

    @staticmethod
    def of(suppliers: Iterable[int], customers: Iterable[int]) -> "TableSeating":
        return TableSeating(frozenset(suppliers), frozenset(customers))


@dataclass(frozen=True)
class Dinner:
    """One evening: an ordered list of occupied tables."""

    tables: tuple[TableSeating, ...]

    @staticmethod
    def of(tables: Iterable[TableSeating]) -> "Dinner":
        return Dinner(tuple(tables))


@dataclass(frozen=True)
class Schedule:
    """A full seating plan: the instance plus one Dinner per evening."""

    instance: Instance
    dinners: tuple[Dinner, ...]

    @staticmethod
    def of(instance: Instance, dinners: Iterable[Dinner]) -> "Schedule":
        return Schedule(instance, tuple(dinners))

    def dinner_count(self) -> int:
        return len(self.dinners)


@dataclass(frozen=True)
class CustomerGrouping:
    """A partition of customers 1..c into blocks of size <= gamma."""

    groups: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class ValidationReport:
    """Every violation found, and how many ``PairMissing`` ones are not listed.

    ``violations`` lists at most ``MAX_PAIRS_MISSING_LISTED`` of them, so the
    report of an empty schedule stays small however large s*c is.
    """

    feasible: bool
    violations: tuple[tuple[str, str], ...]
    unlisted_missing: int = 0

    @property
    def total(self) -> int:
        """The number of violations, listed or not."""
        return len(self.violations) + self.unlisted_missing

    def kinds(self) -> set[str]:
        return {kind for kind, _ in self.violations}


def group_customers(c: int, gamma: int) -> CustomerGrouping:
    """Split customers 1..c into ceil(c/gamma) contiguous blocks of size <= gamma.

    Group k (1-based) holds customers (k-1)*gamma+1 .. min(k*gamma, c); the
    deterministic blocking keeps every construction reproducible.
    """
    if c < 1 or gamma < 1:
        raise ValueError("c and gamma must be positive")
    groups = []
    for lo in range(1, c + 1, gamma):
        groups.append(frozenset(range(lo, min(lo + gamma, c + 1))))
    return CustomerGrouping(tuple(groups))


def validate_schedule(sched: Schedule) -> ValidationReport:
    """Check every constraint and report all violations, not just the first.

    Checks: per-dinner table count, per-table caps, one table per person per
    dinner, every supplier-customer pair met exactly once, supplier pairs
    co-seated at most once, and id ranges.  People may skip dinners entirely.
    A supplier keeps the customers it has met in a set, or in a c-bit mask
    once that is the smaller, so this bookkeeping grows with the meetings in
    the schedule but not much past one bit a supplier-customer pair, and not
    with the largest id.  Suppliers who meet no one hold no state, and
    PairMissing is listed only up to its cap.
    """
    inst = sched.instance
    t, s, c, sigma, gamma = inst.t, inst.s, inst.c, inst.sigma, inst.gamma
    violations: list[tuple[str, str]] = []
    set_limit = c >> SET_LIMIT_SHIFT
    # met[i]: the in-range customers supplier i has met, as a set or a mask
    met: defaultdict[int, set[int] | int] = defaultdict(set if set_limit else int)
    repeats: defaultdict[int, dict[int, int]] = defaultdict(dict)  # repeats[i][k]: meetings, if more than one
    sup_pair_count: dict[tuple[int, int], int] = {}

    for d, dinner in enumerate(sched.dinners, start=1):
        if len(dinner.tables) > t:
            violations.append((TABLE_COUNT_EXCEEDED, f"dinner {d} uses {len(dinner.tables)} tables > t={t}"))
        seen_sups: set[int] = set()
        seen_custs: set[int] = set()
        for x, table in enumerate(dinner.tables, start=1):
            sups, custs = table.suppliers, table.customers
            n_sups = len(sups)
            if n_sups > sigma:
                violations.append(
                    (SUPPLIER_CAP_EXCEEDED, f"dinner {d} table {x} seats {len(sups)} suppliers > sigma={sigma}")
                )
            if len(custs) > gamma:
                violations.append(
                    (CUSTOMER_CAP_EXCEEDED, f"dinner {d} table {x} seats {len(custs)} customers > gamma={gamma}")
                )
            for i in sups:
                if not 1 <= i <= s:
                    violations.append((ID_OUT_OF_RANGE, f"dinner {d} table {x}: supplier {i} not in 1..{s}"))
                if i in seen_sups:
                    violations.append((PERSON_AT_TWO_TABLES, f"dinner {d}: supplier {i} sits at two tables"))
            in_range = custs
            for k in custs:
                if not 1 <= k <= c:
                    violations.append((ID_OUT_OF_RANGE, f"dinner {d} table {x}: customer {k} not in 1..{c}"))
                    in_range = None
                if k in seen_custs:
                    violations.append((PERSON_AT_TWO_TABLES, f"dinner {d}: customer {k} sits at two tables"))
            seen_sups |= sups
            seen_custs |= custs
            # Meetings are counted for ids in range only, which are the ones
            # reported below.
            if in_range is None:
                in_range = {k for k in custs if 1 <= k <= c}
            table_mask = 0
            for i in sups:
                if 1 <= i <= s:
                    was = met[i]
                    if type(was) is set:
                        if len(was) + len(in_range) <= set_limit:
                            if not was.isdisjoint(in_range):
                                counts = repeats[i]
                                for k in was & in_range:
                                    counts[k] = counts.get(k, 1) + 1
                            was |= in_range
                            continue
                        was = _mask(was)
                    if not table_mask:
                        if len(in_range) < 64:  # a few shifts beat building a digit string
                            for k in in_range:
                                table_mask |= 1 << k
                        else:
                            table_mask = _mask(in_range)
                    if was & table_mask:
                        counts = repeats[i]
                        for k in in_range:
                            if was >> k & 1:
                                counts[k] = counts.get(k, 1) + 1
                    met[i] = was | table_mask
            if n_sups > 1:
                ordered = sorted(sups)
                for a in range(len(ordered)):
                    for b in range(a + 1, len(ordered)):
                        pair = (ordered[a], ordered[b])
                        sup_pair_count[pair] = sup_pair_count.get(pair, 0) + 1

    # Pair violations go in (supplier, customer) order.  While PairMissing
    # may still be listed, suppliers are walked one by one; the first `room`
    # customers a supplier has not met are all at most room + (customers met).
    unlisted = s * c - sum(m.bit_count() if type(m) is int else len(m) for m in met.values())
    room = MAX_PAIRS_MISSING_LISTED
    i = 1
    while room and i <= s:
        was = met.get(i, ())
        again = repeats.get(i, {})
        n_met = was.bit_count() if type(was) is int else len(was)
        top = min(c, room + n_met) if n_met < c else 0  # no scan once all c are met
        if type(was) is int:
            unmet = bin(~was & (1 << top + 1) - 2)[:1:-1]  # unmet[k] == "1": customer k is unmet
            missing = [k for k, bit in enumerate(unmet) if bit == "1"][:room]
        else:
            missing = [k for k in range(1, top + 1) if k not in was][:room]
        room -= len(missing)
        unlisted -= len(missing)
        for k in sorted([*missing, *again]):
            if k in again:
                violations.append((PAIR_REPEATED, f"supplier {i} and customer {k} meet {again[k]} times"))
            else:
                violations.append((PAIR_MISSING, f"supplier {i} and customer {k} never meet"))
        i += 1
    # Then only the suppliers with repeated pairs are left to list.
    for j in sorted(repeats):
        if j >= i:
            for k, n in sorted(repeats[j].items()):
                violations.append((PAIR_REPEATED, f"supplier {j} and customer {k} meet {n} times"))
    for (i, j), n in sorted(sup_pair_count.items()):
        if n > 1:
            violations.append((SUPPLIER_PAIR_REPEATED, f"suppliers {i} and {j} share a table {n} times"))

    return ValidationReport(feasible=not violations and not unlisted, violations=tuple(violations),
                            unlisted_missing=unlisted)


def _mask(ids: set[int] | frozenset[int]) -> int:
    """The int with bit k set for each k in ids, in time linear in max(ids)."""
    digits = bytearray(b"0") * (max(ids, default=0) + 1)
    for k in ids:
        digits[k] = 49  # ord("1")
    return int(digits[::-1], 2)


def encode_schedule(sched: Schedule) -> str:
    """Serialize to the canonical JSON interchange format (sorted id arrays).

    The text is exactly ``json.dumps(obj, indent=2) + "\n"`` for
    {"instance": {"t", "s", "c", "sigma", "gamma"}, "dinners": [[{"suppliers":
    [...], "customers": [...]}, ...], ...]}: 2-space indent, one id per line.
    It is joined from strings here, because ``indent`` sends json.dumps to its
    pure-Python encoder.
    """
    inst = sched.instance
    head = (f'{{\n  "instance": {{\n    "t": {inst.t},\n    "s": {inst.s},\n    "c": {inst.c},\n'
            f'    "sigma": {inst.sigma},\n    "gamma": {inst.gamma}\n  }},\n  "dinners": ')
    if not sched.dinners:
        return head + "[]\n}\n"
    dinners = []
    for dinner in sched.dinners:
        tables = [
            '{\n        "suppliers": ' + _id_array(tab.suppliers)
            + ',\n        "customers": ' + _id_array(tab.customers) + "\n      }"
            for tab in dinner.tables
        ]
        dinners.append("[\n      " + ",\n      ".join(tables) + "\n    ]" if tables else "[]")
    return head + "[\n    " + ",\n    ".join(dinners) + "\n  ]\n}\n"


def _id_array(ids: frozenset[int]) -> str:
    """A sorted id array as json.dumps(..., indent=2) writes it at table depth."""
    if not ids:
        return "[]"
    return "[\n          " + ",\n          ".join(map(str, sorted(ids))) + "\n        ]"


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    missing = keys - obj.keys()
    if missing:
        raise ScheduleStructureError(f"{where}: missing field(s) {sorted(missing)}")
    extra = obj.keys() - keys
    if extra:
        raise ScheduleStructureError(f"{where}: unexpected field(s) {sorted(extra)}")


def _id_list(raw, where: str) -> list[int]:
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


_TABLE_KEYS = {"suppliers", "customers"}


def _checked_table(raw_table, where: str, inst: Instance) -> TableSeating:
    """Every check on one table, in order; the first that fails raises its error."""
    if not isinstance(raw_table, dict):
        raise ScheduleStructureError(f"{where} must be an object")
    _require_keys(raw_table, _TABLE_KEYS, where)
    sups = _id_list(raw_table["suppliers"], where)
    custs = _id_list(raw_table["customers"], where)
    if not sups and not custs:
        raise ScheduleStructureError(f"{where} is completely empty")
    for i in sups:
        if not 1 <= i <= inst.s:
            raise ScheduleRangeError(f"{where}: supplier id {i} not in 1..{inst.s}")
    for k in custs:
        if not 1 <= k <= inst.c:
            raise ScheduleRangeError(f"{where}: customer id {k} not in 1..{inst.c}")
    return TableSeating.of(sups, custs)


def decode_schedule(text: str) -> Schedule:
    """Parse the canonical JSON format back into a Schedule.

    Raises ScheduleSyntaxError for bad JSON (nesting too deep and integers
    too long to convert included), ScheduleStructureError for
    missing/extra/ill-typed fields, ScheduleRangeError for out-of-range ids.
    """
    try:
        obj = json.loads(text)
    except RecursionError as e:
        raise ScheduleSyntaxError(f"JSON nested too deeply: {e}") from e
    except ValueError as e:  # JSONDecodeError, or an integer past the digit limit
        raise ScheduleSyntaxError(f"not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ScheduleStructureError("top level must be a JSON object")
    _require_keys(obj, {"instance", "dinners"}, "top level")
    raw_inst = obj["instance"]
    if not isinstance(raw_inst, dict):
        raise ScheduleStructureError("instance must be an object")
    _require_keys(raw_inst, {"t", "s", "c", "sigma", "gamma"}, "instance")
    for name, v in raw_inst.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ScheduleStructureError(f"instance.{name} must be a positive integer, got {v!r}")
    inst = Instance(**raw_inst)
    s, c = inst.s, inst.c

    raw_dinners = obj["dinners"]
    if not isinstance(raw_dinners, list):
        raise ScheduleStructureError("dinners must be an array")
    dinners = []
    for d in range(1, len(raw_dinners) + 1):
        # Each dinner's parsed JSON is let go once read, so the whole file and
        # the whole schedule are never held at once, nor scanned by the
        # cyclic garbage collector.
        raw_dinner, raw_dinners[d - 1] = raw_dinners[d - 1], None
        if not isinstance(raw_dinner, list):
            raise ScheduleStructureError(f"dinner {d} must be an array of tables")
        tables = []
        for raw_table in raw_dinner:
            # One pass accepts a well-formed table: json.loads makes no
            # subclasses, so the type tests match _checked_table's, and the
            # frozensets' lengths find duplicates.  Any other table goes
            # through _checked_table, which raises the first check it fails.
            if type(raw_table) is dict and raw_table.keys() == _TABLE_KEYS:
                sups, custs = raw_table["suppliers"], raw_table["customers"]
                if type(sups) is list and type(custs) is list:
                    for v in sups:
                        if type(v) is not int or not 0 < v <= s:
                            break
                    else:
                        for v in custs:
                            if type(v) is not int or not 0 < v <= c:
                                break
                        else:
                            sup_set, cust_set = frozenset(sups), frozenset(custs)
                            if len(sup_set) == len(sups) and len(cust_set) == len(custs) and (sups or custs):
                                tables.append(TableSeating(sup_set, cust_set))
                                continue
            tables.append(_checked_table(raw_table, f"dinner {d} table {len(tables) + 1}", inst))
        dinners.append(Dinner(tuple(tables)))
    return Schedule(inst, tuple(dinners))
