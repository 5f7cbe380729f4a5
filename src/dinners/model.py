"""Core domain types for dinner schedules, plus validation and the JSON interchange format.

The problem: seat suppliers and customers at up to ``t`` tables per dinner so
that every (supplier, customer) pair shares a table exactly once over the whole
schedule, two suppliers share a table at most once, and each table holds at
most ``sigma`` suppliers and ``gamma`` customers.  All ids are 1-based.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
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


def group_customers(c: int, gamma: int) -> tuple[frozenset[int], ...]:
    """Split customers 1..c into ceil(c/gamma) contiguous blocks of size <= gamma.

    Group k (1-based) holds customers (k-1)*gamma+1 .. min(k*gamma, c); the
    deterministic blocking keeps every construction reproducible.
    """
    if c < 1 or gamma < 1:
        raise ValueError("c and gamma must be positive")
    groups = []
    for lo in range(1, c + 1, gamma):
        groups.append(frozenset(range(lo, min(lo + gamma, c + 1))))
    return tuple(groups)


def validate_schedule(sched: Schedule) -> ValidationReport:
    """Check every constraint and report all violations, not just the first.

    Checks: per-dinner table count, per-table caps, one table per person per
    dinner, every supplier-customer pair met exactly once, supplier pairs
    co-seated at most once, and id ranges.  People may skip dinners entirely.
    A first pass files each table under each of its suppliers; a second
    takes one supplier at a time and counts its meetings only when the union
    of its tables is smaller than their sizes added up.  So memory is a
    reference per supplier seat plus one supplier's meetings, and
    PairMissing is listed only up to its cap.
    """
    inst = sched.instance
    t, s, c, sigma, gamma = inst.t, inst.s, inst.c, inst.sigma, inst.gamma
    violations: list[tuple[str, str]] = []
    # seats[i]: the tables supplier i sits at, out-of-range ids included
    seats: defaultdict[int, list[TableSeating]] = defaultdict(list)

    for d, dinner in enumerate(sched.dinners, start=1):
        if len(dinner.tables) > t:
            violations.append((TABLE_COUNT_EXCEEDED, f"dinner {d} uses {len(dinner.tables)} tables > t={t}"))
        seen_sups: set[int] = set()
        seen_custs: set[int] = set()
        for x, table in enumerate(dinner.tables, start=1):
            sups, custs = table.suppliers, table.customers
            if len(sups) > sigma:
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
            filed: TableSeating | None = table
            for k in custs:
                if not 1 <= k <= c:
                    violations.append((ID_OUT_OF_RANGE, f"dinner {d} table {x}: customer {k} not in 1..{c}"))
                    filed = None
                if k in seen_custs:
                    violations.append((PERSON_AT_TWO_TABLES, f"dinner {d}: customer {k} sits at two tables"))
            seen_sups |= sups
            seen_custs |= custs
            # Meetings are counted for customers in range only, which are the
            # ones reported below; supplier pairs are counted for every id.
            if filed is None:
                filed = TableSeating(sups, frozenset(k for k in custs if 1 <= k <= c))
            for i in sups:
                seats[i].append(filed)

    # Pair violations go in (supplier, customer) order, supplier pairs after
    # them in (supplier, supplier) order.  Besides the suppliers who sit
    # somewhere, the walk takes 1..len(seats) + room: each supplier who sits
    # nowhere lists at least one PairMissing, so by then there is no room left.
    sup_pairs: list[tuple[str, str]] = []
    unlisted = s * c
    room = MAX_PAIRS_MISSING_LISTED
    for i in sorted(seats.keys() | range(1, min(s, len(seats) + room) + 1)):
        tables = seats.get(i, ())
        shared = [tab.suppliers for tab in tables if len(tab.suppliers) > 1]
        # i sits at each of these tables, so with no supplier pair repeated
        # their sizes add up to their union's plus len(shared) - 1.
        if len(shared) > 1 and sum(map(len, shared)) > len(frozenset().union(*shared)) + len(shared) - 1:
            for j, n in sorted(Counter(chain.from_iterable(shared)).items()):
                if n > 1 and j > i:
                    sup_pairs.append((SUPPLIER_PAIR_REPEATED, f"suppliers {i} and {j} share a table {n} times"))
        if not 1 <= i <= s:
            continue
        custs = [tab.customers for tab in tables]
        met = frozenset().union(*custs)
        unlisted -= len(met)
        again = {}
        if len(met) < sum(map(len, custs)):
            again = {k: n for k, n in Counter(chain.from_iterable(custs)).items() if n > 1}
        missing: list[int] = []
        if room and len(met) < c:
            # The first `room` customers i has not met are all at most room + len(met).
            top = min(c, room + len(met))
            missing = sorted(set(range(1, top + 1)).difference(met))[:room]
            room -= len(missing)
            unlisted -= len(missing)
        for k in sorted([*missing, *again]):
            if k in again:
                violations.append((PAIR_REPEATED, f"supplier {i} and customer {k} meet {again[k]} times"))
            else:
                violations.append((PAIR_MISSING, f"supplier {i} and customer {k} never meet"))
    violations += sup_pairs

    return ValidationReport(feasible=not violations and not unlisted, violations=tuple(violations),
                            unlisted_missing=unlisted)


def encode_schedule(sched: Schedule) -> str:
    """Serialize to the canonical JSON interchange format (sorted id arrays).

    The text is exactly ``json.dumps(obj, indent=2) + "\n"`` for
    {"instance": {"t", "s", "c", "sigma", "gamma"}, "dinners": [[{"suppliers":
    [...], "customers": [...]}, ...], ...]}: 2-space indent, one id per line.
    It is joined from strings here, because ``indent`` sends json.dumps to its
    pure-Python encoder.  Schedules repeat their customer groups and supplier
    blocks, so each distinct id set is written once per call and reused.
    """
    inst = sched.instance
    head = (f'{{\n  "instance": {{\n    "t": {inst.t},\n    "s": {inst.s},\n    "c": {inst.c},\n'
            f'    "sigma": {inst.sigma},\n    "gamma": {inst.gamma}\n  }},\n  "dinners": ')
    if not sched.dinners:
        return head + "[]\n}\n"
    array = functools.cache(_id_array)  # a fresh memo for this call
    dinners = []
    for dinner in sched.dinners:
        tables = [
            '{\n        "suppliers": ' + array(tab.suppliers)
            + ',\n        "customers": ' + array(tab.customers) + "\n      }"
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
