"""Core domain types for dinner schedules, plus validation and the JSON interchange format.

The problem: seat suppliers and customers at up to ``t`` tables per dinner so
that every (supplier, customer) pair shares a table exactly once over the whole
schedule, two suppliers share a table at most once, and each table holds at
most ``sigma`` suppliers and ``gamma`` customers.  All ids are 1-based.
"""

from __future__ import annotations

import json
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

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.suppliers)), tuple(sorted(self.customers)))


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
    feasible: bool
    violations: tuple[tuple[str, str], ...]

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
    """
    inst = sched.instance
    t, s, c, sigma, gamma = inst.t, inst.s, inst.c, inst.sigma, inst.gamma
    violations: list[tuple[str, str]] = []
    met = [0] * (s + 1)  # met[i]: bit k set once supplier i has met customer k
    met_again = [0] * (s + 1)  # the same, for customers met twice or more
    repeats: dict[tuple[int, int], int] = {}  # (i, k): meetings, for the pairs in met_again
    sup_pair_count: dict[tuple[int, int], int] = {}

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
            table_custs = 0
            for k in custs:
                if not 1 <= k <= c:
                    violations.append((ID_OUT_OF_RANGE, f"dinner {d} table {x}: customer {k} not in 1..{c}"))
                else:
                    table_custs |= 1 << k
                if k in seen_custs:
                    violations.append((PERSON_AT_TWO_TABLES, f"dinner {d}: customer {k} sits at two tables"))
            seen_sups.update(sups)
            seen_custs.update(custs)
            # Meetings are counted for ids in range only, which are the ones
            # reported below.
            for i in sups:
                if 1 <= i <= s:
                    again = met[i] & table_custs
                    met[i] |= table_custs
                    if again:
                        met_again[i] |= again
                        for k in _bit_positions(again):
                            repeats[i, k] = repeats.get((i, k), 1) + 1
            if len(sups) > 1:
                ordered = sorted(sups)
                for a in range(len(ordered)):
                    for b in range(a + 1, len(ordered)):
                        pair = (ordered[a], ordered[b])
                        sup_pair_count[pair] = sup_pair_count.get(pair, 0) + 1

    all_custs = (1 << c + 1) - 2
    for i in range(1, s + 1):
        missing = all_custs & ~met[i]
        for k in _bit_positions(missing | met_again[i]):
            n = repeats.get((i, k))
            if n is None:
                violations.append((PAIR_MISSING, f"supplier {i} and customer {k} never meet"))
            else:
                violations.append((PAIR_REPEATED, f"supplier {i} and customer {k} meet {n} times"))
    for (i, j), n in sorted(sup_pair_count.items()):
        if n > 1:
            violations.append((SUPPLIER_PAIR_REPEATED, f"suppliers {i} and {j} share a table {n} times"))

    return ValidationReport(feasible=not violations, violations=tuple(violations))


def _bit_positions(mask: int) -> list[int]:
    """The set bits of mask, lowest first, in time linear in its length."""
    return [k for k, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


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


def decode_schedule(text: str) -> Schedule:
    """Parse the canonical JSON format back into a Schedule.

    Raises ScheduleSyntaxError for bad JSON, ScheduleStructureError for
    missing/extra/ill-typed fields, ScheduleRangeError for out-of-range ids.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
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
            _require_keys(raw_table, {"suppliers", "customers"}, where)
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
            tables.append(TableSeating.of(sups, custs))
        dinners.append(Dinner.of(tables))
    return Schedule.of(inst, dinners)
