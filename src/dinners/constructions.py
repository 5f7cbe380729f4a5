"""Constructive schedule builders for the special cases with proven optima.

Routes: one-group instances (all customers fit one table), single-supplier
tables (sigma = 1, via equitable edge coloring), the two-suppliers-per-table
layer backed by Howell designs and four embedded exceptional templates, the
half-table regime (t = ceil(s/2) with many customer groups), and the prime
square construction for one table and one customer per table.

Every edge coloring here is of a complete bipartite graph.  In the
half-table regime the first dinners seat every supplier pair once, and the
single-supplier visits the groups still owe are not complete; runs of groups
whose owed suppliers are disjoint and together cover every supplier are
merged into one right vertex first (_complete_singles).
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources

from . import bounds
from .coloring import equitable_bipartite_coloring
from .howell import DEFAULT_NODE_BUDGET, NONEXISTENT_EXCEPTIONS, generate_howell
from .model import Dinner, Instance, Schedule, TableSeating, decode_schedule, group_customers


class ConstructionError(ValueError):
    """The instance does not satisfy the construction's preconditions."""


@dataclass(frozen=True)
class ScheduleTemplate:
    """Supplier sets per (dinner, customer-group) cell; empty cell = no table."""

    suppliers: int
    groups: int
    rows: tuple[tuple[frozenset[int], ...], ...]


_TEMPLATE_FILES = {
    "S4C3": "template_s4_g3.json",
    "S6C5": "template_s6_g5.json",
    "S8C5": "template_s8_g5.json",
    "S4C2": "template_s4_g2.json",
}


def exceptional_schedule(key: str) -> ScheduleTemplate:
    """Load one of the four embedded optimal templates by key."""
    try:
        fname = _TEMPLATE_FILES[key]
    except KeyError:
        raise ConstructionError(f"unknown template key {key!r}; choose from {sorted(_TEMPLATE_FILES)}")
    raw = json.loads(resources.files("dinners.fixtures").joinpath(fname).read_text())
    rows = tuple(tuple(frozenset(cell) for cell in row) for row in raw["rows"])
    return ScheduleTemplate(suppliers=raw["suppliers"], groups=raw["groups"], rows=rows)


def load_example_schedule() -> Schedule:
    """The embedded 6-dinner example schedule for (t=2, s=5, c=6, sigma=2, gamma=3)."""
    text = resources.files("dinners.fixtures").joinpath("example_schedule_t2_s5_c6.json").read_text()
    return decode_schedule(text)


def _grid_dinners(rows: list[list[frozenset[int]]], groups: Sequence[frozenset[int]]) -> list[Dinner]:
    """One dinner per row of supplier sets indexed by group; empty cells seat no table."""
    return [
        Dinner.of(TableSeating(cell, groups[j]) for j, cell in enumerate(row) if cell)
        for row in rows
    ]


def build_trivial(inst: Instance) -> Schedule:
    """All customers at one table; ceil(s/sigma) dinners of one supplier block each."""
    if inst.c > inst.gamma:
        raise ConstructionError("trivial construction needs c <= gamma")
    customers = frozenset(range(1, inst.c + 1))
    dinners = []
    for lo in range(1, inst.s + 1, inst.sigma):
        sups = frozenset(range(lo, min(lo + inst.sigma, inst.s + 1)))
        dinners.append(Dinner.of([TableSeating(sups, customers)]))
    return Schedule.of(inst, dinners)


def _complete_singles(
    owners: list[dict[int, frozenset[int]]], s: int, k: int
) -> list[list[TableSeating]]:
    """Single-supplier tables for right vertices that each still meet all of 1..s.

    owners[j][x] is the customer group that meets supplier x through vertex j.
    One vertex may merge several groups whose owed suppliers are disjoint and
    together cover 1..s.  Coloring K_{s,len(owners)} with k classes, suppliers
    on the left, and sending each edge (x, j) to owners[j][x] keeps the
    coloring proper (a color appears once at the merged vertex, so at most
    one of its groups, once) and keeps the class sizes.
    """
    return [
        [TableSeating(frozenset({x}), owners[j - 1][x]) for x, j in cls]
        for cls in equitable_bipartite_coloring(s, len(owners), k)
    ]


def singleton_dinners(
    s: int, grouping_slice: Sequence[frozenset[int]], tables: int, k: int
) -> list[Dinner]:
    """Dinners where every table holds one supplier and one customer group.

    Colors the complete bipartite meeting graph between suppliers 1..s and
    the groups with k classes; equitability keeps every class within the
    table count.
    """
    owners = [dict.fromkeys(range(1, s + 1), group) for group in grouping_slice]
    classes = _complete_singles(owners, s, k)
    assert max(map(len, classes)) <= tables
    return [Dinner.of(cls) for cls in classes if cls]


def sigma1_dinner_count(inst: Instance) -> int:
    """Closed-form optimum for sigma = 1: max(s, cg, ceil(s*cg/t))."""
    cg = inst.customer_groups
    return max(inst.s, cg, bounds.ceil_div(inst.s * cg, inst.t))


def build_sigma1(inst: Instance) -> Schedule:
    """Optimal schedule for sigma = 1: sigma1_dinner_count dinners."""
    if inst.sigma != 1:
        raise ConstructionError("build_sigma1 needs sigma == 1")
    groups = group_customers(inst.c, inst.gamma)
    dinners = singleton_dinners(inst.s, groups, inst.t, sigma1_dinner_count(inst))
    return Schedule.of(inst, dinners)


def _strip_rows(rows, s: int, cols: int) -> list[list[frozenset[int]]]:
    """The first cols cells of every row, as sets without the fictitious
    padding suppliers (ids above s); a cell may be None or empty."""
    return [[frozenset(x for x in cell or () if x <= s) for cell in row[:cols]] for row in rows]


def _howell_rows(cg: int, s: int, node_budget: int) -> list[list[frozenset[int]]]:
    """Supplier pairs per (dinner, customer group) seating cg groups with
    suppliers 1..s in max(cg, ceil(s/2)) dinners (3 for the two exceptional
    shapes with cg = 2).  Needs cg <= s and (cg, s) != (2, 2).

    The suppliers are padded to 2n = bounds.sigma2_symbols(cg, s) and the
    rows are the first cg columns of an H(max(cg, n), 2n), or of the embedded
    template where that design does not exist; the padding is stripped from
    the cells.
    """
    if cg == 1:
        # One group: seat it with supplier pairs, ceil(s/2) dinners.
        return [[frozenset(range(lo, min(lo + 2, s + 1)))] for lo in range(1, s + 1, 2)]
    n2 = bounds.sigma2_symbols(cg, s)
    if (cg, n2) in NONEXISTENT_EXCEPTIONS:
        return _strip_rows(exceptional_schedule(f"S{n2}C{cg}").rows, s, cg)
    design = generate_howell(max(cg, n2 // 2), n2, node_budget)
    assert design is not None
    return _strip_rows(design.cells, s, cg)


def build_howell_schedule(inst: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> Schedule:
    """Two-suppliers-per-table layer: max(cg, ceil(s/2)) dinners (3 for the
    two exceptional shapes with cg = 2).

    Requires sigma == 2, s*gamma > c, and bounds.sigma2_base_tables(cg, s)
    tables: the width of the padded Howell array, or of the template that
    stands in for a missing design.
    """
    if inst.sigma != 2:
        raise ConstructionError("build_howell_schedule needs sigma == 2")
    if inst.s * inst.gamma <= inst.c:
        raise ConstructionError("build_howell_schedule needs s > c/gamma")
    cg, s = inst.customer_groups, inst.s
    need_t = bounds.sigma2_base_tables(cg, s)
    if inst.t < need_t:
        raise ConstructionError(
            f"shape (cg={cg}, s={s}) needs at least {need_t} tables, instance has {inst.t}"
        )
    groups = group_customers(inst.c, inst.gamma)
    if (cg, s) == (2, 2):
        # No 2-dinner pairing exists; single-supplier tables reach 2 dinners.
        return Schedule.of(inst, singleton_dinners(2, groups, inst.t, 2))
    sched = Schedule.of(inst, _grid_dinners(_howell_rows(cg, s, node_budget), groups))
    assert sched.dinner_count() == bounds.sigma2_base_dinners(cg, s)
    return sched


# First dinners of the half-table regime for s = 3..6, whose Howell rows would
# need an H(3,4) or H(5,6): one string per dinner, one word per customer group
# naming the suppliers at its table ("-" for none).  Each row seats at most
# ceil(s/2) tables, every supplier pair sits together once, a column seats
# each supplier at most once, and the suppliers the columns still owe close
# on 1..s run by run.
_HALF_TABLE_GRIDS = {
    3: ("1 23 - -", "2 - 13 -", "3 - - 12"),
    4: ("14 23 - - - -", "- - 24 13 - -", "- - - - 34 12"),
    5: ("1 - 25 - - 34 -", "2 - 13 - - - 45", "3 - - 24 - 15 -", "4 - - 35 - - 12",
        "5 14 - - 23 - -"),
    6: ("16 25 34 - - -", "45 13 26 - - -", "- - 15 36 24 -", "- 46 - - 35 12",
        "23 - - 14 - 56"),
}


def _half_table_rows(s: int, node_budget: int) -> list[list[frozenset[int]]]:
    """Supplier sets per (dinner, customer group) seating every pair of 1..s
    once: a stored grid for s = 3..6, else the Howell rows of the first
    s - 1 (even s) or s (odd s) groups, which owe no supplier."""
    if s in _HALF_TABLE_GRIDS:
        grid = _HALF_TABLE_GRIDS[s]
        return [[frozenset(map(int, cell.strip("-"))) for cell in row.split()] for row in grid]
    return _howell_rows(s - 1 + s % 2, s, node_budget)


def cas_par_dinner_count(inst: Instance) -> int:
    """Closed-form optimum for the half-table regime."""
    cg, s, t = inst.customer_groups, inst.s, inst.t
    if s % 2 == 0:
        return 2 * cg - s + 1
    return s + bounds.ceil_div(s * (cg - s), t)


def build_cas_par(inst: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> Schedule:
    """Half-table regime: sigma=2, t=ceil(s/2), cg >= 3s/2.

    Even s gives 2*cg - s + 1 dinners; odd s gives s + ceil(s*(cg-s)/t).
    The first dinners seat every supplier pair once (_half_table_rows).  Each
    of their columns still owes the suppliers it does not seat; column by
    column these close on 1..s in runs, and each run merges into one complete
    vertex.  With every later group as one more, one coloring with
    k = max(s, v, ceil(s*v/t)) classes seats the v vertices' single-supplier
    tables.
    """
    cg, s, t = inst.customer_groups, inst.s, inst.t
    if inst.sigma != 2:
        raise ConstructionError("build_cas_par needs sigma == 2")
    if s < 2:
        raise ConstructionError("build_cas_par needs s >= 2")
    if t != bounds.ceil_div(s, 2):
        raise ConstructionError("build_cas_par needs t == ceil(s/2)")
    if 2 * cg < 3 * s:
        raise ConstructionError("build_cas_par needs ceil(c/gamma) >= 3s/2")
    groups = group_customers(inst.c, inst.gamma)
    rows = _half_table_rows(s, node_budget)
    width = len(rows[0])
    owners: list[dict[int, frozenset[int]]] = []
    run: dict[int, frozenset[int]] = {}
    for j in range(width):
        owed = set(range(1, s + 1)).difference(*(row[j] for row in rows))
        run.update(dict.fromkeys(owed, groups[j]))
        if len(run) == s:
            owners.append(run)
            run = {}
    assert not run, f"suppliers {sorted(run)} are still owed after the last run"
    owners += [dict.fromkeys(range(1, s + 1), group) for group in groups[width:]]
    k = max(s, len(owners), bounds.ceil_div(s * len(owners), t))
    dinners = _grid_dinners(rows, groups)
    dinners.extend(Dinner.of(tables) for tables in _complete_singles(owners, s, k))
    sched = Schedule.of(inst, dinners)
    assert sched.dinner_count() == cas_par_dinner_count(inst)
    return sched


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, math.isqrt(p) + 1):
        if p % d == 0:
            return False
    return True


def build_prime(inst: Instance) -> Schedule:
    """Prime-square construction: t = gamma = 1, s = p^2, c <= p <= sigma.

    Customer k dines p times; dinner i of its block seats the suppliers
    {(j + p*(k*j - j - k + i)) mod p^2 : j = 1..p} (residue 0 mapped to p^2).
    All p^2 suppliers appear once per block and no supplier pair repeats, so
    the pc dinners are feasible.
    """
    if inst.t != 1 or inst.gamma != 1:
        raise ConstructionError("build_prime needs t == 1 and gamma == 1")
    p = math.isqrt(inst.s)
    if p * p != inst.s or not _is_prime(p):
        raise ConstructionError("build_prime needs s to be the square of a prime")
    if not inst.c <= p <= inst.sigma:
        raise ConstructionError("build_prime needs c <= p <= sigma")
    dinners = []
    for k in range(1, inst.c + 1):
        for i in range(1, p + 1):
            sups = frozenset(
                (j + p * (k * j - j - k + i) - 1) % (p * p) + 1 for j in range(1, p + 1)
            )
            assert len(sups) == p
            dinners.append(Dinner.of([TableSeating(sups, frozenset({k}))]))
    return Schedule.of(inst, dinners)

