"""Constructive schedule builders for the special cases with proven optima.

Routes: one-group instances (all customers fit one table), single-supplier
tables (sigma = 1, via equitable edge coloring), the two-suppliers-per-table
layer backed by Howell designs and four embedded exceptional templates, the
half-table regime (t = ceil(s/2) with many customer groups), and the prime
square construction for one table and one customer per table.

Every edge coloring here is of a complete bipartite graph.  Where the
single-supplier visits still owed are not complete (the half-table regime
for s = 3, 4), groups whose owed suppliers are disjoint and together cover
every supplier are merged into one left vertex first (_complete_singles).
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


def singleton_dinners(
    s: int, grouping_slice: Sequence[frozenset[int]], tables: int, k: int
) -> list[Dinner]:
    """Dinners where every table holds one supplier and one customer group.

    Colors the complete bipartite meeting graph between suppliers 1..s and
    the groups with k classes; equitability keeps every class within the
    table count.
    """
    classes = equitable_bipartite_coloring(s, len(grouping_slice), k)
    assert max(len(cls) for cls in classes) <= tables
    dinners = []
    for cls in classes:
        if not cls:
            continue
        dinners.append(
            Dinner.of(
                TableSeating(frozenset({i}), grouping_slice[j - 1])
                for i, j in cls
            )
        )
    return dinners


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


def _cas_par_paper_route(inst: Instance, node_budget: int) -> Schedule:
    """Half-table regime via a Howell phase seating the first s-1 (even s) or
    s (odd s) groups, plus a single-supplier phase for the rest."""
    s, t = inst.s, inst.t
    groups = list(group_customers(inst.c, inst.gamma))
    lead = s - 1 + s % 2
    dinners = _grid_dinners(_howell_rows(lead, s, node_budget), groups)
    rest = groups[lead:]
    k2 = max(s, len(rest), bounds.ceil_div(s * len(rest), t))
    dinners.extend(singleton_dinners(s, rest, t, k2))
    return Schedule.of(inst, dinners)


def _complete_singles(
    owners: list[dict[int, frozenset[int]]], s: int, k: int
) -> list[list[TableSeating]]:
    """Single-supplier tables for left vertices that each still meet all of 1..s.

    owners[i][x] is the customer group that meets supplier x through vertex i.
    One vertex may merge several groups whose owed suppliers are disjoint and
    together cover 1..s.  Coloring K_{len(owners),s} with k classes and
    sending each edge (i, x) to owners[i][x] keeps the coloring proper (a
    color appears once at the merged vertex, so at most one of its groups,
    once) and keeps the class sizes.
    """
    return [
        [TableSeating(frozenset({x}), owners[i - 1][x]) for i, x in cls]
        for cls in equitable_bipartite_coloring(len(owners), s, k)
    ]


def _cas_par_s3(inst: Instance) -> Schedule:
    """Interleaved schedule for s=3, t=2 and q = cg - 3 >= 2 further groups.

    Three dinners seat each supplier pair beside one companion single.  The
    singles still owed are g0 {3}, g1 {2}, g2 {1}, hs0 {2}, hs1 {1,3} and
    all of every later group.  g0..g2 are disjoint and cover {1,2,3}, and so
    are hs0 and hs1, so each set merges into one complete left vertex:
    K_{q,3}, colored in ceil(3q/2) classes of at most 2 = t tables.
    """
    groups = list(group_customers(inst.c, inst.gamma))
    g, hs = groups[:3], groups[3:]
    dinners = [
        Dinner.of([TableSeating(frozenset({1, 2}), g[0]), TableSeating(frozenset({3}), hs[0])]),
        Dinner.of([TableSeating(frozenset({1, 3}), g[1]), TableSeating(frozenset({2}), hs[1])]),
        Dinner.of([TableSeating(frozenset({2, 3}), g[2]), TableSeating(frozenset({1}), hs[0])]),
    ]
    owners = [{3: g[0], 2: g[1], 1: g[2]}, {2: hs[0], 1: hs[1], 3: hs[1]}]
    owners += [dict.fromkeys((1, 2, 3), h) for h in hs[2:]]
    k = bounds.ceil_div(3 * len(hs), 2)
    dinners.extend(Dinner.of(tables) for tables in _complete_singles(owners, 3, k))
    return Schedule.of(inst, dinners)


def _cas_par_s4(inst: Instance) -> Schedule:
    """Interleaved schedule for s=4, t=2 and q = cg - 3 >= 3 further groups.

    Each supplier pair gets its own dinner beside one companion single.  The
    singles still owed are hs0 {2,4}, hs1 {3,4}, hs2 {1,2} and all of every
    later group.  hs1 and hs2 merge into one complete left vertex, so with
    hs[3:] they form K_{q-2,4}, colored in 2(q-2) classes of exactly two
    singles.  hs0's two singles then split the first class {a, b} into two
    dinners, each beside a supplier that table does not seat: 2q-3 dinners
    of leftovers.  q = 3 has no complete group and takes three fixed dinners.
    """
    groups = list(group_customers(inst.c, inst.gamma))
    g, hs = groups[:3], groups[3:]
    pair_plan = [
        ({1, 2}, 0, 0, 3),
        ({3, 4}, 0, 0, 1),
        ({1, 3}, 1, 1, 2),
        ({2, 4}, 1, 1, 1),
        ({1, 4}, 2, 2, 3),
        ({2, 3}, 2, 2, 4),
    ]
    dinners = [
        Dinner.of([TableSeating(frozenset(pair), g[gi]), TableSeating(frozenset({sup}), hs[hi])])
        for pair, gi, hi, sup in pair_plan
    ]

    def single(x: int, group: frozenset[int]) -> TableSeating:
        return TableSeating(frozenset({x}), group)

    if len(hs) == 3:
        rows = [
            [single(2, hs[0]), single(3, hs[1])],
            [single(4, hs[0]), single(1, hs[2])],
            [single(4, hs[1]), single(2, hs[2])],
        ]
    else:
        owners = [{3: hs[1], 4: hs[1], 1: hs[2], 2: hs[2]}]
        owners += [dict.fromkeys((1, 2, 3, 4), h) for h in hs[3:]]
        (a, b), *rest = _complete_singles(owners, 4, 2 * (len(hs) - 2))
        x, y = (4, 2) if 2 in a.suppliers or 4 in b.suppliers else (2, 4)
        rows = [[a, single(x, hs[0])], [b, single(y, hs[0])], *rest]
    dinners.extend(Dinner.of(tables) for tables in rows)
    return Schedule.of(inst, dinners)


def cas_par_dinner_count(inst: Instance) -> int:
    """Closed-form optimum for the half-table regime."""
    cg, s, t = inst.customer_groups, inst.s, inst.t
    if s % 2 == 0:
        return 2 * cg - s + 1
    return s + bounds.ceil_div(s * (cg - s), t)


def build_cas_par(inst: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> Schedule:
    """Half-table regime: sigma=2, t=ceil(s/2), cg >= 3s/2.

    Even s gives 2*cg - s + 1 dinners; odd s gives s + ceil(s*(cg-s)/t).
    Supplier counts 5 and 6 are rejected: the natural two-phase decomposition
    would need an H(5,6), which does not exist, and no replacement scheme
    with a matching dinner count is established here.
    """
    cg, s = inst.customer_groups, inst.s
    if inst.sigma != 2:
        raise ConstructionError("build_cas_par needs sigma == 2")
    if s < 2:
        raise ConstructionError("build_cas_par needs s >= 2")
    if inst.t != bounds.ceil_div(s, 2):
        raise ConstructionError("build_cas_par needs t == ceil(s/2)")
    if 2 * cg < 3 * s:
        raise ConstructionError("build_cas_par needs ceil(c/gamma) >= 3s/2")
    if s in (5, 6):
        raise ConstructionError("supplier counts 5 and 6 are not covered by this construction")
    if s == 3:
        sched = _cas_par_s3(inst)
    elif s == 4:
        sched = _cas_par_s4(inst)
    else:
        sched = _cas_par_paper_route(inst, node_budget)
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

