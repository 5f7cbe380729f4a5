"""Schedule rewrites, the generic feasible-schedule pipelines and the routes.

The rewrites turn a feasible schedule for one parameter set into one for
another (fewer tables, smaller supplier cap, grouped customers, merged
supplier pools); the pipelines compose them with the special-case builders to
produce witness schedules matching the closed-form upper bounds.  ROUTES
lists the paper's special cases and then the pipelines that build every
instance, and the CLI's build strategies name its entries.  ROUTE_COUNTS
gives each route a dinner count it never builds fewer than, worked out
without building: exact for trivial, sigma1, prime, howell, caspar and eucli
(eucli_dinner_count, which the paper's bounds.ub_eucli lies above), and
bounds.optimum_floor for ub1, whose count depends on the Howell design and
its fallback.  best_feasible builds the routes in count order and stops
once no route left can beat the kept schedule, so a route whose count
cannot win is not built.  A schedule is optimal when its dinner count equals
bounds.optimum_floor, whichever route built it.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass

from . import bounds
from .constructions import (
    ConstructionError,
    _grid_dinners,
    _strip_rows,
    build_cas_par,
    build_howell_schedule,
    build_prime,
    build_sigma1,
    build_trivial,
    cas_par_dinner_count,
    sigma1_dinner_count,
    singleton_dinners,
)
from .howell import DEFAULT_NODE_BUDGET, SearchBudgetExceeded, _check_budget
from .model import (
    Dinner,
    Instance,
    Schedule,
    TableSeating,
    group_customers,
)


def split_tables(sched: Schedule, t1: int) -> Schedule:
    """Rewrite for a smaller table count: chop every dinner into ceil(w/t1)
    dinners of at most t1 consecutive tables each."""
    if t1 < 1:
        raise ValueError("t1 must be positive")
    dinners = []
    for dinner in sched.dinners:
        tables = list(dinner.tables)
        for i in range(0, len(tables), t1):
            dinners.append(Dinner.of(tables[i : i + t1]))
    return Schedule.of(dataclasses.replace(sched.instance, t=t1), dinners)


def split_sigma(sched: Schedule, sigma1: int) -> Schedule:
    """Rewrite for a smaller supplier cap: dinner copy g keeps each table's
    g-th chunk of at most sigma1 suppliers (chunks in ascending id order)."""
    if sigma1 < 1:
        raise ValueError("sigma1 must be positive")
    copies = bounds.ceil_div(sched.instance.sigma, sigma1)
    if copies == 1:  # every table fits the new cap as it is
        return Schedule.of(dataclasses.replace(sched.instance, sigma=sigma1), sched.dinners)
    dinners = []
    for dinner in sched.dinners:
        for g in range(copies):
            tables = []
            for table in dinner.tables:
                chunk = sorted(table.suppliers)[g * sigma1 : (g + 1) * sigma1]
                if chunk:
                    tables.append(TableSeating(frozenset(chunk), table.customers))
            if tables:
                dinners.append(Dinner.of(tables))
    return Schedule.of(dataclasses.replace(sched.instance, sigma=sigma1), dinners)


@dataclass(frozen=True)
class GammaGrouping:
    """Customer-grouping rewrite: a derived instance over super-customers plus
    the expansion back to real customers."""

    original: Instance
    derived: Instance
    grouping: tuple[frozenset[int], ...]

    def expand(self, sched: Schedule) -> Schedule:
        if sched.instance != self.derived:
            raise ValueError("schedule does not match the derived instance")
        dinners = []
        for dinner in sched.dinners:
            tables = []
            for table in dinner.tables:
                members: set[int] = set()
                for j in table.customers:
                    members.update(self.grouping[j - 1])
                tables.append(TableSeating(table.suppliers, frozenset(members)))
            dinners.append(Dinner.of(tables))
        return Schedule.of(self.original, dinners)


def group_gamma(inst: Instance, gamma1: int) -> GammaGrouping:
    """Treat blocks of at most gamma1 customers as single super-customers.

    The derived instance allows floor(gamma/gamma1) super-customers per table
    so that expansion never exceeds the original per-table cap.
    """
    if gamma1 > inst.gamma:
        raise ValueError("gamma1 must not exceed the instance gamma")
    if gamma1 < 1:
        raise ValueError("gamma1 must be positive")
    derived = dataclasses.replace(
        inst,
        c=bounds.ceil_div(inst.c, gamma1),
        gamma=inst.gamma // gamma1,
    )
    return GammaGrouping(inst, derived, group_customers(inst.c, gamma1))


def concat_suppliers(first: Schedule, second: Schedule) -> Schedule:
    """Merge schedules over disjoint supplier pools; the second pool's ids are
    shifted up by the first pool's size."""
    a, b = first.instance, second.instance
    if (a.t, a.c, a.sigma, a.gamma) != (b.t, b.c, b.sigma, b.gamma):
        raise ValueError("shared parameters (t, c, sigma, gamma) must match")
    shift = a.s
    dinners = list(first.dinners)
    for dinner in second.dinners:
        dinners.append(
            Dinner.of(
                TableSeating(frozenset(x + shift for x in table.suppliers), table.customers)
                for table in dinner.tables
            )
        )
    return Schedule.of(dataclasses.replace(a, s=a.s + b.s), dinners)


# One pair table per dinner for the two three-dinner shapes at t = 1, as
# (group 1, group 2) rows: with cg = 2 and s in {3, 4} the 3-dinner base needs
# two tables, but giving each group its own pair matching in separate dinners
# costs 2*ceil(s/2) = 4, which is what ub1 promises there.
_PAIR_MATCHINGS = ([{1, 2}, ()], [{3, 4}, ()], [(), {1, 3}], [(), {2, 4}])


def build_ub1(inst: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> Schedule:
    """Witness pipeline for ub1: two-supplier base on min(cg, s) tables, then
    supplier-cap and table splitting down to the real instance.

    If the Howell search exhausts its budget the base falls back to
    single-supplier tables; the result stays feasible but may exceed ub1.
    """
    cg = inst.customer_groups
    t2 = min(cg, inst.s)
    if inst.s * inst.gamma <= inst.c:
        base = build_sigma1(Instance(t2, inst.s, inst.c, 1, inst.gamma))
    elif (cg, inst.s) in bounds.SIGMA2_THREE_DINNER_PAIRS and inst.t == 1:
        groups = group_customers(inst.c, inst.gamma)
        base = Schedule.of(Instance(1, inst.s, inst.c, 2, inst.gamma),
                           _grid_dinners(_strip_rows(_PAIR_MATCHINGS, inst.s, 2), groups))
    else:
        try:
            base = build_howell_schedule(Instance(t2, inst.s, inst.c, 2, inst.gamma), node_budget)
        except SearchBudgetExceeded:
            base = build_sigma1(Instance(t2, inst.s, inst.c, 1, inst.gamma))
    return split_tables(split_sigma(base, inst.sigma), inst.t)


def build_ub2(inst: Instance) -> Schedule:
    """Witness pipeline for ub2 (needs ceil(s/sigma) <= ceil(c/gamma)).

    The first ceil(s/sigma) customer groups each sit once with a full block
    of sigma suppliers and then collect the other blocks one supplier at a
    time in a rotating pattern; remaining groups use single-supplier tables.
    Built on ceil(s/sigma) tables, then split down to t.
    """
    cg = inst.customer_groups
    sigma = inst.sigma
    t_blocks = bounds.ceil_div(inst.s, sigma)
    if t_blocks > cg:
        raise ConstructionError("build_ub2 needs ceil(s/sigma) <= ceil(c/gamma)")
    groups = group_customers(inst.c, inst.gamma)
    # Block g holds suppliers g*sigma+1 .. (g+1)*sigma, cut off at s; a
    # rotation row seats member m of a block, or no one past the cut.
    blocks = [range(g * sigma + 1, min(g * sigma + sigma, inst.s) + 1) for g in range(t_blocks)]
    rows = [[frozenset(b) for b in blocks]] + [
        [frozenset(blocks[(g + d) % t_blocks][m : m + 1]) for g in range(t_blocks)]
        for d in range(1, t_blocks) for m in range(sigma)]
    dinners = _grid_dinners([row for row in rows if any(row)], groups)
    rest = groups[t_blocks:]
    if rest:
        k2 = sigma * max(t_blocks, cg - t_blocks)
        dinners.extend(singleton_dinners(inst.s, rest, t_blocks, k2))
    staged = Schedule.of(dataclasses.replace(inst, t=t_blocks), dinners)
    return split_tables(staged, inst.t)


def build_eucli(inst: Instance) -> Schedule:
    """Witness pipeline for the Euclidean-division bound: chop suppliers into
    blocks of at most sigma*cg, run the ub2 pipeline per block, concatenate."""
    cg = inst.customer_groups
    chunk = inst.sigma * cg
    combined: Schedule | None = None
    for lo in range(1, inst.s + 1, chunk):
        size = min(chunk, inst.s - lo + 1)
        part = build_ub2(dataclasses.replace(inst, s=size))
        combined = part if combined is None else concat_suppliers(combined, part)
    assert combined is not None
    return combined


def eucli_dinner_count(inst: Instance) -> int:
    """The dinner count build_eucli builds, in closed form.

    Per supplier block of z, build_ub2 stages dinners on b = ceil(z/sigma)
    tables: one of the b supplier blocks, then (b-1)*sigma rotation rows, of
    b tables for the r members of the last block and b - 1 for the rest; the
    g = cg - b other groups take k = sigma*max(b, g) equitable colour classes
    of the z*g single-supplier tables, (q, e) = divmod(z*g, k) giving e of size
    q + 1 and k - e of size q.  Splitting to t tables turns a staged dinner of
    w tables into ceil(w/t).  The paper's bounds.ub_eucli lies above this
    count on every instance compared.
    """
    cg, sigma, t = inst.customer_groups, inst.sigma, inst.t

    def block(z: int) -> int:
        b = bounds.ceil_div(z, sigma)
        r, g = z - (b - 1) * sigma, cg - b
        total = bounds.ceil_div(b, t) + (b - 1) * (
            r * bounds.ceil_div(b, t) + (sigma - r) * bounds.ceil_div(b - 1, t))
        if g:
            k = sigma * max(b, g)
            q, e = divmod(z * g, k)
            total += e * bounds.ceil_div(q + 1, t) + (k - e) * bounds.ceil_div(q, t)
        return total

    full, rest = divmod(inst.s, sigma * cg)
    return full * block(sigma * cg) + (block(rest) if rest else 0)


# Each route is build(inst, node_budget); best_feasible breaks ties between
# equal dinner counts in this order.  A special case raises ConstructionError
# when the instance fails its preconditions; TOTAL_ROUTES build every
# instance.  Entries look builders up by module-level name at call time, so
# replacing a module attribute (to trace or stub it) reaches them.  build_ub2
# is no route of its own: where it applies, ceil(s/sigma) <= cg, build_eucli
# has a single block and returns build_ub2(inst).
ROUTES: dict[str, Callable[[Instance, int], Schedule]] = {
    "trivial": lambda inst, b: build_trivial(inst),
    "sigma1": lambda inst, b: build_sigma1(inst),
    "prime": lambda inst, b: build_prime(inst),
    "howell": lambda inst, b: build_howell_schedule(inst, b),
    "caspar": lambda inst, b: build_cas_par(inst, b),
    "eucli": lambda inst, b: build_eucli(inst),
    "ub1": lambda inst, b: build_ub1(inst, b),
}
TOTAL_ROUTES = frozenset({"eucli", "ub1"})

# Per ROUTES entry, in the same order, the route's count where its
# preconditions hold; ub1's is 0, which route_counts raises to the floor.
ROUTE_COUNTS: dict[str, Callable[[Instance], int]] = {
    "trivial": bounds.lb1,
    "sigma1": sigma1_dinner_count,
    "prime": lambda inst: inst.c * math.isqrt(inst.s),
    "howell": lambda inst: bounds.sigma2_base_dinners(inst.customer_groups, inst.s),
    "caspar": cas_par_dinner_count,
    "eucli": eucli_dinner_count,
    "ub1": lambda inst: 0,
}


def route_counts(inst: Instance) -> dict[str, int]:
    """ROUTE_COUNTS at inst, each raised to bounds.optimum_floor, which no
    schedule beats."""
    floor = bounds.optimum_floor(inst)
    return {name: max(floor, count(inst)) for name, count in ROUTE_COUNTS.items()}


def best_feasible(inst: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[Schedule, int]:
    """Fewest-dinner schedule over ROUTES and its dinner count.

    Ties go to the earlier route in ROUTES.  The routes are built in
    (route_counts, ROUTES order) order, and the walk stops at the first one
    whose count cannot beat the kept schedule or can only tie it from a
    later route: no route builds fewer dinners than its count, so the result
    is the one building every route would give.  A special case whose
    preconditions fail or whose Howell search runs out is skipped; an error
    from a total route is a fault and propagates, but only where that route
    is built.  node_budget must be a positive int, as generate_howell
    requires, whether or not a Howell route is built.
    """
    _check_budget(node_budget)
    best: Schedule | None = None
    best_key = (math.inf, len(ROUTES))  # best's dinner count and rank in ROUTES
    walk = sorted((count, rank, name) for rank, (name, count) in enumerate(route_counts(inst).items()))
    for count, rank, name in walk:
        if (count, rank) > best_key:
            break
        try:
            sched = ROUTES[name](inst, node_budget)
        except (ConstructionError, SearchBudgetExceeded):
            if name in TOTAL_ROUTES:
                raise
            continue
        if (sched.dinner_count(), rank) < best_key:
            best, best_key = sched, (sched.dinner_count(), rank)
    assert best is not None
    return best, best.dinner_count()
