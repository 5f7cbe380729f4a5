"""Exact minimum-dinner solver: depth-limited searches over the dinner count.

Desk-scale oracle used to certify the constructions.  A level D is a
depth-first search, dinner by dinner and table by table, for a schedule in at
most D dinners.  Levels are climbed from the best lower bound, and the first
that holds a schedule is the optimum, every smaller count being refuted.  A
level cut by the budget ends the climb, since no level above it can raise the
proven bound.  The search then descends from the cap: each witness becomes
the answer and the next level is one below its count.  The descent stops at
a cut level, just above the first cut one (it would be cut again), or at a
refuted level D, which proves D + 1 dinners: Optimal when that is the
witness's count.

Incumbent: without an explicit max_dinners or a time budget, the pruned
search starts from transforms.best_feasible's schedule, whose Howell searches
get the level node budget each.  It is built only when ub_best * t <=
node_budget, so it holds no more tables than one level may stack; its Howell
searches are not bounded that way, and the build does not read the clock
(hence no incumbent under a time budget).  If it has u <= ub_best dinners, it
is the first witness and the cap is u - 1, so only levels below u are
searched; with none there it is returned at 0 nodes.  An explicit
max_dinners, or prune=False, caps the levels at max_dinners or ub_best,
without incumbent.

Symmetry reduction: tables of a dinner are listed in strictly increasing
canonical key order; the very first table is a prefix block {1..a} x {1..b}
(any schedule can be relabeled that way); from the third dinner on, the first
table keys rise strictly (dinners are interchangeable, so they can be assumed
sorted, and two equal first tables would repeat their meetings).  Tables
always carry at least one supplier and one customer, and only pairs that have
never met may share a table, both of which hold in some optimal schedule.

Ranked candidates: a table's canonical key (its supplier tuple, then its
customer tuple, in lex order) is encoded once per solve_exact call as an
integer whose order is the key order, so the ordering rules above are integer
comparisons.  The candidates of a table slot are walked in that order, lazily:
suppliers in preorder over the bitmask of those still allowed, then customers
over the mask they have all left to meet.  A prefix that fails (a member
seated, a supplier pair used, no common unmet customer, or no key above the
floor) is skipped with its subtree, since the conditions only tighten below
it.

Explicit stack: each table slot is a generator frame that places one
candidate, yields the frame of the next slot, and undoes the placement when
resumed.  howell.run_frames drives them, as it drives the Howell search, so
the search depth (one frame a table) is not limited by Python's recursion
limit.  A level that runs out of nodes or time raises SearchBudgetExceeded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from . import bounds, transforms
from .howell import SearchBudgetExceeded, _Found, run_frames
from .model import Dinner, Instance, Schedule, TableSeating, validate_schedule

OPTIMAL = "Optimal"
FEASIBLE_ONLY = "FeasibleOnly"
INFEASIBLE_AT_BOUND = "Infeasible_at_bound"
BUDGET_EXHAUSTED = "BudgetExhausted"

DEFAULT_SOLVE_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class SolveLimits:
    """Search limits: node_budget applies to each level, the time budget
    (None: no deadline) to the whole call, and max_dinners (None: ub_best,
    or below the incumbent; see the module docstring) is the highest level
    searched."""

    max_dinners: int | None = None
    node_budget: int = DEFAULT_SOLVE_NODE_BUDGET
    time_budget: float | None = None

    def __post_init__(self):
        n, d, tb = self.node_budget, self.max_dinners, self.time_budget
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"node_budget must be a positive integer, got {n!r}")
        if d is not None and (not isinstance(d, int) or isinstance(d, bool) or d < 0):
            raise ValueError(f"max_dinners must be None or an integer >= 0, got {d!r}")
        # not tb > 0 also refuses nan, a deadline the clock never passes; inf is allowed.
        if tb is not None and (not isinstance(tb, (int, float)) or isinstance(tb, bool)
                               or not tb > 0):
            raise ValueError(f"time_budget must be None or a number > 0, got {tb!r}")


@dataclass(frozen=True)
class SolveResult:
    status: str
    value: int | None
    witness: Schedule | None
    nodes: int
    lower_bound: int


class _Keys:
    """Canonical table keys as integers, fixed once per solve_exact call.

    A table's key lists its supplier ids, then its customer ids, each
    ascending, as fixed-width digits id+1, with 0 past the end of a tuple.
    So integer order is the tuple order (a tuple sorts before its
    extensions), the order in which the search meets the tables.
    """

    def __init__(self, inst: Instance):
        s, c = inst.s, inst.c
        self.sigma, self.gamma = min(inst.sigma, s), min(inst.gamma, c)
        self.all_s, self.all_c = (1 << s) - 1, (1 << c) - 1
        sw, cw = s.bit_length(), c.bit_length()
        self.cust_shift = [cw * (self.gamma - 1 - j) for j in range(self.gamma)]
        self.sup_shift = [cw * self.gamma + sw * (self.sigma - 1 - j) for j in range(self.sigma)]
        # Every key in the subtree below a member at depth j lies within
        # its *_low[j] bits of the member's own key.
        self.cust_low = [(1 << x) - 1 for x in self.cust_shift]
        self.sup_low = [(1 << x) - 1 for x in self.sup_shift]
        # First table of the first dinner: a prefix block {1..a} x {1..b},
        # since any schedule can be relabeled that way.
        self.prefix_block = []
        for a in range(1, self.sigma + 1):
            sups = tuple(range(a))
            tbits = sum(((1 << a) - 1 ^ 1 << i) << (i * s) for i in sups)
            for b in range(1, self.gamma + 1):
                custs = tuple(range(b))
                self.prefix_block.append((self.key(sups, custs), sups, (1 << a) - 1, tbits,
                                          custs, (1 << b) - 1))

    def key(self, sups: tuple[int, ...], custs: tuple[int, ...]) -> int:
        return (sum((i + 1) << x for i, x in zip(sups, self.sup_shift))
                + sum((k + 1) << x for k, x in zip(custs, self.cust_shift)))


class _Level:
    """One depth-limited search: is there a feasible schedule in <= D dinners?"""

    def __init__(self, inst: Instance, keys: _Keys, d_max: int, prune: bool,
                 node_cap: int, deadline: float | None):
        self.inst = inst
        self.keys = keys
        self.d_max = d_max
        self.prune = prune
        self.node_cap = node_cap
        self.deadline = deadline
        self.nodes = 0
        s, c = inst.s, inst.c
        self.met = [0] * s  # met[i]: customers already met by supplier i+1
        self.pairs = 0  # bit i*s+j: suppliers i+1 and j+1 have shared a table
        self.sup_deficit = [c] * s
        self.cust_deficit = [s] * c
        self.unmet = s * c
        self.pairs_free = s * (s - 1) // 2
        self.placed: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        self.witness: Schedule | None = None

    def _room_left(self, full_left: int, tables_left: int = 0,
                   used_s: int = 0, used_c: int = 0) -> bool:
        """Can the unmet pairs fit in tables_left more tables of the open
        dinner (used_s, used_c: whom it seats) and full_left dinners after it?

        The seat sums run only at a dinner boundary, tables_left == 0, the
        last placement of a full dinner included.  There they refuse what the
        next dinner's own test would (so _frame does not repeat it); run
        mid-dinner they would cut subtrees the search visits and change its
        node counts.
        """
        if not self.prune:
            return True
        inst = self.inst
        t, sigma, gamma = inst.t, inst.sigma, inst.gamma
        # Tables beyond one supplier consume never-reusable supplier pairs: a
        # table with e extra suppliers burns e*(e+1)/2 >= e pairs, so the
        # extra meeting capacity is capped by the free-pair count.
        slots = tables_left + full_left * t
        extra = min((sigma - 1) * slots, self.pairs_free)
        if self.unmet > gamma * (slots + extra):
            return False
        # A customer seated this dinner waits for later dinners; one still
        # free may take a table left in this one, and those needing it are
        # urgent.  At a boundary no table is left, so none may be urgent, and
        # every customer must still find ceil(deficit/sigma) tables in the
        # slots.  Likewise for suppliers.
        for deficits, used, cap, other in ((self.cust_deficit, used_c, sigma, gamma),
                                           (self.sup_deficit, used_s, gamma, sigma)):
            cap_later = full_left * cap
            if tables_left and max(deficits) <= cap_later:
                continue
            urgent = seats = 0
            for k, deficit in enumerate(deficits):
                if deficit > cap_later:
                    if used >> k & 1 or deficit > cap_later + cap:
                        return False
                    urgent += 1
                seats += -(-deficit // cap)
            if urgent > tables_left * other or (not tables_left and seats > slots * other):
                return False
        return True

    def _succeed(self) -> None:
        by_dinner: list[list[TableSeating]] = []
        for d, sups, custs in self.placed:
            if d == len(by_dinner):
                by_dinner.append([])
            by_dinner[d].append(TableSeating(frozenset(i + 1 for i in sups),
                                             frozenset(k + 1 for k in custs)))
        self.witness = Schedule.of(self.inst, (Dinner.of(tabs) for tabs in by_dinner))
        raise _Found

    def run(self) -> Schedule | None:
        if self._room_left(self.d_max) and run_frames(self._frame(0, 0, 0, 0, 0, 0)):
            return self.witness
        return None

    def _frame(self, d: int, n: int, lo: int, first: int, used_s: int, used_c: int):
        """Place table n+1 of dinner d+1 with a key above lo, in every way.

        first is the key of the dinner's first table (0 while n is 0).  A
        generator: it yields the frame of each child (first the next dinner,
        once this one has a table, then each placement) and undoes the
        placement when the driver resumes it.
        """
        inst = self.inst
        d_max = self.d_max
        if n:
            if not self.unmet:
                self._succeed()
            # A full dinner's last placement has run this test on this state.
            if d + 1 < d_max and (n == inst.t or self._room_left(d_max - d - 1)):
                # From the third dinner on, first tables rise strictly (equal
                # keys would repeat meetings), so dinners come sorted.
                yield self._frame(d + 1, 0, first if d else 0, 0, 0, 0)
            if n >= inst.t:
                return
        full_left = d_max - d - 1
        tables_left = inst.t - n - 1
        met, sup_def, cust_def, placed = self.met, self.sup_deficit, self.cust_deficit, self.placed
        unmet, pairs, pairs_free = self.unmet, self.pairs, self.pairs_free
        node_cap, deadline = self.node_cap, self.deadline
        if d == 0 and n == 0:
            tables = self.keys.prefix_block  # by the relabeling argument
        else:
            tables = self._tables(used_s, used_c, lo)
        for key, sups, smask, tbits, custs, cmask in tables:
            nodes = self.nodes + 1
            self.nodes = nodes
            if nodes > node_cap:
                raise SearchBudgetExceeded
            if deadline is not None and time.monotonic() > deadline:
                raise SearchBudgetExceeded
            nsup, ncust = len(sups), len(custs)
            for i in sups:
                met[i] |= cmask
                sup_def[i] -= ncust
            for k in custs:
                cust_def[k] -= nsup
            self.unmet = unmet - nsup * ncust
            self.pairs_free = pairs_free - nsup * (nsup - 1) // 2
            self.pairs = pairs | tbits
            placed.append((d, sups, custs))
            if self._room_left(full_left, tables_left, used_s | smask, used_c | cmask):
                yield self._frame(d, n + 1, key, first or key, used_s | smask, used_c | cmask)
            for i in sups:
                met[i] ^= cmask
                sup_def[i] += ncust
            for k in custs:
                cust_def[k] += nsup
            placed.pop()
        self.unmet, self.pairs, self.pairs_free = unmet, pairs, pairs_free

    def _tables(self, used_s: int, used_c: int, lo: int):
        """Candidate tables with keys above lo, in increasing key order.

        Only suppliers/customers free this dinner; all supplier pairs unused;
        every seated customer unmet with every seated supplier.  Both walks
        go in preorder over the set bits of the members still allowed, and a
        prefix that fails, or whose subtree holds no key above lo, is passed
        over with its subtree: the conditions only get stricter below it.
        """
        keys = self.keys
        s, sigma, gamma = self.inst.s, keys.sigma, keys.gamma
        sup_shift, sup_low, cust_shift, cust_low = (keys.sup_shift, keys.sup_low,
                                                    keys.cust_shift, keys.cust_low)
        met, pairs = self.met, self.pairs
        # Suppliers: rem holds those still to try at depth j; starts has bit
        # i*s set for each chosen i, and tbits the pairs among them.
        rem, skey, smask, starts, tbits, sups, common = (
            keys.all_s & ~used_s, 0, 0, 0, 0, (), keys.all_c & ~used_c)
        sup_stack = []
        j = 0
        while True:
            if not rem:
                if not sup_stack:
                    return
                rem, skey, smask, starts, tbits, sups, common = sup_stack.pop()
                j -= 1
                continue
            low = rem & -rem
            rem ^= low
            i = low.bit_length() - 1
            key = skey | (i + 1) << sup_shift[j]
            if key | sup_low[j] <= lo:
                continue
            cm = common & ~met[i]
            if not cm:
                continue
            nsmask, nsups = smask | low, sups + (i,)
            ntbits = tbits | smask << (i * s) | starts << i
            # Customers: the same walk over the common unmet ones.
            crem, ckey, cmask, custs = cm, key, 0, ()
            cust_stack = []
            jc = 0
            while True:
                if not crem:
                    if not cust_stack:
                        break
                    crem, ckey, cmask, custs = cust_stack.pop()
                    jc -= 1
                    continue
                clow = crem & -crem
                crem ^= clow
                k = clow.bit_length() - 1
                kkey = ckey | (k + 1) << cust_shift[jc]
                if kkey | cust_low[jc] <= lo:
                    continue
                kmask, kcusts = cmask | clow, custs + (k,)
                if kkey > lo:
                    yield kkey, nsups, nsmask, ntbits, kcusts, kmask
                if crem and jc + 1 < gamma:
                    cust_stack.append((crem, ckey, cmask, custs))
                    ckey, cmask, custs = kkey, kmask, kcusts
                    jc += 1
            if j + 1 < sigma:
                # Row i of the pair mask, read through rem's low s bits.
                nrem = rem & ~(pairs >> (i * s))
                if nrem:
                    sup_stack.append((rem, skey, smask, starts, tbits, sups, common))
                    rem, skey, smask, starts, tbits, sups, common = (
                        nrem, key, nsmask, starts | 1 << (i * s), ntbits, nsups, cm)
                    j += 1


def solve_exact(
    inst: Instance, limits: SolveLimits | None = None, prune: bool = True
) -> SolveResult:
    """Find the minimum dinner count: climb the levels, then descend from
    the cap after a cut one (see the module docstring).

    Returns Optimal with a witness whose count equals the proven lower
    bound (every smaller level refuted); FeasibleOnly with the smallest
    witness found when a cut level leaves a gap below it; Infeasible_at_bound
    when the levels up to the cap are refuted; BudgetExhausted otherwise.
    lower_bound rises past a refuted level only while no level below it
    was cut, or at the refuted level that ends a descent.  The witness may
    be the incumbent construction.  With prune=False the capacity pruning,
    the incumbent and the lower-bound start are disabled (slow; used to
    cross-check soundness).
    """
    limits = limits or SolveLimits()
    deadline = (
        time.monotonic() + limits.time_budget if limits.time_budget is not None else None
    )
    cap = limits.max_dinners if limits.max_dinners is not None else bounds.ub_best(inst)
    start = bounds.lb_best(inst) if prune else 1
    incumbent = None
    if (prune and limits.max_dinners is None and deadline is None
            and cap * inst.t <= limits.node_budget):
        sched, count = transforms.best_feasible(inst, node_budget=limits.node_budget)
        if count <= cap:
            incumbent, cap = sched, count - 1
    keys = _Keys(inst)
    nodes = 0
    # Levels bottom..top are still open; lower is the proven bound.
    lower, bottom, top, best = start, start, cap, incumbent
    climbing = True
    while bottom <= top:
        d_max = bottom if climbing else top
        level = _Level(inst, keys, d_max, prune, limits.node_budget, deadline)
        try:
            witness = level.run()
        except SearchBudgetExceeded:
            nodes += level.nodes
            if not climbing or (deadline is not None and time.monotonic() > deadline):
                break
            # A level above a cut one can no longer raise the bound, so
            # descend from the cap, stopping above d_max (it would be cut again).
            climbing, bottom = False, d_max + 1
            continue
        nodes += level.nodes
        if witness is None:  # no schedule in <= d_max dinners
            lower = bottom = d_max + 1
        else:
            best, top = witness, witness.dinner_count() - 1
    if best is not None:
        value = best.dinner_count()
        return SolveResult(OPTIMAL if value == lower else FEASIBLE_ONLY, value, best, nodes, lower)
    status = INFEASIBLE_AT_BOUND if lower > cap else BUDGET_EXHAUSTED
    return SolveResult(status, None, None, nodes, lower)


def certify_optimal(sched: Schedule, limits: SolveLimits | None = None) -> bool:
    """True when no schedule with fewer dinners exists (proven by search).

    Raises SearchBudgetExceeded if the refutation runs out of budget, so an
    inconclusive answer is never mistaken for a certificate.
    """
    report = validate_schedule(sched)
    if not report.feasible:
        raise ValueError("certify_optimal needs a feasible schedule")
    count = sched.dinner_count()
    limits = limits or SolveLimits()
    result = solve_exact(sched.instance, replace(limits, max_dinners=count - 1))
    if result.status == INFEASIBLE_AT_BOUND:
        return True
    if result.status in (OPTIMAL, FEASIBLE_ONLY):
        return False
    raise SearchBudgetExceeded("refutation budget exhausted before a proof")
