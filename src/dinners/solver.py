"""Exact minimum-dinner solver: iterative deepening over the dinner count.

Desk-scale oracle used to certify the constructions.  For each candidate
dinner count D (starting at the best lower bound) a depth-first search builds
dinners table by table; the first D admitting a feasible completion is the
optimum because every smaller count was exhausted first.

Symmetry reduction: tables of a dinner are listed in strictly increasing
canonical key order; the very first table is a prefix block {1..a} x {1..b}
(any schedule can be relabeled that way); from the third dinner on, the first
table keys must be non-decreasing (dinners are interchangeable, so they can
be assumed sorted).  Tables always carry at least one supplier and one
customer, and only pairs that have never met may share a table, both of which
hold in some optimal schedule.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from . import bounds
from .model import Dinner, Instance, Schedule, TableSeating

OPTIMAL = "Optimal"
FEASIBLE_ONLY = "FeasibleOnly"
INFEASIBLE_AT_BOUND = "Infeasible_at_bound"
BUDGET_EXHAUSTED = "BudgetExhausted"

ENV_NODE_BUDGET = "DINNER_NODE_BUDGET"
DEFAULT_SOLVE_NODE_BUDGET = 2_000_000


def default_node_budget() -> int:
    raw = os.environ.get(ENV_NODE_BUDGET)
    if raw is None:
        return DEFAULT_SOLVE_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0  # reported below, like any other value that is not positive
    if value < 1:
        raise ValueError(f"{ENV_NODE_BUDGET} must be a positive integer, got {raw!r}")
    return value


@dataclass(frozen=True)
class SolveLimits:
    """Search limits: node_budget applies to each deepening level, the time
    budget to the whole call."""

    max_dinners: int | None = None
    node_budget: int | None = None
    time_budget: float | None = None

    def resolved_node_budget(self) -> int | None:
        return self.node_budget if self.node_budget is not None else default_node_budget()


@dataclass(frozen=True)
class SolveResult:
    status: str
    value: int | None
    witness: Schedule | None
    nodes: int
    lower_bound: int


class _Budget(Exception):
    pass


class _Found(Exception):
    pass


class _Level:
    """One depth-limited search: is there a feasible schedule in <= D dinners?"""

    def __init__(self, inst: Instance, d_max: int, prune: bool,
                 node_cap: int | None, deadline: float | None, nodes_used: int):
        self.inst = inst
        self.d_max = d_max
        self.prune = prune
        self.node_cap = node_cap
        self.deadline = deadline
        self.nodes = nodes_used
        s, c = inst.s, inst.c
        self.all_c = (1 << c) - 1
        self.met = [0] * s  # met[i]: customers already met by supplier i+1
        self.pair_used = [0] * s  # pair_used[i]: suppliers co-seated with i+1
        self.sup_deficit = [c] * s
        self.cust_deficit = [s] * c
        self.unmet = s * c
        self.pairs_free = s * (s - 1) // 2
        self.dinners: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
        self.witness: Schedule | None = None

    def _tick(self) -> None:
        self.nodes += 1
        if self.node_cap is not None and self.nodes > self.node_cap:
            raise _Budget
        if self.deadline is not None and self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise _Budget

    def _capacity_ok(self, dinners_left: int) -> bool:
        if not self.prune:
            return True
        inst = self.inst
        if self.unmet > dinners_left * inst.t * inst.sigma * inst.gamma:
            return False
        # Tables beyond one supplier consume never-reusable supplier pairs: a
        # table with e extra suppliers burns e*(e+1)/2 >= e pairs, so the
        # extra meeting capacity is capped by the free-pair count.
        slots = dinners_left * inst.t
        extra = min((inst.sigma - 1) * slots, self.pairs_free)
        if self.unmet > inst.gamma * (slots + extra):
            return False
        cust_seats = 0
        for deficit in self.cust_deficit:
            if deficit > dinners_left * inst.sigma:
                return False
            cust_seats += -(-deficit // inst.sigma)
        if cust_seats > dinners_left * inst.t * inst.gamma:
            return False
        sup_seats = 0
        for deficit in self.sup_deficit:
            if deficit > dinners_left * inst.gamma:
                return False
            sup_seats += -(-deficit // inst.gamma)
        if sup_seats > dinners_left * inst.t * inst.sigma:
            return False
        return True

    def _mid_dinner_ok(self, full_dinners_left: int, tables_left: int, used_c: int) -> bool:
        """Capacity checks refreshed after each table placement."""
        if not self.prune:
            return True
        inst = self.inst
        slots = tables_left + full_dinners_left * inst.t
        extra = min((inst.sigma - 1) * slots, self.pairs_free)
        if self.unmet > inst.gamma * (slots + extra):
            return False
        cap_later = full_dinners_left * inst.sigma
        cap_now = inst.sigma * min(tables_left, 1)
        urgent = 0
        for k, deficit in enumerate(self.cust_deficit):
            if used_c >> k & 1:
                if deficit > cap_later:
                    return False
            elif deficit > cap_later + cap_now:
                return False
            elif deficit > cap_later:
                urgent += 1
        if urgent > tables_left * inst.gamma:
            return False
        return True

    def _mid_dinner_sup_ok(self, full_dinners_left: int, tables_left: int, used_s: int) -> bool:
        if not self.prune:
            return True
        inst = self.inst
        cap_later = full_dinners_left * inst.gamma
        cap_now = inst.gamma * min(tables_left, 1)
        urgent = 0
        for i, deficit in enumerate(self.sup_deficit):
            if used_s >> i & 1:
                if deficit > cap_later:
                    return False
            elif deficit > cap_later + cap_now:
                return False
            elif deficit > cap_later:
                urgent += 1
        if urgent > tables_left * inst.sigma:
            return False
        return True

    def _place(self, sups: list[int], custs: list[int], cmask: int) -> None:
        smask_bits = 0
        for i in sups:
            smask_bits |= 1 << i
        ncust = len(custs)
        nsup = len(sups)
        for i in sups:
            self.met[i] |= cmask
            self.sup_deficit[i] -= ncust
            self.pair_used[i] |= smask_bits & ~(1 << i)
        for k in custs:
            self.cust_deficit[k] -= nsup
        self.unmet -= nsup * ncust
        self.pairs_free -= nsup * (nsup - 1) // 2
        self.dinners[-1].append((tuple(x + 1 for x in sups), tuple(x + 1 for x in custs)))

    def _unplace(self, sups: list[int], custs: list[int], cmask: int) -> None:
        smask_bits = 0
        for i in sups:
            smask_bits |= 1 << i
        ncust = len(custs)
        nsup = len(sups)
        for i in sups:
            self.met[i] &= ~cmask
            self.sup_deficit[i] += ncust
            self.pair_used[i] &= ~(smask_bits & ~(1 << i))
        for k in custs:
            self.cust_deficit[k] += nsup
        self.unmet += nsup * ncust
        self.pairs_free += nsup * (nsup - 1) // 2
        self.dinners[-1].pop()

    def _succeed(self) -> None:
        inst = self.inst
        built = [
            Dinner.of(
                TableSeating(frozenset(sups), frozenset(custs)) for sups, custs in tabs
            )
            for tabs in self.dinners
            if tabs
        ]
        self.witness = Schedule.of(inst, built)
        raise _Found

    def run(self) -> Schedule | None:
        if self.unmet == 0:  # cannot happen for valid instances (s, c >= 1)
            return Schedule.of(self.inst, [])
        try:
            self._next_dinner(0, None)
        except _Found:
            return self.witness
        return None

    def _next_dinner(self, d: int, prev_first_key) -> None:
        if self.unmet == 0:
            self._succeed()
        if d >= self.d_max:
            return
        if not self._capacity_ok(self.d_max - d):
            return
        self.dinners.append([])
        self._extend(d, prev_first_key, None, 0, 0, 0)
        self.dinners.pop()

    def _extend(self, d: int, prev_first_key, last_key,
                used_s: int, used_c: int, n_tables: int) -> None:
        inst = self.inst
        if n_tables >= 1:
            if self.unmet == 0:
                self._succeed()
            first_key = (self.dinners[-1][0][0], self.dinners[-1][0][1])
            self._next_dinner(d + 1, first_key if d + 1 >= 2 else prev_first_key)
        if n_tables >= inst.t:
            return
        full_left = self.d_max - d - 1
        if d == 0 and n_tables == 0:
            # Prefix-block first table, by the relabeling argument.
            for a in range(1, min(inst.sigma, inst.s) + 1):
                sups = list(range(a))
                smask = (1 << a) - 1
                for b in range(1, min(inst.gamma, inst.c) + 1):
                    custs = list(range(b))
                    cmask = (1 << b) - 1
                    self._tick()
                    self._place(sups, custs, cmask)
                    if self._mid_dinner_ok(full_left, inst.t - 1, cmask) and \
                            self._mid_dinner_sup_ok(full_left, inst.t - 1, smask):
                        self._extend(d, prev_first_key,
                                     (tuple(range(1, a + 1)), tuple(range(1, b + 1))),
                                     smask, cmask, 1)
                    self._unplace(sups, custs, cmask)
            return
        floor_key = None
        if n_tables == 0 and d >= 2 and prev_first_key is not None:
            floor_key = prev_first_key
        for sups, custs, cmask, key in self._tables(used_s, used_c, last_key, floor_key):
            self._tick()
            self._place(sups, custs, cmask)
            smask = 0
            for i in sups:
                smask |= 1 << i
            if self._mid_dinner_ok(full_left, inst.t - n_tables - 1, used_c | cmask) and \
                    self._mid_dinner_sup_ok(full_left, inst.t - n_tables - 1, used_s | smask):
                self._extend(d, prev_first_key, key, used_s | smask, used_c | cmask,
                             n_tables + 1)
            self._unplace(sups, custs, cmask)

    def _tables(self, used_s: int, used_c: int, last_key, floor_key):
        """Candidate tables in increasing canonical key order.

        Only suppliers/customers free this dinner; all supplier pairs unused;
        every seated customer unmet with every seated supplier.
        """
        inst = self.inst
        s = inst.s
        lo = last_key if last_key is not None else floor_key

        def sup_sets(start: int, chosen: list[int], allowed_pairs: int, common: int):
            for i in range(start, s):
                if used_s >> i & 1:
                    continue
                if chosen and not (allowed_pairs >> i & 1):
                    continue
                new_common = common & ~self.met[i]
                if not new_common:
                    continue
                chosen.append(i)
                yield chosen, new_common
                if len(chosen) < inst.sigma:
                    yield from sup_sets(
                        i + 1, chosen, allowed_pairs & ~self.pair_used[i], new_common
                    )
                chosen.pop()

        avail_c = self.all_c & ~used_c
        for chosen, common in sup_sets(0, [], (1 << s) - 1, avail_c):
            sups = list(chosen)
            skey = tuple(i + 1 for i in sups)
            if lo is not None and skey < lo[0]:
                continue  # every key with this supplier tuple sits below the floor
            cand = common

            def cust_sets(start_bit: int, picked: list[int], mask: int):
                bits = cand >> start_bit
                k = start_bit
                while bits:
                    if bits & 1:
                        picked.append(k)
                        yield picked, mask | (1 << k)
                        if len(picked) < inst.gamma:
                            yield from cust_sets(k + 1, picked, mask | (1 << k))
                        picked.pop()
                    bits >>= 1
                    k += 1

            for picked, cmask in cust_sets(0, [], 0):
                key = (skey, tuple(k + 1 for k in picked))
                if last_key is not None and key <= last_key:
                    continue
                if floor_key is not None and key <= floor_key:
                    # Equal keys cannot recur (the meetings would repeat), so
                    # sorted dinners have strictly increasing first tables.
                    continue
                yield sups, picked, cmask, key


def _upper_limit(inst: Instance) -> int:
    return bounds.ub_best(inst)


def solve_exact(
    inst: Instance, limits: SolveLimits | None = None, prune: bool = True
) -> SolveResult:
    """Find the minimum dinner count by iterative deepening.

    Returns Optimal with a witness when a level succeeds after all smaller
    levels were fully refuted; FeasibleOnly when a witness was found but some
    smaller level was cut by the budget; Infeasible_at_bound when every level
    up to max_dinners was refuted; BudgetExhausted otherwise.  With
    prune=False the capacity pruning and lower-bound start are disabled
    (slow; used to cross-check soundness).
    """
    limits = limits or SolveLimits()
    node_cap = limits.resolved_node_budget()
    deadline = (
        time.monotonic() + limits.time_budget if limits.time_budget is not None else None
    )
    cap = limits.max_dinners if limits.max_dinners is not None else _upper_limit(inst)
    start = bounds.lb_best(inst) if prune else 1
    nodes = 0
    cut = False
    clean_prefix = True
    proven_lb = start
    for d_max in range(start, cap + 1):
        level = _Level(inst, d_max, prune, node_cap, deadline, 0)
        try:
            witness = level.run()
        except _Budget:
            nodes += level.nodes
            cut = True
            clean_prefix = False
            if deadline is not None and time.monotonic() > deadline:
                break
            continue
        nodes += level.nodes
        if witness is not None:
            status = OPTIMAL if not cut else FEASIBLE_ONLY
            return SolveResult(status, witness.dinner_count(), witness, nodes, proven_lb)
        if clean_prefix:
            proven_lb = d_max + 1
    if cut:
        return SolveResult(BUDGET_EXHAUSTED, None, None, nodes, proven_lb)
    return SolveResult(INFEASIBLE_AT_BOUND, None, None, nodes, proven_lb)


def certify_optimal(sched: Schedule, limits: SolveLimits | None = None) -> bool:
    """True when no schedule with fewer dinners exists (proven by search).

    Raises SearchBudgetExceeded if the refutation runs out of budget, so an
    inconclusive answer is never mistaken for a certificate.
    """
    from .howell import SearchBudgetExceeded
    from .model import validate_schedule

    report = validate_schedule(sched)
    if not report.feasible:
        raise ValueError("certify_optimal needs a feasible schedule")
    count = sched.dinner_count()
    limits = limits or SolveLimits()
    result = solve_exact(
        sched.instance,
        SolveLimits(
            max_dinners=count - 1,
            node_budget=limits.resolved_node_budget(),
            time_budget=limits.time_budget,
        ),
    )
    if result.status == INFEASIBLE_AT_BOUND:
        return True
    if result.status in (OPTIMAL, FEASIBLE_ONLY):
        return False
    raise SearchBudgetExceeded("refutation budget exhausted before a proof")
