"""Closed-form lower and upper bounds on the minimum number of dinners.

Everything is exact: ceilings are computed with integer arithmetic, the
square roots inside lb4 are resolved by comparing squared integers, and lb5
uses Fractions.  No float ever decides a returned value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .howell import NONEXISTENT_EXCEPTIONS
from .model import Instance


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _ceil_sqrt_div(n: int, d: int) -> int:
    """Smallest integer k with k*d >= sqrt(n), for n >= 0, d >= 1."""
    k = math.isqrt(n) // d
    while k * k * d * d < n:
        k += 1
    return k


def lb1(inst: Instance) -> int:
    """Each customer meets at most sigma suppliers per dinner."""
    return ceil_div(inst.s, inst.sigma)


def lb2(inst: Instance) -> int:
    """Each supplier meets at most gamma customers per dinner."""
    return ceil_div(inst.c, inst.gamma)


def lb3(inst: Instance) -> int:
    """Table-usage count: ceil(s * ceil(c/gamma) / (t * sigma))."""
    return ceil_div(inst.s * inst.customer_groups, inst.t * inst.sigma)


def lb4(inst: Instance) -> int:
    """Counting bound on customer attendance; only defined when gamma < c.

    The bound is ceil((sqrt(s)/(t*gamma)) * ((c-gamma)*M + gamma/M)) with
    M = max(sqrt(gamma/(c-gamma)), 1).  Algebraically this collapses to
    ceil(sqrt(s)*c/(t*gamma)) when c >= 2*gamma and to
    ceil(2*sqrt(s*gamma*(c-gamma))/(t*gamma)) otherwise, which lets the
    ceiling be decided by exact squared-integer comparisons.
    """
    t, s, c, gamma = inst.t, inst.s, inst.c, inst.gamma
    if gamma >= c:
        raise ValueError("lb4 requires gamma < c")
    if c >= 2 * gamma:
        return _ceil_sqrt_div(s * c * c, t * gamma)
    return _ceil_sqrt_div(4 * s * gamma * (c - gamma), t * gamma)


def lb5_term(inst: Instance, j: int) -> int:
    """ceil((s/t) * (2*ceil(c/gamma)/j - (s-1)/(j*(j-1)))) for one j >= 2."""
    cg = inst.customer_groups
    value = Fraction(inst.s, inst.t) * (
        Fraction(2 * cg, j) - Fraction(inst.s - 1, j * (j - 1))
    )
    return math.ceil(value)


def lb5_argmax(inst: Instance) -> int:
    """A j in 2..sigma where lb5_term is largest (the smaller one on a tie).

    Before the ceiling the term is unimodal in j with its real maximum in
    [j_star, j_star + 1) (see j_star; for s = 1 it falls with j), and the
    ceiling keeps the argmax, so clamping j_star and j_star + 1 into
    [2, sigma] leaves at most two candidates.  Requires sigma >= 2.
    """
    if inst.sigma < 2:
        raise ValueError("lb5_argmax requires sigma >= 2")
    js = j_star(inst.s, inst.customer_groups) if inst.s >= 2 else 1
    cands = sorted({min(max(j, 2), inst.sigma) for j in (js, js + 1)})
    return max(cands, key=lambda j: lb5_term(inst, j))


def lb5(inst: Instance) -> int:
    """LP-duality bound: max over j in 2..sigma of lb5_term, clamped at 0.

    Evaluates the term at lb5_argmax only, so it costs O(1) in sigma.
    Returns 0 when sigma == 1 (empty range) or when every term is negative;
    a dinner count cannot be negative, so clamping keeps the bound sound.
    """
    if inst.sigma < 2:
        return 0
    return max(lb5_term(inst, lb5_argmax(inst)), 0)


def j_star(s: int, cg: int) -> int:
    """Integer maximizer hint for lb5's inner expression.

    Computes floor(1 / (1 - sqrt((s-1)/(s-1+2*cg)))) exactly: the value
    rewrites to floor((b + sqrt(a*b)) / (2*cg)) with a = s-1, b = s-1+2*cg,
    and since no integer can sit strictly between b+isqrt(a*b) and the next
    integer boundary inside the same unit interval, integer sqrt suffices.
    The unceiled objective is maximized at j_star or j_star + 1; clamp into
    [2, sigma] before use.
    """
    if s < 2:
        raise ValueError("j_star requires s >= 2")
    if cg < 1:
        raise ValueError("j_star requires cg >= 1")
    a = s - 1
    b = s - 1 + 2 * cg
    return (b + math.isqrt(a * b)) // (2 * cg)


def _lower_bounds(inst: Instance) -> tuple[int, int, int, int | None, int]:
    """lb1..lb5, with lb4 None where it is not defined (c <= gamma)."""
    return (lb1(inst), lb2(inst), lb3(inst),
            lb4(inst) if inst.gamma < inst.c else None, lb5(inst))


def _best(pick, values) -> int:
    """max or min over the applicable (non-None) bounds."""
    return pick(v for v in values if v is not None)


def lb_best(inst: Instance) -> int:
    """Best (largest) applicable lower bound."""
    return _best(max, _lower_bounds(inst))


# (cg, s) pairs where sigma = 2 needs 3 dinners, not max(cg, ceil(s/2)) = 2:
# no 2-dinner seating exists (optimum_floor gives the proof).
SIGMA2_THREE_DINNER_PAIRS = frozenset({(2, 3), (2, 4)})


def optimum_floor(inst: Instance) -> int:
    """The fewest dinners proven necessary: lb_best, raised to 3 for sigma = 2
    and (cg, s) in SIGMA2_THREE_DINNER_PAIRS.

    Proof of the exception: in two dinners each customer meets its s >= 3
    suppliers at two tables of at most two.  As cg = 2, some dinner seats two
    customers at different, hence disjoint, tables; each one's table there lies
    inside the other's table of the other dinner, and with s >= 3 that repeats
    a supplier pair or seats one supplier at two tables of a dinner.
    """
    exception = inst.sigma == 2 and (inst.customer_groups, inst.s) in SIGMA2_THREE_DINNER_PAIRS
    return max(lb_best(inst), 3 if exception else 0)


def sigma2_symbols(cg: int, s: int) -> int:
    """Symbol count 2n of the Howell array behind the two-supplier base.

    An odd s is padded with one fictitious supplier; a square shape cg == s
    with even s is padded with two, since H(s, s) does not exist.
    """
    if s % 2:
        return s + 1
    return s + 2 if cg == s else s


def sigma2_base_tables(cg: int, s: int) -> int:
    """Tables actually used per dinner by the two-supplier base construction.

    The base takes the first cg columns of an H(max(cg, n), 2n) with
    2n = sigma2_symbols(cg, s), so its widest dinner seats min(cg, n)
    tables.  Where that design does not exist (howell.NONEXISTENT_EXCEPTIONS)
    an embedded template stands in, and its widest dinner seats all cg groups.
    """
    if cg > s:
        raise ValueError("base layer requires cg <= s")
    n2 = sigma2_symbols(cg, s)
    return cg if (cg, n2) in NONEXISTENT_EXCEPTIONS else min(cg, n2 // 2)


def sigma2_base_dinners(cg: int, s: int) -> int:
    """Dinner count of the two-supplier base construction."""
    if (cg, s) in SIGMA2_THREE_DINNER_PAIRS:
        return 3
    return max(cg, ceil_div(s, 2))


def ub1(inst: Instance) -> int:
    """Universal upper bound built from the two-supplier base plus splitting:
    ceil(2/sigma) * ceil(min(cg, s)/t) * sigma2_base_dinners(cg, s).

    On one table the two three-dinner shapes take fewer than 2 * 3 dinners:
    each customer group gets its own pair matching, tables of 2 and s - 2
    suppliers, and each table is split down to sigma.
    """
    cg, s, t, sigma = inst.customer_groups, inst.s, inst.t, inst.sigma
    if t == 1 and (cg, s) in SIGMA2_THREE_DINNER_PAIRS:
        return 2 * (ceil_div(2, sigma) + ceil_div(s - 2, sigma))
    return ceil_div(2, sigma) * ceil_div(min(cg, s), t) * sigma2_base_dinners(cg, s)


def ub1_improved(inst: Instance) -> int | None:
    """Tighter ub1 variant using min(cg, ceil(s/2)) tables for the base.

    Only sound when s*gamma > c and the base layer really fits in
    min(cg, ceil(s/2)) tables with max(cg, ceil(s/2)) dinners; for the wide
    special shapes the variant is reported as not applicable.
    """
    cg = inst.customer_groups
    s = inst.s
    if inst.s * inst.gamma <= inst.c:
        return None
    if (cg, s) in SIGMA2_THREE_DINNER_PAIRS:
        return None
    tables = sigma2_base_tables(cg, s)
    if tables != min(cg, ceil_div(s, 2)):
        return None
    return ceil_div(2, inst.sigma) * ceil_div(tables, inst.t) * sigma2_base_dinners(cg, s)


def ub2(inst: Instance) -> int | None:
    """Round-robin upper bound; applicable when ceil(s/sigma) <= ceil(c/gamma)."""
    cg = inst.customer_groups
    blocks = ceil_div(inst.s, inst.sigma)
    if blocks > cg:
        return None
    return ceil_div(blocks, inst.t) * (1 - inst.sigma + inst.sigma * max(cg, 2 * blocks))


def ub_eucli(inst: Instance) -> int:
    """Euclidean-division extension of ub2 to any supplier count.

    Write ceil(s/sigma) = q*cg + rho with 0 <= rho < cg; q full supplier
    blocks are scheduled like ub2 and the remainder block adds one more term.
    """
    cg = inst.customer_groups
    blocks = ceil_div(inst.s, inst.sigma)
    q, rho = divmod(blocks, cg)
    total = q * ceil_div(cg, inst.t) * (1 - inst.sigma + 2 * inst.sigma * cg)
    if rho:
        total += ceil_div(rho, inst.t) * (1 - inst.sigma + 2 * inst.sigma * max(cg, 2 * rho))
    return total


def _upper_bounds(inst: Instance) -> tuple[int, int | None, int | None, int]:
    """ub1, ub1_improved, ub2 and ub_eucli, with inapplicable ones None."""
    return ub1(inst), ub1_improved(inst), ub2(inst), ub_eucli(inst)


def ub_best(inst: Instance) -> int:
    """Best (smallest) applicable upper bound."""
    return _best(min, _upper_bounds(inst))


@dataclass(frozen=True)
class BoundsReport:
    lb1: int
    lb2: int
    lb3: int
    lb4: int | None
    lb5: int
    lb_best: int
    ub1: int
    ub1_improved: int | None
    ub2: int | None
    ub_eucli: int
    ub_best: int


def compute_bounds(inst: Instance) -> BoundsReport:
    """All lower and upper bounds for an instance, with inapplicable ones None.

    Each bound is evaluated once; lb_best and ub_best are taken from them.
    """
    lbs, ubs = _lower_bounds(inst), _upper_bounds(inst)
    return BoundsReport(*lbs, _best(max, lbs), *ubs, _best(min, ubs))


def lp_value_scan(s: int, sigma: int, cg: int) -> Fraction:
    """Evaluate the per-supplier dual program by scanning its breakpoints.

    The dual objective max over mu >= 0 of
    min over j in 1..sigma of ((j-1)*cg - (s-1))*mu + cg/j
    is piecewise linear in mu with breakpoints in
    {0} union {1/(k*(k-1)) : k = 2..sigma} union {1/2}, so its maximum is
    attained at one of them.  Scaling by s/t and taking the ceiling turns the
    result into the combined table-usage / pairing lower bound; this serves
    as the independent cross-check of lb5's closed form.
    """
    if s < 1 or sigma < 1 or cg < 1:
        raise ValueError("lp_value_scan needs positive parameters")
    breakpoints = {Fraction(0), Fraction(1, 2)}
    for k in range(2, sigma + 1):
        breakpoints.add(Fraction(1, k * (k - 1)))
    best: Fraction | None = None
    for mu in breakpoints:
        value = min(
            ((j - 1) * cg - (s - 1)) * mu + Fraction(cg, j) for j in range(1, sigma + 1)
        )
        if best is None or value > best:
            best = value
    assert best is not None
    return best
