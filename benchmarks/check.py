"""Independent output checks for the dinners benchmark.

Nothing here imports ``dinners``.  Schedules arrive as plain data: an
instance tuple ``(t, s, c, sigma, gamma)`` and a list of dinners, each a list
of ``(suppliers, customers)`` id sequences.  Feasibility is checked from the
problem statement, and every lower bound is recomputed from the paper's
formulas in exact integer arithmetic, so a fault in ``validate_schedule`` or
``dinners.bounds`` cannot hide itself.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import isqrt

# Violation kinds, named as the validator names them in its report.
TABLE_COUNT_EXCEEDED = "TableCountExceeded"
SUPPLIER_CAP_EXCEEDED = "SupplierCapExceeded"
CUSTOMER_CAP_EXCEEDED = "CustomerCapExceeded"
PERSON_AT_TWO_TABLES = "PersonAtTwoTables"
PAIR_MISSING = "PairMissing"
PAIR_REPEATED = "PairRepeated"
SUPPLIER_PAIR_REPEATED = "SupplierPairRepeated"
ID_OUT_OF_RANGE = "IdOutOfRange"

BOUND_KEYS = ("lb1", "lb2", "lb3", "lb4", "lb5", "lb_best",
              "ub1", "ub1_improved", "ub2", "ub_eucli", "ub_best")


class CheckFailed(AssertionError):
    """An output disagrees with the benchmark's own computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def violations(inst: tuple, dinners) -> Counter:
    """Count every broken constraint of a schedule, by kind.

    Each supplier-customer pair must meet exactly once, each supplier pair at
    most once, every table respects both caps, no dinner uses more than t
    tables, and nobody sits at two tables of one dinner.
    """
    t, s, c, sigma, gamma = inst
    found: Counter = Counter()
    meets: Counter = Counter()
    supplier_pairs: Counter = Counter()
    for dinner in dinners:
        if len(dinner) > t:
            found[TABLE_COUNT_EXCEEDED] += 1
        seats: Counter = Counter()
        for sups, custs in dinner:
            if len(sups) > sigma:
                found[SUPPLIER_CAP_EXCEEDED] += 1
            if len(custs) > gamma:
                found[CUSTOMER_CAP_EXCEEDED] += 1
            found[ID_OUT_OF_RANGE] += sum(1 for i in sups if not 1 <= i <= s)
            found[ID_OUT_OF_RANGE] += sum(1 for k in custs if not 1 <= k <= c)
            seats.update(("s", i) for i in sups)
            seats.update(("c", k) for k in custs)
            meets.update((i, k) for i in sups for k in custs)
            supplier_pairs.update(combinations(sorted(sups), 2))
        found[PERSON_AT_TWO_TABLES] += sum(n - 1 for n in seats.values() if n > 1)
    met = [pair for pair in meets if 1 <= pair[0] <= s and 1 <= pair[1] <= c]
    found[PAIR_MISSING] += s * c - len(met)
    found[PAIR_REPEATED] += sum(1 for pair in met if meets[pair] > 1)
    found[SUPPLIER_PAIR_REPEATED] += sum(1 for n in supplier_pairs.values() if n > 1)
    return +found  # drop zero counts


def dinners_from_json(obj: dict) -> tuple[tuple, list]:
    """Instance tuple and plain dinners from a decoded schedule file."""
    raw = obj["instance"]
    inst = (raw["t"], raw["s"], raw["c"], raw["sigma"], raw["gamma"])
    dinners = [[(tab["suppliers"], tab["customers"]) for tab in dinner] for dinner in obj["dinners"]]
    return inst, dinners


def _ceil_sqrt(n: int) -> int:
    r = isqrt(n)
    return r + (r * r < n)


def lower_bounds(inst: tuple) -> dict:
    """lb1..lb5 of the paper; lb4 is None when gamma >= c.

    lb4 = ceil(sqrt(s)/(t*gamma) * ((c-gamma)*M + gamma/M)) with
    M = max(sqrt(gamma/(c-gamma)), 1).  M = 1 exactly when c >= 2*gamma,
    giving sqrt(s*c^2)/(t*gamma); otherwise both terms equal
    sqrt(gamma*(c-gamma)), giving sqrt(4*s*gamma*(c-gamma))/(t*gamma).
    ceil(sqrt(N)/d) = ceil(ceil(sqrt(N))/d) for a positive integer d.

    lb5 = max(0, max over j = 2..sigma of
    ceil((s/t) * (2*cg/j - (s-1)/(j*(j-1))))), scanned over every j; each
    term is one exact integer ceiling of s*(2*cg*(j-1) - (s-1)) / (t*j*(j-1)).
    """
    t, s, c, sigma, gamma = inst
    cg = ceil_div(c, gamma)
    lb4 = None
    if gamma < c:
        n = s * c * c if c >= 2 * gamma else 4 * s * gamma * (c - gamma)
        lb4 = ceil_div(_ceil_sqrt(n), t * gamma)
    lb5 = 0
    for j in range(2, sigma + 1):
        lb5 = max(lb5, ceil_div(s * (2 * cg * (j - 1) - (s - 1)), t * j * (j - 1)))
    return {
        "lb1": ceil_div(s, sigma),
        "lb2": cg,
        "lb3": ceil_div(s * cg, t * sigma),
        "lb4": lb4,
        "lb5": lb5,
    }


def lb_best(bounds: dict) -> int:
    return max(v for k, v in bounds.items() if k.startswith("lb") and v is not None)


def closed_form_optimum(inst: tuple) -> int | None:
    """The paper's proven optimum where a closed form covers the instance."""
    t, s, c, sigma, gamma = inst
    if c <= gamma:
        return ceil_div(s, sigma)
    if sigma == 1:
        cg = ceil_div(c, gamma)
        return max(s, cg, ceil_div(s * cg, t))
    return None


def check_built(inst: tuple, dinners, count: int, lbs: dict) -> None:
    """A constructed schedule: feasible, as long as claimed, within the bounds."""
    broken = violations(inst, dinners)
    require(not broken, f"{inst}: built schedule infeasible: {dict(broken)}")
    require(len(dinners) == count, f"{inst}: {len(dinners)} dinners written, {count} claimed")
    require(count >= lb_best(lbs), f"{inst}: {count} dinners beat lower bound {lb_best(lbs)}")
    optimum = closed_form_optimum(inst)
    require(optimum is None or count == optimum,
            f"{inst}: {count} dinners where the closed form gives {optimum}")


SOLVER_STATUSES = ("Optimal", "FeasibleOnly", "BudgetExhausted", "Infeasible_at_bound")


def check_solved(inst: tuple, status: str, value, lower_bound: int, witness, ub: int,
                 lbs: dict) -> None:
    """A solver result whose search was capped at the upper bound ``ub``."""
    lb = lb_best(lbs)
    require(status in SOLVER_STATUSES, f"{inst}: unknown status {status!r}")
    require(lb <= lower_bound <= ub, f"{inst}: proven bound {lower_bound} outside [{lb}, {ub}]")
    # ub is attained by a construction, so search capped there cannot refute every level.
    require(status != "Infeasible_at_bound", f"{inst}: no schedule within ub_best={ub}")
    if status == "BudgetExhausted":
        require(value is None and witness is None, f"{inst}: budget-cut result carries a value")
        return
    require(witness is not None, f"{inst}: {status} without a witness")
    broken = violations(inst, witness)
    require(not broken, f"{inst}: solver witness infeasible: {dict(broken)}")
    require(len(witness) == value, f"{inst}: witness has {len(witness)} dinners, value {value}")
    require(lower_bound <= value <= ub, f"{inst}: value {value} outside [{lower_bound}, {ub}]")
    if status == "Optimal":
        require(value == lower_bound, f"{inst}: optimum {value} but proven bound {lower_bound}")
        optimum = closed_form_optimum(inst)
        require(optimum is None or value == optimum,
                f"{inst}: optimum {value} where the closed form gives {optimum}")


def check_bounds_report(inst: tuple, report: dict, lbs: dict) -> None:
    """The JSON object printed by ``dinners bounds --json``."""
    require(set(BOUND_KEYS) <= set(report), f"{inst}: bounds keys {list(report)}")
    for key, want in lbs.items():
        require(report[key] == want, f"{inst}: {key}={report[key]}, recomputed {want}")
    require(report["lb_best"] == lb_best(lbs), f"{inst}: lb_best={report['lb_best']}")
    ubs = [report[k] for k in ("ub1", "ub1_improved", "ub2", "ub_eucli") if report[k] is not None]
    require(report["ub_best"] == min(ubs), f"{inst}: ub_best={report['ub_best']} not min of {ubs}")
    require(report["lb_best"] <= report["ub_best"], f"{inst}: lb_best above ub_best")
    optimum = closed_form_optimum(inst)
    # Where the optimum has a closed form it equals the best lower bound.
    require(optimum is None or report["lb_best"] == optimum,
            f"{inst}: lb_best={report['lb_best']} where the closed form gives {optimum}")
