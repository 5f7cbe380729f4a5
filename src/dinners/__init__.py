"""Scheduling engine for the business dinner problem.

Every supplier-customer pair must share a table exactly once across a series
of dinners, supplier pairs may share at most once, and tables cap how many of
each side sit together.  The package computes closed-form lower and upper
bounds on the minimum number of dinners, constructs feasible (and in covered
cases provably optimal) schedules, validates schedules, and certifies small
instances with an exact solver.
"""

from .bounds import (
    BoundsReport,
    compute_bounds,
    j_star,
    lb1,
    lb2,
    lb3,
    lb4,
    lb5,
    lb_best,
    optimum_floor,
    ub1,
    ub1_improved,
    ub2,
    ub_best,
    ub_eucli,
)
from .coloring import equitable_bipartite_coloring
from .constructions import (
    ConstructionError,
    ScheduleTemplate,
    build_cas_par,
    build_howell_schedule,
    build_prime,
    build_sigma1,
    build_trivial,
    exceptional_schedule,
    load_example_schedule,
)
from .howell import (
    HowellDesign,
    SearchBudgetExceeded,
    generate_howell,
    howell_exists,
    search_howell,
    validate_howell,
)
from .model import (
    Dinner,
    Instance,
    Schedule,
    ScheduleDecodeError,
    TableSeating,
    ValidationReport,
    decode_schedule,
    encode_schedule,
    group_customers,
    validate_schedule,
)
from .solver import SolveLimits, SolveResult, certify_optimal, solve_exact
from .transforms import (
    GammaGrouping,
    best_feasible,
    build_eucli,
    build_ub1,
    build_ub2,
    concat_suppliers,
    group_gamma,
    split_sigma,
    split_tables,
)

__all__ = [
    "BoundsReport",
    "ConstructionError",
    "Dinner",
    "GammaGrouping",
    "HowellDesign",
    "Instance",
    "Schedule",
    "ScheduleDecodeError",
    "ScheduleTemplate",
    "SearchBudgetExceeded",
    "SolveLimits",
    "SolveResult",
    "TableSeating",
    "ValidationReport",
    "best_feasible",
    "build_cas_par",
    "build_eucli",
    "build_howell_schedule",
    "build_prime",
    "build_sigma1",
    "build_trivial",
    "build_ub1",
    "build_ub2",
    "certify_optimal",
    "compute_bounds",
    "concat_suppliers",
    "decode_schedule",
    "encode_schedule",
    "equitable_bipartite_coloring",
    "exceptional_schedule",
    "generate_howell",
    "group_customers",
    "group_gamma",
    "howell_exists",
    "j_star",
    "lb1",
    "lb2",
    "lb3",
    "lb4",
    "lb5",
    "lb_best",
    "load_example_schedule",
    "optimum_floor",
    "search_howell",
    "solve_exact",
    "split_sigma",
    "split_tables",
    "ub1",
    "ub1_improved",
    "ub2",
    "ub_best",
    "ub_eucli",
    "validate_howell",
    "validate_schedule",
]
