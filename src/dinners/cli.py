"""Command-line interface: bounds, build, validate, solve, reference-tables.

Exit codes: 0 success/feasible, 1 semantic failure (infeasible schedule or a
reference-value mismatch), 2 bad parameters or unparseable input, 3 strategy
preconditions not met, 4 search budget exhausted while building, 5 solver
budget exhausted without a proof, 141 standard output closed by its reader
(as in `dinners solve ... | head`), with no traceback.
"""

from __future__ import annotations

import argparse
import decimal
import os
import sys

from . import bounds
from .constructions import ConstructionError
from .howell import DEFAULT_NODE_BUDGET, SearchBudgetExceeded
from .model import (
    PAIR_MISSING,
    Instance,
    ScheduleDecodeError,
    decode_schedule,
    encode_schedule,
    validate_schedule,
)
from .solver import (
    DEFAULT_SOLVE_NODE_BUDGET,
    INFEASIBLE_AT_BOUND,
    OPTIMAL,
    SolveLimits,
    solve_exact,
)
from .transforms import ROUTES, best_feasible

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUILD_BUDGET = 4
EXIT_SOLVE_BUDGET = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

# Embedded reference values: five instances exercising each lower bound's
# strict-dominance row (starred index) and two upper-bound comparisons.
LB_REFERENCE = [
    ((5, 8, 8, 1, 2), (8, 4, 7, 3, 0), 0),
    ((6, 8, 8, 2, 1), (4, 8, 6, 4, 6), 1),
    ((1, 8, 8, 1, 1), (8, 8, 64, 23, 0), 2),
    ((1, 11, 8, 6, 4), (2, 2, 4, 7, 4), 3),
    ((1, 8, 11, 2, 1), (4, 11, 44, 32, 60), 4),
]
UB_REFERENCE = [
    ((3, 6, 3, 2, 1), 3, 11),
    ((3, 6, 9, 2, 1), 18, 17),
]


def _instance(args) -> Instance:
    values = dict(t=args.t, s=args.s, c=args.c, sigma=args.sigma, gamma=args.gamma)
    try:
        return Instance(**values)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _write_out(out: str, text: str) -> int:
    """Write text to the file out, or to standard output when out is '-'."""
    if out == "-":
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _exact(n: int) -> str:
    """Decimal digits of n, also past the int-to-str digit limit."""
    return str(decimal.Decimal(n))


def cmd_bounds(args) -> int:
    inst = _instance(args)
    rep = bounds.compute_bounds(inst)
    # Every value is printed through _exact, as one can pass str()'s digit
    # limit: at t = sigma = gamma = 1, lb3 = s*c.
    if args.json:
        print("{" + ", ".join(f'"{k}": {"null" if v is None else _exact(v)}' for k, v in vars(rep).items()) + "}")
        return EXIT_OK
    v = {k: "n/a" if x is None else _exact(x) for k, x in (vars(inst) | vars(rep)).items()}
    print(f"instance t={v['t']} s={v['s']} c={v['c']} sigma={v['sigma']} gamma={v['gamma']}")
    print(f"lb1={v['lb1']} lb2={v['lb2']} lb3={v['lb3']} lb4={v['lb4']} lb5={v['lb5']}")
    if inst.sigma >= 2:
        js = bounds.j_star(max(inst.s, 2), inst.customer_groups)
        print(f"lb5 attained at j={_exact(bounds.lb5_argmax(inst))} (maximizer hint j*={_exact(js)})")
    print(f"ub1={v['ub1']} ub1_improved={v['ub1_improved']} ub2={v['ub2']} ub_eucli={v['ub_eucli']}")
    print(f"lb_best={v['lb_best']} ub_best={v['ub_best']}")
    return EXIT_OK


def cmd_build(args) -> int:
    inst = _instance(args)
    try:
        if args.strategy == "auto":
            # Never exits on a Howell budget: the total routes always build.
            sched, _ = best_feasible(inst)
        else:
            sched = ROUTES[args.strategy](inst, DEFAULT_NODE_BUDGET)
    except ConstructionError as e:
        print(f"strategy not applicable: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SearchBudgetExceeded as e:
        print(f"search budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUILD_BUDGET
    report = validate_schedule(sched)
    if not report.feasible:
        print(f"error: the {args.strategy} strategy built an infeasible schedule "
              f"({report.total} violation(s))", file=sys.stderr)
        return EXIT_SEMANTIC
    if args.out and _write_out(args.out, encode_schedule(sched)):
        return EXIT_PARSE
    proven = sched.dinner_count() == bounds.optimum_floor(inst)
    print(f"dinners={sched.dinner_count()} optimal={'yes' if proven else 'unknown'}"
          + (f" written={args.out}" if args.out and args.out != "-" else ""))
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except UnicodeDecodeError as e:
        print(f"parse error: not UTF-8 text: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        sched = decode_schedule(text)
    except ScheduleDecodeError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    report = validate_schedule(sched)
    if report.feasible:
        print(f"feasible: {sched.dinner_count()} dinners")
        return EXIT_OK
    print(f"infeasible: {_exact(report.total)} violation(s)")
    for kind, detail in report.violations:
        print(f"  {kind}: {detail}")
    if report.unlisted_missing:
        print(f"  (and {_exact(report.unlisted_missing)} more {PAIR_MISSING} not listed)")
    return EXIT_SEMANTIC


def cmd_solve(args) -> int:
    inst = _instance(args)
    limits = SolveLimits(
        max_dinners=args.max_dinners,
        node_budget=args.budget,
        time_budget=args.timeout,
    )
    result = solve_exact(inst, limits)
    print(f"status={result.status} value={result.value} nodes={result.nodes} "
          f"proven_lower_bound={result.lower_bound}")
    if result.witness is not None:
        if args.out:
            if _write_out(args.out, encode_schedule(result.witness)):
                return EXIT_PARSE
            if args.out != "-":
                print(f"witness written to {args.out}")
        else:
            for d, dinner in enumerate(result.witness.dinners, start=1):
                parts = [
                    f"[{','.join(map(str, sorted(tab.suppliers)))}|{','.join(map(str, sorted(tab.customers)))}]"
                    for tab in dinner.tables
                ]
                print(f"  dinner {d}: " + " ".join(parts))
    return EXIT_OK if result.status in (OPTIMAL, INFEASIBLE_AT_BOUND) else EXIT_SOLVE_BUDGET


def cmd_reference_tables(args) -> int:
    failures = 0
    for params, expected, star in LB_REFERENCE:
        inst = Instance(*params)
        rep = bounds.compute_bounds(inst)
        got = (rep.lb1, rep.lb2, rep.lb3, rep.lb4 if rep.lb4 is not None else 0, rep.lb5)
        names = ("lb1", "lb2", "lb3", "lb4", "lb5")
        for i, name in enumerate(names):
            ok = got[i] == expected[i]
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {params} {name}={got[i]} expected {expected[i]}")
        dominant = all(got[star] > got[i] for i in range(5) if i != star)
        failures += not dominant
        print(f"{'PASS' if dominant else 'FAIL'} {params} {names[star]} strictly dominates")
    for params, e1, e2 in UB_REFERENCE:
        inst = Instance(*params)
        v1, v2 = bounds.ub1(inst), bounds.ub2(inst)
        ok1, ok2 = v1 == e1, v2 == e2
        failures += (not ok1) + (not ok2)
        print(f"{'PASS' if ok1 else 'FAIL'} {params} ub1={v1} expected {e1}")
        print(f"{'PASS' if ok2 else 'FAIL'} {params} ub2={v2} expected {e2}")
    print(f"{'all reference values reproduced' if not failures else f'{failures} mismatches'}")
    return EXIT_OK if not failures else EXIT_SEMANTIC


def _positive(kind):
    """argparse type: parse with kind and reject values that are not > 0."""
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("t", type=int, help="number of tables")
    p.add_argument("s", type=int, help="number of suppliers")
    p.add_argument("c", type=int, help="number of customers")
    p.add_argument("sigma", type=int, help="max suppliers per table")
    p.add_argument("gamma", type=int, help="max customers per table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dinners",
        description="Bounds, constructions and exact solving for the business dinner problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="print all lower/upper bounds")
    _add_instance_args(p)
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("build", help="construct a feasible schedule")
    _add_instance_args(p)
    p.add_argument("--strategy", choices=["auto"] + sorted(ROUTES), default="auto")
    p.add_argument("--out", help="write the schedule JSON to this file ('-' for stdout)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("validate", help="validate a schedule file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="exact minimum dinner count")
    _add_instance_args(p)
    p.add_argument("--budget", type=_positive(int), default=DEFAULT_SOLVE_NODE_BUDGET,
                   help="search node budget per deepening level")
    p.add_argument("--timeout", type=_positive(float), default=None, help="time budget in seconds")
    p.add_argument("--max-dinners", type=_positive(int), default=None,
                   help="largest dinner count to try (default: ub_best, or below "
                        "the best construction's count)")
    p.add_argument("--out", help="write the witness schedule to this file ('-' for stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "reference-tables",
        help="recompute the built-in reference bound values and report PASS/FAIL",
    )
    p.set_defaults(func=cmd_reference_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (`| head`): stop the exit-time flush failing too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
