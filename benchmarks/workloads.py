"""The three workloads: seeded inputs, one op each, and the checks of its output.

Each workload turns a seed into a fixed op list.  ``op`` is the only code in
the timed phase; ``check`` runs after each round against the benchmark's own
computations in ``check.py`` and returns the op's digest line together with
its terms of ``gap_ratio``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from pathlib import Path

import check

# Howell node budget per best_feasible call.  A search cut by the budget
# costs 0.1-0.35 s here, so no op takes more than about a second, and every
# mid-scale shape (H(m, 2n) with 2n >= 12) is cut.
PLAN_NODE_BUDGET = 10_000
# Solver node budget per deepening level.  Every cell the budget cuts has
# s*c >= 12, the stratum the certify sample always keeps.
CERTIFY_NODE_BUDGET = 2_000


def instance_of(mods, inst: tuple):
    return mods["model"].Instance(*inst)


def plain_dinners(sched) -> list:
    return [[(sorted(tab.suppliers), sorted(tab.customers)) for tab in dinner.tables]
            for dinner in sched.dinners]


class Memo:
    """Reference values computed once per instance, outside the timed phase."""

    def __init__(self):
        self._lbs: dict[tuple, dict] = {}
        self._files: dict[str, tuple] = {}

    def lower_bounds(self, inst: tuple) -> dict:
        if inst not in self._lbs:
            self._lbs[inst] = check.lower_bounds(inst)
        return self._lbs[inst]

    def schedule_file(self, path: str) -> tuple[int, set]:
        """Dinner count and violation kinds of a schedule file, from first principles."""
        if path not in self._files:
            inst, dinners = check.dinners_from_json(json.loads(Path(path).read_text()))
            self._files[path] = (len(dinners), set(check.violations(inst, dinners)))
        return self._files[path]


# ---------------------------------------------------------------- plan

def _rung(rng: random.Random, k: int, n: int, lo: int, hi: int) -> int:
    """A value in [lo, hi] from the k-th of n equal strata, so a ladder climbs."""
    return lo + int((k + rng.random()) / n * (hi - lo + 1))


# Rung kinds above the desk box: (sigma, gamma, Howell base needed).  A
# Howell base is needed when s*gamma > c; best_feasible then builds it for the
# ub1 route whatever sigma is, and once more in dispatch_optimal when
# sigma = 2 and the ceil(c/gamma) tables it needs fit in t.  Fixing sigma and
# gamma per rung keeps the number of Howell searches and the size of every
# colouring, the dominant costs, the same for every seed.
PLAN_KINDS = (
    (1, 1, False),  # sigma=1 colouring route
    (3, 3, True),   # one Howell search (ub1), colouring fallback
    (2, 2, True),   # c <= gamma*t: Howell searched twice, dispatch_optimal then ub1
    (4, 1, False),  # ub2 / eucli routes
    (1, 3, True),   # sigma=1 optimum, yet ub1 still searches Howell
)

# (rungs, t range, s range, c range) per tier of the ladder.
PLAN_TIERS = (
    (20, (2, 6), (11, 16), (12, 24)),
    (20, (4, 10), (20, 50), (30, 100)),
)
PLAN_DESK_RUNGS = 24


def plan_inputs(rng: random.Random) -> list[tuple]:
    ops = []
    for _ in range(PLAN_DESK_RUNGS):  # the criterion-9 box
        ops.append((rng.randint(1, 3), rng.randint(1, 5), rng.randint(1, 5),
                    rng.randint(1, 3), rng.randint(1, 3)))
    for rungs, t_r, s_r, c_r in PLAN_TIERS:
        for k in range(rungs):
            sigma, gamma, howell = PLAN_KINDS[k % len(PLAN_KINDS)]
            t = _rung(rng, k, rungs, *t_r)
            s = _rung(rng, k, rungs, *s_r)
            c = rng.randint(t + 1, 2 * t) if sigma == 2 else _rung(rng, k, rungs, *c_r)
            if (s * gamma > c) != howell:
                raise AssertionError(f"plan ladder rung {(t, s, c, sigma, gamma)} is not of its kind")
            ops.append((t, s, c, sigma, gamma))
    return ops


def plan_op(mods, inst: tuple):
    """The path of ``dinners build --out``: build, validate, encode."""
    cache = getattr(mods.get("howell"), "_CACHE", None)
    if cache is not None:
        cache.clear()  # each build is a fresh process: no design survives from an earlier op
    sched, count = mods["transforms"].best_feasible(instance_of(mods, inst), node_budget=PLAN_NODE_BUDGET)
    report = mods["model"].validate_schedule(sched)
    text = mods["model"].encode_schedule(sched)
    return count, report.feasible, text


def plan_check(mods, memo: Memo, inst: tuple, out) -> tuple[str, int, int]:
    count, feasible, text = out
    lbs = memo.lower_bounds(inst)
    obj = json.loads(text)
    file_inst, dinners = check.dinners_from_json(obj)
    check.require(file_inst == inst, f"{inst}: file declares instance {file_inst}")
    check.check_built(inst, dinners, count, lbs)
    check.require(feasible is True, f"{inst}: validator rejects a feasible schedule")
    return (f"plan {' '.join(map(str, inst))} dinners={count}", count,
            max(lbs["lb1"], lbs["lb2"], lbs["lb3"]))


# ---------------------------------------------------------------- certify

def certify_inputs(rng: random.Random) -> list[tuple]:
    """Every criterion-9 cell with s*c >= 12, and a quarter of the rest."""
    hard, light = [], []
    for t in range(1, 4):
        for s in range(1, 6):
            for c in range(1, 6):
                for sigma in range(1, 4):
                    for gamma in range(1, 4):
                        (hard if s * c >= 12 else light).append((t, s, c, sigma, gamma))
    cells = hard + rng.sample(light, len(light) // 4)
    rng.shuffle(cells)
    return cells


def certify_op(mods, inst: tuple):
    """The path of ``dinners solve --budget``, capped at ub_best."""
    solver = mods["solver"]
    return solver.solve_exact(instance_of(mods, inst), solver.SolveLimits(node_budget=CERTIFY_NODE_BUDGET))


def certify_check(mods, memo: Memo, inst: tuple, result) -> tuple[str, int, int]:
    ub = mods["bounds"].ub_best(instance_of(mods, inst))
    witness = plain_dinners(result.witness) if result.witness is not None else None
    check.check_solved(inst, result.status, result.value, result.lower_bound, witness, ub,
                       memo.lower_bounds(inst))
    line = (f"certify {' '.join(map(str, inst))} status={result.status} value={result.value} "
            f"lb={result.lower_bound} nodes={result.nodes}")
    return line, result.value if result.value is not None else ub, result.lower_bound


# ---------------------------------------------------------------- audit

AUDIT_BOUNDS_OPS = 10
AUDIT_FILES = 24
AUDIT_BREAKS = ("feasible", "drop", "duplicate", "extra_table")
# "  Kind: detail", one line per violation the validator lists.
VIOLATION_LINE = re.compile(r"^  (\w+): ", re.M)
AUDIT_EXPECTED = {
    "feasible": set(),
    "drop": {check.PAIR_MISSING},
    "duplicate": {check.PAIR_REPEATED},
    "extra_table": {check.TABLE_COUNT_EXCEEDED},
}


def _log_jitter(rng: random.Random, value: float, spread: float) -> int:
    return max(1, round(value * math.exp(rng.uniform(-spread, spread))))


def _bounds_instances(rng: random.Random) -> list[tuple]:
    """Rung k: sigma near 10^(5k/9), s near 10^(1+5k/9), c at twice or half s.

    The top rungs hold nearly all of the sums in gap_ratio and of the time in
    lb5, so the seed moves s, c and sigma by at most 1% and t and gamma are
    fixed per rung.  One more op seats every customer at one table (c <= gamma).
    """
    ops = []
    for k in range(AUDIT_BOUNDS_OPS):
        scale = 10 ** (5 * k / (AUDIT_BOUNDS_OPS - 1))
        sigma = 1 if k == 0 else _log_jitter(rng, scale, 0.01)
        s = _log_jitter(rng, 10 * scale, 0.01)
        c = _log_jitter(rng, 10 * scale * 2 ** (1 - 2 * (k % 2)), 0.01)
        ops.append((1 + 3 * k % 10, s, c, sigma, 1 + 5 * k % 8))
    ops.append((2, _log_jitter(rng, 10**6, 0.01), 6, _log_jitter(rng, 1000, 0.01), 8))
    return ops


def _sigma1_schedule(rng: random.Random, n: int) -> tuple[tuple, list]:
    """The n-th feasible sigma=1 schedule, built without dinners.

    s and c come from the n-th and (7n mod 24)-th of 24 strata of [60, 140],
    so every seed writes files of the same sizes.

    Supplier i meets customer group g in round (i + g) mod K, K = max(s, cg):
    a round seats m = min(s, cg) disjoint tables.  t = ceil(m/2), so each
    round is served as two dinners, the second one with m - t tables.
    """
    s = _rung(rng, n, AUDIT_FILES, 60, 140)
    c = _rung(rng, 7 * n % AUDIT_FILES, AUDIT_FILES, 60, 140)
    gamma = 1 + n % 3
    groups = [list(range(lo, min(lo + gamma, c + 1))) for lo in range(1, c + 1, gamma)]
    cg = len(groups)
    m, rounds = min(s, cg), max(s, cg)
    t = check.ceil_div(m, 2)
    dinners = []
    for r in range(rounds):
        tables = [([i + 1], groups[g]) for i in range(s) for g in [(r - i) % rounds] if g < cg]
        dinners += [tables[:t], tables[t:]]
    return (t, s, c, 1, gamma), dinners


def _broken(rng: random.Random, kind: str, t: int, dinners: list) -> list:
    dinners = [list(d) for d in dinners]
    if kind == "drop":  # a tenth of the dinners, so many pairs never meet
        for i in sorted(rng.sample(range(len(dinners)), len(dinners) // 10), reverse=True):
            del dinners[i]
    elif kind == "duplicate":  # one dinner served twice
        dinners.append(list(rng.choice(dinners)))
    elif kind == "extra_table":  # tables moved into their round's second dinner
        r = rng.randrange(len(dinners) // 2)
        first, second = dinners[2 * r], dinners[2 * r + 1]
        while len(second) <= t:
            second.append(first.pop())
    return dinners


def audit_inputs(rng: random.Random, workdir: Path) -> list[tuple]:
    """Bounds ops and validate ops, interleaved; writes the schedule files."""
    ops = [("bounds", inst) for inst in _bounds_instances(rng)]
    workdir.mkdir(parents=True, exist_ok=True)
    for n in range(AUDIT_FILES):
        kind = AUDIT_BREAKS[n % len(AUDIT_BREAKS)]
        inst, dinners = _sigma1_schedule(rng, n)
        dinners = _broken(rng, kind, inst[0], dinners)
        path = workdir / f"schedule-{n:02d}-{kind}.json"
        obj = {
            "instance": dict(zip(("t", "s", "c", "sigma", "gamma"), inst)),
            "dinners": [[{"suppliers": sups, "customers": custs} for sups, custs in d] for d in dinners],
        }
        path.write_text(json.dumps(obj, separators=(",", ":")))
        ops.append(("validate", (str(path), kind)))
    rng.shuffle(ops)
    return ops


def audit_op(mods, op: tuple):
    """One in-process ``dinners`` command; returns its exit code and stdout."""
    kind, arg = op
    argv = (["bounds", *map(str, arg), "--json"] if kind == "bounds" else ["validate", arg[0]])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mods["cli"].main(argv)
    return code, out.getvalue()


def audit_check(mods, memo: Memo, op: tuple, out) -> tuple[str, int, int]:
    kind, arg = op
    code, text = out
    if kind == "bounds":
        check.require(code == 0, f"bounds {arg}: exit code {code}")
        report = json.loads(text)
        check.check_bounds_report(arg, report, memo.lower_bounds(arg))
        return (f"bounds {' '.join(map(str, arg))} lb_best={report['lb_best']} "
                f"ub_best={report['ub_best']}", report["ub_best"], report["lb_best"])
    path, broken = arg
    n_dinners, want = memo.schedule_file(path)
    check.require(want == AUDIT_EXPECTED[broken], f"{path}: written with kinds {want}")
    lines = text.splitlines()
    if not want:
        check.require(code == 0 and lines == [f"feasible: {n_dinners} dinners"],
                      f"{path}: feasible file reported as {lines[:1]} (exit {code})")
        return f"validate {Path(path).name} feasible", 0, 0
    check.require(code == 1 and lines[0].startswith("infeasible:"),
                  f"{path}: infeasible file reported as {lines[:1]} (exit {code})")
    listed = VIOLATION_LINE.findall(text)
    check.require(set(listed) == want, f"{path}: validator lists {set(listed)}, expected {want}")
    counts = " ".join(f"{k}={listed.count(k)}" for k in sorted(want))
    return f"validate {Path(path).name} infeasible {counts}", 0, 0


WORKLOADS = {
    "plan": (lambda rng, workdir: plan_inputs(rng), plan_op, plan_check),
    "certify": (lambda rng, workdir: certify_inputs(rng), certify_op, certify_check),
    "audit": (audit_inputs, audit_op, audit_check),
}
