"""Span recorder for the traced benchmark run.

Wraps the module attributes through which ``dinners`` code (and the
benchmark) calls each layer, so no program file changes.  A span records its
name, start, end and parent; spans stay in memory and are written out once
the run ends.  Work the recorder does for itself between spans (counting
seats) is kept off the span clock, so it shows in no layer's time.
"""

from __future__ import annotations

import functools
import json
import time

# (module, attribute, span name).  The module is the one the caller looks the
# name up in: ``dinners.constructions`` imports ``generate_howell`` and
# ``color_bipartite_edges`` by name, ``dinners.transforms`` imports
# ``dispatch_optimal`` and two builders, ``dinners.cli`` imports the codec and
# reaches bounds through the module object.  A span's layer is its name's
# first dotted part.
WRAPPED = (
    ("howell", "search_howell", "howell.search_howell"),
    ("constructions", "generate_howell", "howell.generate_howell"),
    ("constructions", "color_bipartite_edges", "coloring.color_bipartite_edges"),
    ("constructions", "build_trivial", "constructions.build_trivial"),
    ("constructions", "build_sigma1", "constructions.build_sigma1"),
    ("constructions", "build_howell_schedule", "constructions.build_howell_schedule"),
    ("constructions", "build_cas_par", "constructions.build_cas_par"),
    ("constructions", "build_prime", "constructions.build_prime"),
    ("transforms", "dispatch_optimal", "constructions.dispatch_optimal"),
    ("transforms", "build_howell_schedule", "constructions.build_howell_schedule"),
    ("transforms", "build_sigma1", "constructions.build_sigma1"),
    ("transforms", "best_feasible", "transforms.best_feasible"),
    ("transforms", "build_ub1", "transforms.build_ub1"),
    ("transforms", "build_ub2", "transforms.build_ub2"),
    ("transforms", "build_eucli", "transforms.build_eucli"),
    ("transforms", "split_tables", "transforms.split_tables"),
    ("transforms", "split_sigma", "transforms.split_sigma"),
    ("transforms", "concat_suppliers", "transforms.concat_suppliers"),
    ("solver", "solve_exact", "solver.solve_exact"),
    ("bounds", "compute_bounds", "bounds.compute_bounds"),
    ("bounds", "lb_best", "bounds.lb_best"),
    ("bounds", "ub_best", "bounds.ub_best"),
    ("bounds", "lb5", "bounds.lb5"),
    ("model", "validate_schedule", "model.validate_schedule"),
    ("model", "encode_schedule", "model.encode_schedule"),
    ("cli", "decode_schedule", "model.decode_schedule"),
    ("cli", "validate_schedule", "model.validate_schedule"),
    ("cli", "main", "cli.main"),
)

ROUTES = ("constructions.dispatch_optimal", "transforms.build_ub1",
          "transforms.build_ub2", "transforms.build_eucli")


def seats(sched) -> int:
    """People seated summed over every table of every evening."""
    return sum(len(tab.suppliers) + len(tab.customers) for d in sched.dinners for tab in d.tables)


def _note(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Per-call counts taken from arguments and results."""
    def arg(i: int, key: str):
        return args[i] if len(args) > i else kwargs[key]

    if name == "howell.search_howell":
        return {"found": result is not None}
    if name == "coloring.color_bipartite_edges":
        return {"edges": len(arg(2, "edges"))}
    if name in ("model.validate_schedule", "model.encode_schedule"):
        note = {"seats": seats(arg(0, "sched"))}
        if name == "model.validate_schedule":
            note["violations"] = len(result.violations)
        return note
    if name == "model.decode_schedule":
        return {"seats": seats(result)}
    if name == "solver.solve_exact":
        return {"nodes": result.nodes, "status": result.status}
    if name == "constructions.dispatch_optimal":
        return {"built": result is not None}
    return {}


class Recorder:
    """Collects spans from wrapped functions; ``install`` and ``remove`` swap them in and out."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._paused = 0.0
        self._saved: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def install(self, modules: dict) -> None:
        for mod_name, attr, span_name in WRAPPED:
            original = getattr(modules.get(mod_name), attr, None)
            if original is None:
                continue  # not in this version of the program: its spans read 0
            module = modules[mod_name]
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = self.now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = self.now()
                span["raised"] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            span["end"] = self.now()
            paused = time.perf_counter()
            span.update(_note(name, args, kwargs, result))
            self._paused += time.perf_counter() - paused
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[dict], rounds: int) -> dict:
    """Per-layer metrics from the spans of ``rounds`` traced rounds of one op list.

    Times and counts are per round; rates and ratios are over all spans.  A
    layer the workload never calls reads 0.
    """
    duration = {sp["id"]: sp["end"] - sp["start"] for sp in spans}
    child_time: dict[int, float] = {}
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] = child_time.get(sp["parent"], 0.0) + duration[sp["id"]]
    self_time: dict[str, float] = {}
    for sp in spans:
        layer = sp["name"].split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + duration[sp["id"]] - child_time.get(sp["id"], 0.0)

    def named(name):
        return [sp for sp in spans if sp["name"] == name]

    def total(group, key=None):
        return sum(sp.get(key, 0) if key else duration[sp["id"]] for sp in group)

    def ratio(a, b):
        return a / b if b else 0.0

    searches = named("howell.search_howell")
    colorings = named("coloring.color_bipartite_edges")
    plans = named("transforms.best_feasible")
    plan_ids = {sp["id"] for sp in plans}
    routes = [sp for sp in spans if sp["name"] in ROUTES and sp["parent"] in plan_ids
              and "raised" not in sp and sp.get("built", True)]
    solves = [sp for sp in named("solver.solve_exact") if "raised" not in sp]
    optimal = [sp for sp in solves if sp["status"] == "Optimal"]
    computes = named("bounds.compute_bounds")
    compute_ids = {sp["id"] for sp in computes}
    lb5_in_compute = [sp for sp in named("bounds.lb5") if _has_ancestor(sp, compute_ids, spans)]
    decodes = [sp for sp in named("model.decode_schedule") if "raised" not in sp]
    validates = [sp for sp in named("model.validate_schedule") if "raised" not in sp]
    encodes = [sp for sp in named("model.encode_schedule") if "raised" not in sp]
    return {
        "howell.search_s": (total(searches) / rounds, "s", "lower"),
        "howell.searches": (len(searches) / rounds, "count", "lower"),
        "howell.found_ratio": (ratio(sum(1 for sp in searches if sp.get("found")), len(searches)),
                               "ratio", "higher"),
        "coloring.s": (total(colorings) / rounds, "s", "lower"),
        "coloring.edges_per_s": (ratio(total(colorings, "edges"), total(colorings)), "1/s", "higher"),
        "constructions.self_s": (self_time.get("constructions", 0.0) / rounds, "s", "lower"),
        "transforms.self_s": (self_time.get("transforms", 0.0) / rounds, "s", "lower"),
        "transforms.routes_per_plan": (ratio(len(routes), len(plans)), "ratio", "lower"),
        "solver.nodes": (total(solves, "nodes") / rounds, "count", "lower"),
        "solver.nodes_per_s": (ratio(total(solves, "nodes"), total(solves)), "1/s", "higher"),
        "solver.nodes_per_optimal": (ratio(total(optimal, "nodes"), len(optimal)), "count", "lower"),
        "solver.optimal_cells": (len(optimal) / rounds, "count", "higher"),
        "bounds.compute_us": (ratio(total(computes), len(computes)) * 1e6, "us", "lower"),
        "bounds.lb5_calls_per_compute": (ratio(len(lb5_in_compute), len(computes)), "ratio", "lower"),
        "model.decode_us_per_seat": (ratio(total(decodes), total(decodes, "seats")) * 1e6, "us", "lower"),
        "model.validate_us_per_seat": (ratio(total(validates), total(validates, "seats")) * 1e6,
                                       "us", "lower"),
        "model.violations_listed": (total(validates, "violations") / rounds, "count", "lower"),
        "model.encode_us_per_seat": (ratio(total(encodes), total(encodes, "seats")) * 1e6, "us", "lower"),
        "cli.self_s": (self_time.get("cli", 0.0) / rounds, "s", "lower"),
    }


def _has_ancestor(span: dict, ids: set, spans: list[dict]) -> bool:
    parent = span["parent"]
    while parent is not None:
        if parent in ids:
            return True
        parent = spans[parent]["parent"]
    return False
