"""Benchmark of the dinners package: one command, one process, one thread.

    python3 benchmarks/run.py --workload plan --seed 1 --seconds 20 --trace 0

Imports ``dinners`` from ``src/`` of the checkout, builds the workload's op
list from the seed, repeats whole rounds of it until ``--seconds`` of timed
work have passed, checks every output after its round, and prints one JSON
object as the last line of standard output.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics instead;
``--digest`` runs one round and prints each op's deterministic output.
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("bounds", "model", "howell", "coloring", "constructions", "transforms", "solver", "cli")
# Set-up is repeated and its median reported: one import of the package is
# tens of milliseconds, too short to read steadily once.
SETUP_REPEATS = 5
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "gap_ratio": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
OVERHEAD = ("trace.overhead_pct", "%", "lower")


def import_dinners() -> dict:
    """A fresh import of every dinners module from this checkout's src/."""
    if not (SRC / "dinners" / "__init__.py").is_file():
        raise SystemExit(f"error: no dinners package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "dinners" or n.startswith("dinners.")]:
        del sys.modules[name]
    package = importlib.import_module("dinners")
    if Path(package.__file__).resolve().parent != (SRC / "dinners").resolve():
        raise SystemExit(f"error: dinners imported from {package.__file__}, not {SRC}")
    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module(f"dinners.{name}")
        except ModuleNotFoundError:  # a later layout may drop a module; its layer then reads 0
            pass
    return mods


def set_up(name: str, seed: int, workdir: Path) -> tuple[float, dict, list]:
    make_inputs = workloads.WORKLOADS[name][0]
    start = time.perf_counter()
    mods = import_dinners()
    ops = make_inputs(random.Random(seed), workdir)
    return time.perf_counter() - start, mods, ops


def run_round(mods: dict, op, ops: list) -> tuple[float, list]:
    outs = []
    start = time.perf_counter()
    for x in ops:
        try:
            outs.append(op(mods, x))
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            outs.append(exc)
    return time.perf_counter() - start, outs


class Tally:
    """Checked outcomes of every round, and the first round's digest."""

    def __init__(self, mods: dict, check_fn):
        self.mods, self.check_fn = mods, check_fn
        self.memo = workloads.Memo()
        self.attempted = self.failed = 0
        self.digest: list[str] | None = None
        self.repeats = True
        self.upper = self.lower = 0

    def add(self, ops: list, outs: list) -> None:
        lines, upper, lower = [], 0, 0
        for x, out in zip(ops, outs):
            self.attempted += 1
            try:
                if isinstance(out, Exception):
                    raise out
                line, up, lo = self.check_fn(self.mods, self.memo, x, out)
            except Exception:
                self.failed += 1
                if self.failed <= 5:
                    print(f"op {x!r} failed:\n{traceback.format_exc()}", file=sys.stderr)
                lines.append(f"FAILED {x!r}")
                continue
            lines.append(line)
            upper, lower = upper + up, lower + lo
        if self.digest is None:
            self.digest, self.upper, self.lower = lines, upper, lower
        elif lines != self.digest:  # builders and solver promise the same outputs every time
            self.repeats = False
            print("outputs differ from the first round's", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true", help="run one round and print each op's output")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _, op, check_fn = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"inputs-{args.workload}-{args.seed}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, mods, ops = set_up(args.workload, args.seed, workdir)
            setups.append(elapsed)
        tally = Tally(mods, check_fn)
        if args.digest:
            tally.add(ops, run_round(mods, op, ops)[1])
            print("\n".join(tally.digest))
            print(f"# {args.workload} seed={args.seed}: {tally.attempted} ops, {tally.failed} failed")
            return 1 if tally.failed else 0

        recorder = spans.Recorder()
        measured = {False: [], True: []}  # round times, untraced and traced
        # Whole rounds only, so every run attempts each op equally often; stop
        # when one more round would end further past --seconds than short of it.
        while not measured[False] or (args.trace and not measured[True]) or (
                sum(measured[False] + measured[True]) + statistics.mean(measured[False]) / 2
                < args.seconds):
            traced = bool(args.trace) and len(measured[True]) < len(measured[False])
            if traced:
                recorder.install(mods)
            try:
                elapsed, outs = run_round(mods, op, ops)
            finally:
                recorder.remove()
            measured[traced].append(elapsed)
            tally.add(ops, outs)

        rate = {k: len(v) * len(ops) / sum(v) for k, v in measured.items() if v}
        if args.trace:
            OUT.mkdir(exist_ok=True)
            recorder.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            metrics = spans.layer_metrics(recorder.spans, len(measured[True]))
            metrics[OVERHEAD[0]] = (100 * (rate[False] - rate[True]) / rate[False],) + OVERHEAD[1:]
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": rate[False],
                "gap_ratio": tally.upper / tally.lower if tally.lower else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: (v,) + END_TO_END[k] for k, v in metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": tally.repeats,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
