"""Command-line surface: outputs, exit codes, file round-trips."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dinners
from dinners.cli import main
from dinners.constructions import load_example_schedule
from dinners.model import decode_schedule, encode_schedule, validate_schedule


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse-style failures
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_human(capsys):
    code, out, _ = run(capsys, "bounds", "2", "5", "6", "2", "3")
    assert code == 0
    assert "lb_best=3 ub_best=3" in out


def test_bounds_json_roundtrip(capsys):
    code, out, _ = run(capsys, "bounds", "5", "8", "8", "1", "2")
    assert code == 0
    assert "lb1=8 lb2=4 lb3=7 lb4=3 lb5=0" in out
    code, out, _ = run(capsys, "bounds", "5", "8", "8", "1", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["lb1"] == 8 and obj["lb_best"] == 8
    assert obj["ub2"] is None
    assert all(v is None or isinstance(v, int) for v in obj.values())


def test_bounds_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "bounds", "0", "1", "1", "1", "1")
    assert code == 2
    assert "positive" in err


def test_build_auto_and_validate_file(tmp_path, capsys):
    out_file = tmp_path / "sched.json"
    code, out, _ = run(capsys, "build", "2", "5", "6", "2", "3", "--out", str(out_file))
    assert code == 0
    assert "dinners=3 optimal=yes" in out
    sched = decode_schedule(out_file.read_text())
    assert validate_schedule(sched).feasible
    code, out, _ = run(capsys, "validate", str(out_file))
    assert code == 0
    assert "feasible: 3 dinners" in out


def test_build_strategy_precondition_exit(capsys):
    code, _, err = run(capsys, "build", "1", "4", "2", "1", "5", "--strategy", "prime")
    assert code == 3
    assert "not applicable" in err


def test_build_prime_strategy(capsys):
    code, out, _ = run(capsys, "build", "1", "9", "3", "3", "1", "--strategy", "prime")
    assert code == 0
    assert "dinners=9" in out


def test_build_stdout_schedule(capsys):
    code, out, _ = run(capsys, "build", "1", "3", "2", "2", "3", "--strategy", "trivial", "--out", "-")
    assert code == 0
    # stdout carries the JSON followed by the summary line
    json_text = out[: out.index("\ndinners=") + 1]
    sched = decode_schedule(json_text)
    assert sched.dinner_count() == 2


def test_validate_infeasible_and_parse_errors(tmp_path, capsys):
    ex = load_example_schedule()
    from dinners.model import Schedule

    doubled = Schedule.of(ex.instance, list(ex.dinners) + [ex.dinners[1]])
    bad = tmp_path / "bad.json"
    bad.write_text(encode_schedule(doubled))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "PairRepeated" in out

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{oops")
    code, _, err = run(capsys, "validate", str(mangled))
    assert code == 2
    assert "parse error" in err

    code, _, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("content", [
    b"[" * 100_000 + b"]" * 100_000,
    b"\xff\xfe",
    b'{"instance":{"t":1,"s":' + b"9" * 4301 + b',"c":1,"sigma":1,"gamma":1},"dinners":[]}',
], ids=["nested_too_deep", "not_utf8", "too_many_digits"])
def test_validate_unreadable_file_is_a_parse_error(tmp_path, capsys, content):
    path = tmp_path / "schedule.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ")


def test_validate_counts_every_pair_missing_but_lists_a_capped_number(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"instance":{"t":1,"s":100000,"c":100000,"sigma":1,"gamma":1},"dinners":[]}')
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "infeasible: 10000000000 violation(s)"
    listed = re.findall(r"^  (\w+): ", out, re.M)
    assert listed == ["PairMissing"] * 10_000
    assert lines[-1] == "  (and 9999990000 more PairMissing not listed)"
    assert len(lines) == 10_002


def test_validate_prints_a_violation_total_past_the_int_digit_limit(tmp_path, capsys):
    # s*c = 10^4400 PairMissing, more digits than str(int) converts by default.
    n = "1" + "0" * 2200
    path = tmp_path / "empty.json"
    path.write_text('{"instance":{"t":1,"s":%s,"c":%s,"sigma":1,"gamma":1},"dinners":[]}' % (n, n))
    assert path.stat().st_size < 5000
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == f"infeasible: 1{'0' * 4400} violation(s)"
    assert lines[-1] == f"  (and {'9' * 4396}{'0' * 4} more PairMissing not listed)"


@pytest.mark.parametrize("argv", [["build", "1", "2", "2", "1", "1"], ["solve", "1", "2", "2", "1", "1"]],
                         ids=["build", "solve"])
def test_out_to_an_unwritable_path_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x.json"
    code, _, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert err.startswith("error: ") and "x.json" in err
    assert not path.exists()


def test_python_m_dinners_runs_the_cli():
    env_path = str(Path(dinners.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "dinners", "bounds", "1", "8", "8", "1", "1", "--json"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": env_path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["lb_best"] == 64


def test_solve_command(capsys):
    code, out, _ = run(capsys, "solve", "2", "4", "2", "2", "1")
    assert code == 0
    assert "status=Optimal value=3" in out
    code, out, _ = run(capsys, "solve", "1", "1", "2", "1", "1")
    assert code == 0
    assert "status=Optimal value=2" in out


def test_solve_deep_instance_without_traceback(capsys):
    code, out, err = run(capsys, "solve", "1", "30", "40", "1", "1", "--budget", "50000")
    assert code == 0
    assert out.startswith("status=Optimal value=1200 ")
    assert "Traceback" not in err


def test_solve_budget_exit_code(capsys):
    code, out, _ = run(capsys, "solve", "2", "5", "5", "2", "2", "--budget", "50", "--max-dinners", "4")
    assert code == 5
    assert "BudgetExhausted" in out


def test_solve_feasible_only_exits_5_with_its_witness(capsys):
    # The level budget runs out below 18, so 18 is feasible but not proven.
    code, out, _ = run(capsys, "solve", "1", "4", "5", "2", "1", "--budget", "2000",
                       "--max-dinners", "18")
    assert code == 5
    lines = out.splitlines()
    assert lines[0] == "status=FeasibleOnly value=18 nodes=5677 proven_lower_bound=14"
    assert [ln.split(":")[0] for ln in lines[1:]] == [f"  dinner {d}" for d in range(1, 19)]


def test_solve_returns_the_construction_when_no_smaller_level_is_found(capsys):
    # By default only levels below the 18-dinner construction are searched;
    # the budget cuts them, so the construction is the FeasibleOnly witness.
    code, out, _ = run(capsys, "solve", "1", "4", "5", "2", "1", "--budget", "2000")
    assert code == 5
    lines = out.splitlines()
    assert lines[0] == "status=FeasibleOnly value=18 nodes=4002 proven_lower_bound=14"
    assert [ln.split(":")[0] for ln in lines[1:]] == [f"  dinner {d}" for d in range(1, 19)]


def test_solve_stops_after_the_first_cut_level_and_one_descent_level():
    # Climbing on past the cut lb_best = 465 searched every level up to the
    # 885-dinner construction, a full budget each: minutes.  Now the climb
    # stops at 465, and the descent stops when the level below 885 is cut.
    env_path = str(Path(dinners.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "dinners", "solve", "1", "30", "30", "2", "1",
                           "--budget", "200000"],
                          capture_output=True, text=True, timeout=20,
                          env={**os.environ, "PYTHONPATH": env_path})
    assert proc.returncode == 5, proc.stderr
    assert proc.stdout.splitlines()[0] == (
        "status=FeasibleOnly value=885 nodes=400002 proven_lower_bound=465")


def test_build_of_a_design_the_cell_search_cannot_find_returns_at_once():
    # H(18,30) ran the cell search to its 20M-node default budget: minutes.
    # A cyclic starter-adder gives it in a few dozen nodes.
    env_path = str(Path(dinners.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "dinners", "build", "18", "30", "18", "2", "1"],
                          capture_output=True, text=True, timeout=5,
                          env={**os.environ, "PYTHONPATH": env_path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "dinners=18 optimal=yes"


@pytest.mark.parametrize("argv", [["solve", "1", "4", "5", "2", "1", "--budget", "2000"],
                                  ["build", "2", "5", "6", "2", "3", "--out", "-"]],
                         ids=["solve", "build"])
def test_closed_stdout_pipe_exits_141_without_a_traceback(argv):
    env_path = str(Path(dinners.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "dinners", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": env_path})
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_solve_witness_file(tmp_path, capsys):
    out_file = tmp_path / "witness.json"
    code, out, _ = run(capsys, "solve", "2", "5", "6", "2", "3", "--out", str(out_file))
    assert code == 0
    sched = decode_schedule(out_file.read_text())
    assert sched.dinner_count() == 3
    assert validate_schedule(sched).feasible


def test_reference_tables(capsys):
    code, out, _ = run(capsys, "reference-tables")
    assert code == 0
    lines = out.strip().splitlines()
    passes = [ln for ln in lines if ln.startswith("PASS")]
    # 25 bound cells + 5 dominance rows + 4 upper-bound cells
    assert len(passes) == 34
    assert not any(ln.startswith("FAIL") for ln in lines)


def test_build_auto_falls_back_when_howell_budget_runs_out(monkeypatch, capsys):
    import dinners.howell as howell

    def exhausted(m, n2, node_budget=None):
        raise howell.SearchBudgetExceeded(f"H({m},{n2}) search exceeded {node_budget} nodes")

    monkeypatch.setattr(howell, "_CACHE", {})
    monkeypatch.setattr(howell, "starter_howell", lambda m, n2, node_budget: (None, node_budget))
    monkeypatch.setattr(howell, "search_howell", exhausted)
    # The howell route needs H(8,12), which has no closed form (8 != 12 / 2):
    # with neither generator finding it, the floor of 8 is out of reach.
    code, out, _ = run(capsys, "build", "6", "12", "16", "2", "2", "--out", "-")
    assert code == 0
    assert "dinners=23 optimal=unknown" in out
    sched = decode_schedule(out[: out.index("\ndinners=") + 1])
    assert validate_schedule(sched).feasible
    # An explicit strategy still reports the exhausted budget.
    code, _, err = run(capsys, "build", "6", "12", "16", "2", "2", "--strategy", "howell")
    assert code == 4 and "budget" in err


def test_build_rejects_an_infeasible_schedule(monkeypatch, capsys):
    import dinners.transforms as transforms
    from dinners.model import Schedule

    real = transforms.build_trivial
    monkeypatch.setattr(transforms, "build_trivial",
                        lambda inst: Schedule.of(inst, real(inst).dinners[:-1]))
    code, out, err = run(capsys, "build", "1", "3", "2", "2", "3", "--strategy", "trivial")
    assert code == 1
    assert "infeasible" in err and "dinners=" not in out


def test_build_explicit_route_is_optimal_only_at_the_floor(capsys):
    # prime builds 2 dinners for c = 1, but trivial (c <= gamma) needs 1 = lb_best.
    code, out, _ = run(capsys, "build", "1", "4", "1", "4", "1", "--strategy", "prime")
    assert code == 0
    assert "dinners=2 optimal=unknown" in out
    code, out, _ = run(capsys, "build", "1", "4", "1", "4", "1", "--strategy", "trivial")
    assert code == 0
    assert "dinners=1 optimal=yes" in out


@pytest.mark.parametrize("strategy", ["caspar", "auto"])
def test_build_half_table_with_five_suppliers_is_optimal(capsys, strategy):
    # s = 5, t = 3: the stored grid stands in for the missing H(5,6).
    code, out, _ = run(capsys, "build", "3", "5", "15", "2", "1", "--strategy", strategy, "--out", "-")
    assert code == 0
    assert out.splitlines()[-1] == "dinners=22 optimal=yes"


@pytest.mark.parametrize("strategy, printed", [
    ("auto", "dinners=3 optimal=yes"),
    ("ub1", "dinners=3 optimal=yes"),
    ("eucli", "dinners=4 optimal=unknown"),
])
def test_build_generic_route_is_optimal_at_lb_best(capsys, strategy, printed):
    # No special case applies (sigma = 3, c > gamma), and lb4 = lb_best = 3.
    code, out, _ = run(capsys, "build", "2", "5", "2", "3", "1", "--strategy", strategy)
    assert code == 0
    assert printed in out


def test_solve_budget_defaults_to_two_million_nodes():
    from dinners.cli import build_parser
    from dinners.solver import SolveLimits

    assert SolveLimits().node_budget == 2_000_000
    assert build_parser().parse_args(["solve", "1", "2", "2", "1", "1"]).budget == 2_000_000
    for bad in (None, 0, 1.5):
        with pytest.raises(ValueError, match="node_budget must be a positive integer"):
            SolveLimits(node_budget=bad)


def test_solve_rejects_non_positive_budgets(capsys):
    for flag, value in [("--budget", "0"), ("--budget", "-5"), ("--timeout", "0"),
                        ("--timeout", "-1.5"), ("--timeout", "nan"),
                        ("--max-dinners", "0"), ("--max-dinners", "-5")]:
        code, _, err = run(capsys, "solve", "1", "2", "2", "1", "1", flag, value)
        assert code == 2, (flag, value)
        assert "must be positive" in err


def test_bounds_human_reports_the_lb5_argmax_at_huge_sigma(capsys):
    code, out, _ = run(capsys, "bounds", "1", "1000000", "1000000", "1000000", "3")
    assert code == 0
    assert "lb5 attained at j=4 (maximizer hint j*=4)" in out


def test_bounds_prints_values_past_the_int_digit_limit(capsys):
    # s = c = 10^3000, so lb3 = s*c has 6,001 digits, more than str(int) converts by default.
    big = "1" + "0" * 3000
    lb3 = "1" + "0" * 6000
    code, out, _ = run(capsys, "bounds", "1", big, big, "1", "1")
    assert code == 0
    assert f" lb3={lb3} " in out
    code, out, _ = run(capsys, "bounds", "1", big, big, "1", "1", "--json")
    assert code == 0
    assert json.loads(out, parse_int=str)["lb3"] == lb3
