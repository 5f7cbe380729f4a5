"""Howell design generation, validity axioms, and nonexistence proofs."""

import hashlib

import pytest

import dinners.howell as howell
from dinners.howell import (
    HowellDesign,
    SearchBudgetExceeded,
    generate_howell,
    howell_exists,
    latin_howell,
    search_howell,
    validate_howell,
)
from dinners.model import Instance, validate_schedule
from dinners.transforms import best_feasible


def test_existence_characterization():
    assert howell_exists(1, 2)
    assert howell_exists(3, 6)
    assert howell_exists(7, 8)
    assert not howell_exists(2, 4)
    assert not howell_exists(3, 4)
    assert not howell_exists(5, 6)
    assert not howell_exists(5, 8)
    assert not howell_exists(1, 4)  # m < n
    assert not howell_exists(4, 4)  # m > 2n-1
    with pytest.raises(ValueError):
        howell_exists(3, 5)


def test_generate_small_designs_are_valid():
    for m, n2 in [(1, 2), (3, 6), (4, 6), (4, 8), (5, 10), (6, 8)]:
        design = generate_howell(m, n2)
        assert design is not None
        assert validate_howell(design) == []


def test_generate_returns_none_for_nonexistent():
    assert generate_howell(2, 4) is None
    assert generate_howell(5, 8) is None
    assert generate_howell(1, 6) is None


def test_exhaustive_search_proves_small_nonexistence():
    assert search_howell(2, 4) is None
    assert search_howell(3, 4) is None


def test_budget_exhaustion_is_distinct():
    with pytest.raises(SearchBudgetExceeded):
        search_howell(9, 10, node_budget=50)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # H(50,100) has 50 cells a row: the budget runs out more than a thousand
    # cells deep, past Python's default recursion limit.
    with pytest.raises(SearchBudgetExceeded):
        search_howell(50, 100, 10_000)
    sched, count = best_feasible(Instance(50, 100, 50, 2, 1), node_budget=10_000)
    assert validate_schedule(sched).feasible and count == sched.dinner_count()


def test_search_is_deterministic():
    a = search_howell(6, 8, node_budget=50_000_000)
    b = search_howell(6, 8, node_budget=50_000_000)
    assert a == b


def test_validate_howell_catches_broken_arrays():
    design = generate_howell(3, 6)
    cells = [list(row) for row in design.cells]
    # duplicate a pair somewhere else
    pair = next(c for c in cells[0] if c)
    empty_spots = [
        (r, k) for r in range(3) for k in range(3) if cells[r][k] is None
    ]
    if empty_spots:
        r, k = empty_spots[0]
        cells[r][k] = pair
    else:
        cells[1][0] = pair
    broken = HowellDesign(3, 6, tuple(tuple(row) for row in cells))
    assert validate_howell(broken) != []

    # symbol out of range
    cells = [list(row) for row in design.cells]
    r, k = next((r, k) for r in range(3) for k in range(3) if cells[r][k])
    cells[r][k] = (1, 99)
    broken = HowellDesign(3, 6, tuple(tuple(row) for row in cells))
    assert any("invalid pair" in p for p in validate_howell(broken))


def test_failed_search_is_cached_per_budget(monkeypatch):
    # Z_6 has no cyclic starter-adder for H(6,8), which the starter proves in
    # a few nodes; the cell search gets the rest of the budget.
    design, spent = howell.starter_howell(6, 8, 1_000)
    assert design is None and 0 < spent < 100
    calls = []
    monkeypatch.setattr(howell, "_CACHE", {})
    monkeypatch.setattr(howell, "search_howell",
                        lambda m, n2, budget: calls.append(budget) or search_howell(m, n2, budget))
    for budget in (200, 100, 200, 400):
        with pytest.raises(SearchBudgetExceeded):
            generate_howell(6, 8, budget)
    assert calls == [200 - spent, 100 - spent, 400 - spent]  # a cut budget raises at once when asked again
    calls.clear()
    # The cell search finds H(6,8) after 1,166 nodes.  A found design comes
    # back at once only at its own budget: any other budget searches.
    design = generate_howell(6, 8, 2_000)
    assert validate_howell(design) == [] and generate_howell(6, 8, 2_000) is design
    with pytest.raises(SearchBudgetExceeded):
        generate_howell(6, 8, 1_000)
    assert generate_howell(6, 8, 20_000) == design
    assert calls == [2_000 - spent, 1_000 - spent, 20_000 - spent]
    calls.clear()
    with pytest.raises(SearchBudgetExceeded):
        generate_howell(14, 16, 1_001)  # the starter runs out of its half
    assert calls == [501]


def _recording_search(monkeypatch) -> list:
    calls = []

    def exhausted(m, n2, node_budget=None):
        calls.append((m, n2))
        raise SearchBudgetExceeded(f"H({m},{n2}) search exceeded {node_budget} nodes")

    monkeypatch.setattr(howell, "_CACHE", {})
    monkeypatch.setattr(howell, "search_howell", exhausted)
    return calls


def test_closed_form_designs_are_valid_and_never_searched(monkeypatch):
    calls = _recording_search(monkeypatch)
    covered = [n for n in range(1, 129) if n % 4 != 2]
    for n in covered:
        design = generate_howell(n, 2 * n, node_budget=1)
        assert (design.m, design.n2) == (n, 2 * n)
        assert validate_howell(design) == [], n
        assert generate_howell(n, 2 * n, node_budget=1) is design  # cached
    assert calls == []
    assert all(latin_howell(n) is None for n in range(2, 129, 4))


def test_shapes_without_a_closed_form_are_searched(monkeypatch):
    calls = _recording_search(monkeypatch)
    # n = 2 mod 4 with m = n, odd m = n + 1, and two shapes whose starter
    # search space is exhausted.
    shapes = [(10, 20), (14, 28), (7, 12), (9, 16), (6, 8), (8, 10)]
    for m, n2 in shapes:
        with pytest.raises(SearchBudgetExceeded):
            generate_howell(m, n2, node_budget=10_000)
    assert calls == shapes


def test_starter_designs_are_valid_normal_and_deterministic(monkeypatch):
    # Every shape m > n with 2n <= 40 that the starter builds inside the
    # 10k-node budget best_feasible gets in the plan benchmark, search off.
    calls = _recording_search(monkeypatch)
    built = {}
    for n2 in range(4, 41, 2):
        n = n2 // 2
        for m in range(n + 1, n2):
            if not howell_exists(m, n2):
                continue
            try:
                design = generate_howell(m, n2, 10_000)
            except SearchBudgetExceeded:
                continue
            assert validate_howell(design) == [], (m, n2)
            assert design.cells[0][:n] == tuple((2 * i + 1, 2 * i + 2) for i in range(n)), (m, n2)
            assert all(1 in design.cells[r][r] for r in range(m)), (m, n2)
            built[m, n2] = design
    assert len(built) + len(calls) == sum(1 for n2 in range(4, 41, 2) for m in range(n2 // 2 + 1, n2)
                                          if howell_exists(m, n2))
    assert {(12, 22), (17, 30), (18, 30), (23, 38), (24, 38), (9, 10), (15, 16)} <= set(built)
    assert len(built) >= 150  # of 187
    monkeypatch.setattr(howell, "_CACHE", {})
    for (m, n2), design in built.items():
        assert generate_howell(m, n2, 10_000) == design, (m, n2)


def test_stored_h6_12_is_the_searched_design(monkeypatch):
    monkeypatch.setattr(howell, "_CACHE", {})
    stored = generate_howell(6, 12, node_budget=1)
    assert stored == search_howell(6, 12, 100_000)
    assert validate_howell(stored) == [] and howell._CACHE == {}


@pytest.mark.parametrize("budget", [2_000, 10_000])
def test_small_searched_shapes_are_found_at_small_budgets(budget):
    for m, n2 in [(4, 6), (6, 8)]:
        assert validate_howell(generate_howell(m, n2, budget)) == []


@pytest.mark.parametrize("bad", [None, True, 0, -5, 2_000.0, "2000"])
def test_budget_must_be_a_positive_int(bad):
    for m, n2 in [(3, 6), (6, 8)]:  # a closed form and a searched shape
        with pytest.raises(ValueError, match="node_budget must be a positive integer"):
            generate_howell(m, n2, bad)
    with pytest.raises(ValueError, match="node_budget must be a positive integer"):
        search_howell(6, 8, bad)
    # Not a TypeError from halving the budget for the starter.
    with pytest.raises(ValueError, match="node_budget must be a positive integer"):
        best_feasible(Instance(5, 10, 8, 2, 1), bad)
    # Checked on entry, also where the walk stops before any Howell route.
    with pytest.raises(ValueError, match="node_budget must be a positive integer"):
        best_feasible(Instance(4, 12, 20, 1, 3), bad)


# (m, 2n, node budget, outcome, nodes of each restart, digest of every
# restart's grid where it stopped), recorded before the search kernel was
# rewritten for speed.  A cut restart stops at its cap + 1 nodes whatever the
# tree, so the grid it was cut on is what pins its path; for a found design
# the last grid is the design.  Budgets above 8,000 run seeded restarts.
PINNED_SEARCHES = [
    (4, 6, 100_000, "found", [9], "bc647381ca77e213"),
    (6, 8, 100_000, "found", [1166], "d9f68ce6d486c3cd"),
    (6, 12, 100_000, "found", [8001, 6064], "e2c480699da4d1b1"),
    (7, 12, 100_000, "found", [8001] * 8 + [2635], "dd081c27e1300b17"),
    (5, 6, 100_000, "absent", [418], "030fd949869daa19"),
    (5, 8, 100_000, "cut", [8001] * 12 + [3989], "3ba72dd9fc4110f9"),
    (18, 30, 10_000, "cut", [8001, 2000], "3792eaa8512cfee9"),
    (30, 46, 10_000, "cut", [8001, 2000], "a63cd4fe2ab930d7"),
]


def _grid_digest(grids) -> str:
    return hashlib.sha256(repr(grids).encode()).hexdigest()[:16]


@pytest.mark.parametrize("m, n2, budget, outcome, nodes, digest", PINNED_SEARCHES)
def test_search_tree_is_pinned(monkeypatch, m, n2, budget, outcome, nodes, digest):
    restarts = []

    class Recorded(howell._Search):
        def __init__(self, *args):
            super().__init__(*args)
            restarts.append(self)

    monkeypatch.setattr(howell, "_Search", Recorded)
    try:
        design = search_howell(m, n2, budget)
        got = "absent" if design is None else "found"
    except SearchBudgetExceeded:
        design, got = None, "cut"
    assert got == outcome
    assert [s.nodes for s in restarts] == nodes
    assert _grid_digest([s.grid for s in restarts]) == digest
    if design is not None:
        assert validate_howell(design) == []
        assert [list(row) for row in design.cells] == restarts[-1].grid


def test_one_exhaustive_pass_proves_h58_absent():
    search = howell._Search(5, 8, 100_000)
    assert search.run() is None
    assert search.nodes == 28_900
    assert _grid_digest(search.grid) == "ba1896ef35f7e5ee"  # only the fixed row 0 is left
