"""Howell design generation, validity axioms, and nonexistence proofs."""

import pytest

from dinners.howell import (
    HowellDesign,
    SearchBudgetExceeded,
    generate_howell,
    howell_exists,
    latin_howell,
    search_howell,
    validate_howell,
)


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
    import dinners.howell as howell

    calls = []
    monkeypatch.setattr(howell, "_CACHE", {})
    monkeypatch.setattr(howell, "search_howell",
                        lambda m, n2, budget: calls.append(budget) or search_howell(m, n2, budget))
    for budget in (200, 100, 200, 400):
        with pytest.raises(SearchBudgetExceeded):
            generate_howell(9, 10, budget)
    assert calls == [200, 400]  # budgets no larger than a failed one raise at once
    design = generate_howell(9, 10, None)
    assert validate_howell(design) == [] and generate_howell(9, 10, 1) is design


def _recording_search(monkeypatch) -> list:
    import dinners.howell as howell

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
    shapes = [(6, 12), (10, 20), (6, 10), (7, 12), (9, 10), (15, 16)]  # n = 2 mod 4, or m > n
    for m, n2 in shapes:
        with pytest.raises(SearchBudgetExceeded):
            generate_howell(m, n2, node_budget=1)
    assert calls == shapes
