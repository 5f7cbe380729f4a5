"""Proper equitable edge colorings of complete bipartite graphs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dinners.coloring import equitable_bipartite_coloring


def check_proper_equitable(a, b, k, classes, expected_edges):
    got = sorted(e for cls in classes for e in cls)
    assert got == sorted(expected_edges)
    assert len(classes) == k
    sizes = sorted(len(cls) for cls in classes)
    assert sizes[-1] - sizes[0] <= 1
    total = len(expected_edges)
    assert sizes[-1] == -(-total // k) or total == 0
    for cls in classes:
        lefts = [i for i, _ in cls]
        rights = [j for _, j in cls]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)


def complete(a, b):
    return [(i, j) for i in range(1, a + 1) for j in range(1, b + 1)]


def test_square_with_minimum_colors():
    col = equitable_bipartite_coloring(3, 3, 3)
    check_proper_equitable(3, 3, 3, col, complete(3, 3))
    assert all(len(cls) == 3 for cls in col)


def test_square_with_extra_colors():
    col = equitable_bipartite_coloring(3, 3, 5)
    check_proper_equitable(3, 3, 5, col, complete(3, 3))
    assert sorted(len(cls) for cls in col) == [1, 2, 2, 2, 2]


def test_rectangle():
    col = equitable_bipartite_coloring(2, 4, 4)
    check_proper_equitable(2, 4, 4, col, complete(2, 4))
    assert all(len(cls) == 2 for cls in col)


def test_rejects_too_few_colors():
    with pytest.raises(ValueError):
        equitable_bipartite_coloring(3, 4, 3)


def test_complete_sweep():
    for a in range(1, 9):
        for b in range(1, 9):
            for k in range(max(a, b), 21):
                col = equitable_bipartite_coloring(a, b, k)
                check_proper_equitable(a, b, k, col, complete(a, b))


def test_deterministic():
    a = equitable_bipartite_coloring(5, 7, 9)
    b = equitable_bipartite_coloring(5, 7, 9)
    assert a == b


@given(a=st.integers(1, 40), b=st.integers(1, 40), extra=st.integers(0, 60))
def test_complete_graph_closed_form(a, b, extra):
    k = max(a, b) + extra
    classes = equitable_bipartite_coloring(a, b, k)
    check_proper_equitable(a, b, k, classes, complete(a, b))
    assert all(cls == sorted(cls) for cls in classes)
    with pytest.raises(ValueError):
        equitable_bipartite_coloring(a, b, max(a, b) - 1)
