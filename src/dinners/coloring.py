"""Proper equitable edge colorings of complete bipartite graphs.

A proper edge coloring never repeats a color at a vertex; an equitable one
has every color class of size floor(|E|/k) or ceil(|E|/k).  The schedule
builders use the color classes as dinners, so class size caps translate into
table caps.  Every graph they color is all of K_{a,b}, suppliers on the left
(the half-table leftovers are made complete by merging runs of groups into
one vertex first, see constructions), so one closed form is the only
coloring path.
"""

from __future__ import annotations

Edge = tuple[int, int]


def equitable_bipartite_coloring(a: int, b: int, k: int) -> list[list[Edge]]:
    """Color all of K_{a,b} with exactly k classes; requires k >= max(a, b).

    Left ids are 1..a, right ids 1..b, and edge (i, j) gets color
    ((i-1)*k//a + j-1) % k.  Each class is in ascending edge order.

    Left vertex i takes b <= k consecutive residues from its offset, and the
    offsets (i-1)*k//a are distinct in [0, k) since k >= a, so the coloring is
    proper.  Color x goes to the i whose offset lies in the b residues ending
    at x; extending the offsets with period a (shifted by k) turns these into
    the integers i-1 of one real interval of length ab/k, so every class has
    floor(ab/k) or ceil(ab/k) edges.
    """
    if k < max(a, b, 1):
        raise ValueError(f"K_{{{a},{b}}} needs at least max(a,b,1)={max(a, b, 1)} colors, got {k}")
    by_color: list[list[Edge]] = [[] for _ in range(k)]
    for i in range(1, a + 1):
        offset = (i - 1) * k // a - 1
        for j in range(1, b + 1):
            by_color[(offset + j) % k].append((i, j))
    return by_color
