"""Proper equitable edge colorings of bipartite graphs.

A proper edge coloring never repeats a color at a vertex; an equitable one
has every color class of size floor(|E|/k) or ceil(|E|/k).  For bipartite
graphs any k >= max degree admits such a coloring; the schedule builders use
the color classes as dinners, so class size caps translate into table caps.
Complete bipartite graphs, the common case, are colored by a closed form;
other edge sets by alternating-path insertion and rebalancing.
"""

from __future__ import annotations

Edge = tuple[int, int]


class _Board:
    """Mutable left/right incidence tables for one coloring in progress."""

    def __init__(self, a: int, b: int, k: int):
        self.k = k
        # luse[i][col] = right endpoint of i's col-colored edge, or 0.
        self.luse = [[0] * k for _ in range(a + 1)]
        self.ruse = [[0] * k for _ in range(b + 1)]
        self.sizes = [0] * k

    def assign(self, i: int, j: int, col: int) -> None:
        self.luse[i][col] = j
        self.ruse[j][col] = i
        self.sizes[col] += 1

    def unassign(self, i: int, j: int, col: int) -> None:
        self.luse[i][col] = 0
        self.ruse[j][col] = 0
        self.sizes[col] -= 1


def _insert(board: _Board, colors: dict[Edge, int], i: int, j: int) -> None:
    free_i = [col for col in range(board.k) if not board.luse[i][col]]
    free_j = {col for col in range(board.k) if not board.ruse[j][col]}
    if not free_i or not free_j:
        raise ValueError("color count below maximum degree")
    common = [col for col in free_i if col in free_j]
    if common:
        colors[(i, j)] = common[0]
        board.assign(i, j, common[0])
        return
    alpha = free_i[0]
    beta = min(free_j)
    # Flip the alpha/beta alternating path starting at right node j.  Left
    # nodes are only entered along alpha edges and i lacks alpha, so the path
    # never reaches i; afterwards alpha is free at both ends.
    path: list[tuple[int, int, int]] = []
    node, side, col = j, "right", alpha
    while True:
        if side == "right":
            nxt = board.ruse[node][col]
            if not nxt:
                break
            path.append((nxt, node, col))
            node, side, col = nxt, "left", beta
        else:
            nxt = board.luse[node][col]
            if not nxt:
                break
            path.append((node, nxt, col))
            node, side, col = nxt, "right", alpha
    for li, rj, col in path:
        board.unassign(li, rj, col)
    for li, rj, col in path:
        swapped = beta if col == alpha else alpha
        colors[(li, rj)] = swapped
        board.assign(li, rj, swapped)
    colors[(i, j)] = alpha
    board.assign(i, j, alpha)


def _component_from(
    board: _Board, start: tuple[str, int], x: int, y: int
) -> list[tuple[int, int, int]]:
    """Walk the x/y-colored path starting at an endpoint vertex."""
    edges: list[tuple[int, int, int]] = []
    side, node = start
    prev_col = None
    while True:
        col = None
        table = board.luse if side == "left" else board.ruse
        for cand in (x, y):
            if cand != prev_col and table[node][cand]:
                col = cand
                break
        if col is None:
            return edges
        other = table[node][col]
        if side == "left":
            edges.append((node, other, col))
            side = "right"
        else:
            edges.append((other, node, col))
            side = "left"
        node = other
        prev_col = col


def _rebalance(board: _Board, colors: dict[Edge, int], a: int, b: int) -> None:
    """Move edges from large classes to small ones along alternating paths."""
    while max(board.sizes) - min(board.sizes) >= 2:
        x = board.sizes.index(max(board.sizes))
        y = board.sizes.index(min(board.sizes))
        flipped = False
        # Path endpoints carry exactly one of the two colors; since class x
        # outweighs class y by >= 2, some path has one more x- than y-edge.
        for side, n in (("left", a), ("right", b)):
            table = board.luse if side == "left" else board.ruse
            for node in range(1, n + 1):
                has_x = bool(table[node][x])
                has_y = bool(table[node][y])
                if has_x == has_y:
                    continue
                comp = _component_from(board, (side, node), x, y)
                nx = sum(1 for _, _, col in comp if col == x)
                ny = len(comp) - nx
                if nx != ny + 1:
                    continue
                for li, rj, col in comp:
                    board.unassign(li, rj, col)
                for li, rj, col in comp:
                    swapped = y if col == x else x
                    colors[(li, rj)] = swapped
                    board.assign(li, rj, swapped)
                flipped = True
                break
            if flipped:
                break
        if not flipped:
            raise AssertionError("rebalancing invariant broken")


def _color_complete(a: int, b: int, k: int) -> list[list[Edge]]:
    """Closed-form coloring of all of K_{a,b}: edge (i, j) gets color
    ((i-1)*k//a + j-1) % k.

    Left vertex i takes b <= k consecutive residues from its offset, and the
    offsets (i-1)*k//a are distinct in [0, k) since k >= a, so the coloring is
    proper.  Color x goes to the i whose offset lies in the b residues ending
    at x; extending the offsets with period a (shifted by k) turns these into
    the integers i-1 of one real interval of length ab/k, so every class has
    floor(ab/k) or ceil(ab/k) edges.
    """
    if k < max(a, b):
        raise ValueError(f"K_{{{a},{b}}} needs at least max(a,b)={max(a, b)} colors, got {k}")
    by_color: list[list[Edge]] = [[] for _ in range(k)]
    for i in range(1, a + 1):
        offset = (i - 1) * k // a - 1
        for j in range(1, b + 1):
            by_color[(offset + j) % k].append((i, j))
    return by_color


def color_bipartite_edges(a: int, b: int, edges: list[Edge], k: int) -> list[list[Edge]]:
    """Properly and equitably color the given bipartite edges with k classes.

    Left ids are 1..a, right ids 1..b; requires k >= max degree.  Returns the
    color classes (possibly empty ones when k > |E|), each in ascending edge
    order.  All of K_{a,b} is colored in closed form; any other edge set by
    alternating-path insertion and rebalancing.
    """
    if k < 1:
        raise ValueError("need at least one color")
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edges are not supported")
    for i, j in edges:
        if not 1 <= i <= a or not 1 <= j <= b:
            raise ValueError(f"edge ({i},{j}) out of range")
    if edges and len(edges) == a * b:
        return _color_complete(a, b, k)
    board = _Board(a, b, k)
    colors: dict[Edge, int] = {}
    for i, j in sorted(edges):
        _insert(board, colors, i, j)
    _rebalance(board, colors, a, b)
    by_color: list[list[Edge]] = [[] for _ in range(k)]
    for edge in sorted(colors):
        by_color[colors[edge]].append(edge)
    return by_color


def equitable_bipartite_coloring(a: int, b: int, k: int) -> list[list[Edge]]:
    """Color all of K_{a,b} with exactly k classes; requires k >= max(a, b)."""
    edges = [(i, j) for i in range(1, a + 1) for j in range(1, b + 1)]
    return color_bipartite_edges(a, b, edges, k)
