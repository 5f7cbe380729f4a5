"""Generation of Howell designs H(m, 2n).

An H(m, 2n) is an m x m array where every cell is empty or holds an unordered
pair of symbols from 1..2n, every symbol occurs exactly once in each row and
each column, and every unordered pair occurs at most once.  Such a design
exists iff n <= m <= 2n-1 and (m, 2n) is not one of four small exceptions.

H(n, 2n) with n odd or divisible by 4 is built in closed form from two
orthogonal Latin squares, and H(6, 12) is stored.  Every other shape is
first developed from a cyclic starter-adder over Z_m, found by backtracking,
and only then, if none turns up, found by a backtracking search over cells.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_NODE_BUDGET = 20_000_000

NONEXISTENT_EXCEPTIONS = frozenset({(2, 4), (3, 4), (5, 6), (5, 8)})


class SearchBudgetExceeded(RuntimeError):
    """The backtracking search ran out of its node budget before an answer."""


class _Found(Exception):
    """Raised out of a search frame that has reached an answer."""


def run_frames(root) -> bool:
    """Drive a depth-first search of generator frames: True on _Found, else
    False once every frame is exhausted.

    A frame yields its children's frames and undoes its own move when
    resumed; a loop drives a list of them, so the search depth is not
    limited by Python's recursion limit.
    """
    stack = [root]
    push, pop = stack.append, stack.pop
    try:
        while stack:
            for child in stack[-1]:
                push(child)
                break
            else:
                pop()
    except _Found:
        return True
    return False


@dataclass(frozen=True)
class HowellDesign:
    m: int
    n2: int
    cells: tuple[tuple[tuple[int, int] | None, ...], ...]


def howell_exists(m: int, n2: int) -> bool:
    """Existence per the complete characterization of H(m, 2n)."""
    if n2 < 2 or n2 % 2:
        raise ValueError("symbol count must be a positive even integer")
    n = n2 // 2
    return n <= m <= 2 * n - 1 and (m, n2) not in NONEXISTENT_EXCEPTIONS


def validate_howell(design: HowellDesign) -> list[str]:
    """Check the three design axioms from scratch; returns violation messages."""
    m, n2 = design.m, design.n2
    problems = []
    if len(design.cells) != m or any(len(row) != m for row in design.cells):
        return [f"cell array is not {m}x{m}"]
    pairs_seen: set[tuple[int, int]] = set()
    for r, row in enumerate(design.cells):
        for k, cell in enumerate(row):
            if cell is None:
                continue
            x, y = cell
            if not (1 <= x <= n2 and 1 <= y <= n2 and x != y):
                problems.append(f"cell ({r},{k}) holds invalid pair {cell}")
                continue
            pair = (min(x, y), max(x, y))
            if pair in pairs_seen:
                problems.append(f"pair {pair} occurs twice")
            pairs_seen.add(pair)
    for r, row in enumerate(design.cells):
        seen: list[int] = []
        for cell in row:
            if cell:
                seen.extend(cell)
        if sorted(seen) != list(range(1, n2 + 1)):
            problems.append(f"row {r} does not hold each symbol exactly once")
    for k in range(m):
        seen = []
        for r in range(m):
            cell = design.cells[r][k]
            if cell:
                seen.extend(cell)
        if sorted(seen) != list(range(1, n2 + 1)):
            problems.append(f"column {k} does not hold each symbol exactly once")
    return problems


class _Search:
    """Backtracking state; symbols are bits 0..2n-1 internally.

    Symmetry breaking: row 0 is fixed to the pairs {1,2},{3,4},... in columns
    0..n-1, and in every later row r symbol 1 sits in column r (rows can be
    reordered so that symbol 1's column index is increasing, and those indices
    form a permutation of the columns).  Within a row the next symbol to place
    is the one with the fewest open columns (ties to the lowest id), which
    keeps the search deterministic while pruning hard.  A seed permutes the
    partner/column value ordering only; any seed explores the same space.
    """

    def __init__(self, m: int, n2: int, node_budget: int, seed: int | None = None):
        self.m = m
        self.n2 = n2
        self.n = n = n2 // 2
        self.node_cap = node_budget
        self.nodes = 0
        self.full = (1 << n2) - 1
        self.sym_cols = [(1 << m) - 1] * n2  # columns still missing symbol x
        self.col_filled = [0] * m
        self.partner_used = [0] * n2  # symbols already paired with x
        self.grid: list[list[tuple[int, int] | None]] = [[None] * m for _ in range(m)]
        # When every pair must appear (m == 2n-1), unused pairs must keep a
        # common open column, which prunes dead rows early.
        self.all_pairs_needed = m == n2 - 1
        # Value orderings as ranks: partners and columns are tried in
        # ascending rank, or ascending id where the rank is None.
        self.n_tables = 16
        if seed is None:
            self.partner_rank = self.col_rank = [None] * self.n_tables
        else:
            rng = random.Random(seed * 7919 + 17)
            self.partner_rank = []
            self.col_rank = []
            for _ in range(self.n_tables):
                p = list(range(n2))
                rng.shuffle(p)
                self.partner_rank.append(_ranks(p))
                cols = list(range(m))
                rng.shuffle(cols)
                self.col_rank.append(_ranks(cols))
        for i in range(n):
            self.grid[0][i] = (2 * i + 1, 2 * i + 2)
            self.sym_cols[2 * i] ^= 1 << i
            self.sym_cols[2 * i + 1] ^= 1 << i
            self.col_filled[i] = 1
            self.partner_used[2 * i] = 1 << (2 * i + 1)
            self.partner_used[2 * i + 1] = 1 << (2 * i)

    def run(self) -> HowellDesign | None:
        """Fill the grid depth first, one frame per placed cell."""
        first = self._next_row(1)
        if first is True or first is not None and run_frames(first):
            return HowellDesign(self.m, self.n2, tuple(tuple(row) for row in self.grid))
        return None

    def _next_row(self, r: int):
        """Rows 0..r-1 are full: None if the rest cannot be filled, True if
        the grid is full, else the frame that fills row r."""
        rows_left = self.m - r
        n = self.n
        open_cols = tight = 0
        for k, filled in enumerate(self.col_filled):
            lack = n - filled
            if lack > rows_left:
                return None
            if lack:
                open_cols |= 1 << k
                if lack == rows_left:
                    tight |= 1 << k
        sym = self.sym_cols
        max_partners = self.n2 - 1 - rows_left
        for x, cols in enumerate(sym):
            if self.partner_used[x].bit_count() > max_partners:
                return None
            if (cols & open_cols).bit_count() < rows_left:
                return None
        if self.all_pairs_needed:
            for x, sx in enumerate(sym):
                unmet = self.full & ~self.partner_used[x] & ~((2 << x) - 1)  # partners y > x
                while unmet:
                    low = unmet & -unmet
                    unmet ^= low
                    if not sx & sym[low.bit_length() - 1]:
                        return None
        if r == self.m:
            return True
        return self._fill(r, self.full, open_cols, tight)

    def _fill(self, r: int, unplaced: int, avail: int, must: int):
        """Place the next pair of row r in every way, yielding the frame that
        searches on from each placement; raises _Found on a full grid.

        unplaced: the symbols row r still lacks.  avail: the open columns
        with no cell in row r yet.  must: the columns of avail that lack a
        cell in each row left, this one included.

        must needs no scan of the columns: _next_row admits row r only when
        no column lacks more than the m-r rows left, and passes the columns
        that lack exactly m-r as tight.  Such a column is open, and once it
        gets its cell in row r it lacks one fewer and leaves avail.  So must
        is the tight columns still in avail.  And a per-column test for a
        column lacking more than it can still get (the rows after this one,
        plus one if it is in avail) could never fail.
        """
        sym = self.sym_cols
        pused = self.partner_used
        cells_left = unplaced.bit_count() >> 1
        if avail.bit_count() < cells_left:
            return
        n_must = must.bit_count()
        if n_must > cells_left:
            return
        # Symbol 1 (bit 0) opens every row in the pinned column r; otherwise
        # pick the unplaced symbol with the fewest candidate columns.
        if unplaced & 1:
            x = 0
            xcols = avail & sym[0] & (1 << r)
        else:
            x = -1
            best = 1 << 30
            u = unplaced
            while u:
                low = u & -u
                u ^= low
                cand = low.bit_length() - 1
                cols = avail & sym[cand]
                if not cols:
                    return
                if not (unplaced ^ low) & ~pused[cand]:
                    return
                score = cols.bit_count()
                if score < best:
                    best = score
                    x = cand
            xcols = avail & sym[x]
            if n_must == cells_left:
                xcols &= must
        if not xcols:
            return
        xbit = 1 << x
        rest = unplaced ^ xbit
        order = (r * 7 + x) % self.n_tables
        col_rank = self.col_rank[order]
        filled = self.col_filled
        row = self.grid[r]
        node_cap = self.node_cap
        for y in _bits(rest & ~pused[x], self.partner_rank[order]):
            cols = xcols & sym[y]
            if not cols:
                continue
            ybit = 1 << y
            left = rest ^ ybit
            cell = (x + 1, y + 1)
            # x has the fewest candidate columns, so cols is most often one bit.
            for k in _bits(cols, col_rank) if cols & (cols - 1) else (cols.bit_length() - 1,):
                nodes = self.nodes + 1
                self.nodes = nodes
                if nodes > node_cap:
                    raise SearchBudgetExceeded(f"H({self.m},{self.n2}) search exceeded {node_cap} nodes")
                kbit = 1 << k
                row[k] = cell
                sym[x] ^= kbit
                sym[y] ^= kbit
                filled[k] += 1
                pused[x] ^= ybit
                pused[y] ^= xbit
                if left:
                    yield self._fill(r, left, avail ^ kbit, must & ~kbit)
                else:
                    child = self._next_row(r + 1)
                    if child is True:
                        raise _Found
                    if child is not None:
                        yield child
                row[k] = None
                sym[x] ^= kbit
                sym[y] ^= kbit
                filled[k] -= 1
                pused[x] ^= ybit
                pused[y] ^= xbit


def _ranks(order: list[int]) -> list[int]:
    """rank[v] = position of v in order."""
    rank = [0] * len(order)
    for i, v in enumerate(order):
        rank[v] = i
    return rank


def _bits(mask: int, rank: list[int] | None) -> list[int]:
    """The set bits of mask in ascending rank, or ascending index when rank is None."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    if rank is not None:
        out.sort(key=rank.__getitem__)
    return out


def latin_howell(n: int) -> HowellDesign | None:
    """H(n, 2n) in closed form, or None when n = 2 mod 4.

    Cell (i, j) holds {L1(i,j)+1, n+L2(i,j)+1} for orthogonal Latin squares
    L1, L2: each symbol then occurs once per row and column, and
    orthogonality makes every pair {x, n+y} occur exactly once.

    Write n = 2^a * q with q odd.  Over Z_q the squares are i+j and i+2j.
    Over R = GF(2)[X]/(X^a + X + 1), with elements as a-bit masks, they are
    x+y and x+X*y: X and X+1 are units of R because the modulus is 1 at 0
    and at 1, which is all that rows, columns and orthogonality need.  The
    two pairs combine by MacNeish's direct product, entry (u*q + v, ...) =
    R-entry * q + Z_q-entry; for odd n (a = 0) R is trivial.  For a = 1,
    X+1 is a zero divisor, and no construction is given.
    """
    a = (n & -n).bit_length() - 1
    if a == 1:
        return None
    q, size = n >> a, 1 << a
    modulus = size | 0b11

    def times_x(y: int) -> int:
        y <<= 1
        return y ^ modulus if y & size else y

    cells = []
    for i in range(n):
        ui, vi = divmod(i, q)
        row = []
        for j in range(n):
            uj, vj = divmod(j, q)
            first = (ui ^ uj) * q + (vi + vj) % q
            second = (ui ^ times_x(uj)) * q + (vi + 2 * vj) % q
            row.append((first + 1, n + second + 1))
        cells.append(tuple(row))
    return HowellDesign(n, 2 * n, tuple(cells))


class _Starter:
    """Backtracking state for a cyclic starter-adder over Z_m.

    The 2n symbols are Z_m and k = 2n - m infinities.  A starter pairs them
    into n pairs: k pairs {inf_j, x} and m - n finite pairs {x, y} whose
    differences +-(y - x) are distinct and never m/2.  Each pair P gets a
    distinct adder a such that the sets P - a partition the symbols.  Cell
    (r, r + a) then holds P + r (infinities stay fixed): row r holds the
    partition P + r, column c the partition P - a shifted by c, and pair
    {x, y} + r runs once through every pair of its difference.

    Translating the starter or the adders gives another one, so element 0
    pairs with inf_1 under adder 0.  The search then takes the unpaired
    element with the fewest open adders (a is open for x while x - a is not
    covered; ties to the lowest element) and pairs it with an infinity or a
    partner under every adder open to both.  An unpaired element with no
    open adder ends the branch.  A seed permutes the partner and adder
    orderings only; any seed explores the same space.
    """

    def __init__(self, m: int, n2: int, node_budget: int, seed: int | None = None):
        self.m = m
        self.n2 = n2
        self.node_cap = node_budget
        self.nodes = 0
        self.pairs: list[tuple[int, int | None, int]] = [(0, None, 0)]  # (x, y or None for inf, adder)
        if seed is None:
            self.partner_rank = self.adder_rank = None
        else:
            rng = random.Random(seed * 7919 + 17)
            partners, adders = list(range(m)), list(range(m))
            rng.shuffle(partners)
            rng.shuffle(adders)
            self.partner_rank, self.adder_rank = _ranks(partners), _ranks(adders)

    def run(self) -> HowellDesign | None:
        rest = (1 << self.m) - 2  # 0 is paired, its adder used and 0 - 0 covered
        if run_frames(self._pair(rest, self.n2 - self.m - 1, 0, rest, rest, rest)):
            return self._design()
        return None

    def _pair(self, free: int, infs: int, diffs: int, adders: int, negated: int, uncovered: int):
        """Pair the next element in every way, yielding the frame that
        searches on from each; raises _Found once every element is paired.

        free: the unpaired elements.  infs: the infinities left.  diffs: the
        differences used, as min(d, m - d).  adders: the unused adders, and
        negated their negatives.  uncovered: the elements no P - a covers yet.
        """
        if not free:
            raise _Found
        m = self.m
        x, fewest = -1, m + 1
        f = free
        while f:
            low = f & -f
            f ^= low
            v = low.bit_length() - 1
            # {v - a} for the unused adders a is negated rotated by v.
            open_adders = ((negated << v | negated >> (m - v)) & uncovered).bit_count()
            if open_adders < fewest:
                if not open_adders:
                    return
                x, fewest = v, open_adders
        rest = free ^ 1 << x
        x_adders = [a for a in _bits(adders, self.adder_rank) if uncovered >> (x - a) % m & 1]
        candidates = _bits(rest, self.partner_rank) if rest.bit_count() > infs else []
        if infs:
            candidates.insert(0, None)
        for y in candidates:
            if y is not None:
                d = min((y - x) % m, (x - y) % m)
                if diffs >> d & 1 or 2 * d == m:
                    continue
            for a in x_adders:
                cover = 1 << (x - a) % m
                if y is not None:
                    y_cover = 1 << (y - a) % m
                    if not y_cover & uncovered:
                        continue
                    cover |= y_cover
                if self.nodes == self.node_cap:
                    raise SearchBudgetExceeded(f"H({m},{self.n2}) starter exceeded {self.node_cap} nodes")
                self.nodes += 1
                self.pairs.append((x, y, a))
                used = adders ^ 1 << a, negated ^ 1 << -a % m, uncovered ^ cover
                if y is None:
                    yield self._pair(rest, infs - 1, diffs, *used)
                else:
                    yield self._pair(rest ^ 1 << y, infs, diffs | 1 << d, *used)
                self.pairs.pop()

    def _design(self) -> HowellDesign:
        """Develop the starter over Z_m: element v is symbol v + 1, and the
        j-th infinity is symbol m + j."""
        m = self.m
        cells: list[list[tuple[int, int] | None]] = [[None] * m for _ in range(m)]
        inf = m
        for x, y, a in self.pairs:
            if y is None:
                inf += 1
            for r in range(m):
                cells[r][(r + a) % m] = ((x + r) % m + 1, inf if y is None else (y + r) % m + 1)
        return _normal_form(m, self.n2, cells)


def _normal_form(m: int, n2: int, cells: list[list[tuple[int, int] | None]]) -> HowellDesign:
    """Relabel and reorder a design into the cell search's normal form: row 0
    holds {1,2},{3,4},... in columns 0..n-1, and row r holds symbol 1 in
    column r.  The base construction pads an even square shape with symbols
    2n-1 and 2n, which then share a cell and leave it empty."""
    head = [k for k in range(m) if cells[0][k]]
    cols = head + [k for k in range(m) if not cells[0][k]]
    label = {}
    for i, k in enumerate(head):
        x, y = cells[0][k]
        label[x], label[y] = 2 * i + 1, 2 * i + 2
    grid = [
        [None if row[k] is None else tuple(sorted((label[row[k][0]], label[row[k][1]]))) for k in cols]
        for row in cells
    ]
    grid.sort(key=lambda row: next(k for k, cell in enumerate(row) if cell and cell[0] == 1))
    return HowellDesign(m, n2, tuple(tuple(row) for row in grid))


def _check_budget(node_budget: int) -> None:
    if type(node_budget) is not int or node_budget < 1:
        raise ValueError(f"node_budget must be a positive integer, got {node_budget!r}")


def _restarts(search_cls, m: int, n2: int, first_cap: int, node_budget: int) -> tuple[HowellDesign | None, int]:
    """The design from a deterministic ladder of restarts (None once a search
    exhausts its space) and the nodes spent; SearchBudgetExceeded once the
    ladder has spent node_budget.  Attempt 0 is unseeded and attempt i takes
    seed i - 1, under a cap of first_cap, times 4 after every 64 attempts,
    cut to the budget left.  How far past its cap a search runs is its own.
    """
    total = attempt = 0
    while total < node_budget:
        cap = min(first_cap * 4 ** (attempt // 64), node_budget - total)
        search = search_cls(m, n2, cap, None if attempt == 0 else attempt - 1)
        try:
            return search.run(), total + search.nodes
        except SearchBudgetExceeded:
            total += search.nodes
            attempt += 1
    raise SearchBudgetExceeded(f"H({m},{n2}) search exceeded {node_budget} nodes")


def starter_howell(m: int, n2: int, node_budget: int) -> tuple[HowellDesign | None, int]:
    """An H(m, 2n) from a cyclic starter-adder over Z_m, and the nodes spent.

    The design is None when the budget runs out first or when no cyclic
    starter-adder exists: the search space is exhausted, or the shape is one
    of two that need no search.  As the sets P and P - a both cover Z_m, the
    adders, weighted by the number of elements of Z_m in their pair, sum to
    0 mod m.  For m = n every pair holds an infinity, so the adders would
    form an orthomorphism of Z_m, which even m lacks and odd m does not need
    (latin_howell).  For odd m = n + 1 the n adders miss one element b of
    Z_m and sum to -b, so the one finite pair's adder would be b.

    Restarts run the _restarts ladder from 2,000-node attempts, each cut at
    its cap.  Requires n <= m <= 2n - 1.
    """
    n = n2 // 2
    if m == n or m == n + 1 and m % 2:
        return None, 0
    try:
        return _restarts(_Starter, m, n2, 2_000, node_budget)
    except SearchBudgetExceeded:
        return None, node_budget  # a starter attempt stops at its cap, so the budget is spent


def search_howell(m: int, n2: int, node_budget: int = DEFAULT_NODE_BUDGET) -> HowellDesign | None:
    """Backtracking search, without consulting the existence theorem.

    Runs the _restarts ladder from 8,000-node attempts, each cut one node
    past its cap.  Every attempt explores the same symmetry-reduced space, so
    one that exhausts it proves nonexistence: None means none exists.  Raises
    SearchBudgetExceeded once node_budget is spent, and ValueError unless it
    is a positive integer.  Requires n <= m so the canonical first row fits.
    """
    _check_budget(node_budget)
    if n2 < 2 or n2 % 2:
        raise ValueError("symbol count must be a positive even integer")
    if m < n2 // 2:
        raise ValueError("m must be at least n for the search")
    return _restarts(_Search, m, n2, 8_000, node_budget)[0]


# H(6, 12): n = 6 = 2 mod 4 has no closed form here, and m = n no starter.
# This is the design search_howell(6, 12, 100_000) finds, after 14,065 nodes:
# any smaller budget would miss it.
STORED = {(6, 12): HowellDesign(6, 12, (
    ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)),
    ((7, 5), (1, 10), (2, 9), (3, 11), (6, 12), (8, 4)),
    ((3, 8), (2, 5), (1, 4), (10, 12), (7, 11), (6, 9)),
    ((6, 11), (8, 12), (10, 7), (1, 9), (2, 4), (5, 3)),
    ((9, 12), (6, 7), (8, 11), (5, 4), (1, 3), (2, 10)),
    ((4, 10), (9, 11), (3, 12), (2, 6), (5, 8), (1, 7)),
))}

# Per (m, 2n, node budget): the design, or None where the budget ran out.
_CACHE: dict[tuple[int, int, int], HowellDesign | None] = {}


def generate_howell(m: int, n2: int, node_budget: int = DEFAULT_NODE_BUDGET) -> HowellDesign | None:
    """Return an H(m, 2n), or None when no such design exists.

    Existence is decided by the characterization theorem.  An H(n, 2n) with
    n odd or divisible by 4 is built in closed form (latin_howell), and
    H(6, 12) is STORED.  Any other design comes from the cyclic starter-adder
    search (starter_howell), given at most half the node budget, or else
    from the cell search (search_howell), given the rest; SearchBudgetExceeded
    is raised when both run out.  ValueError is raised unless node_budget is
    a positive integer.  Results are cached per (m, 2n, node_budget), budget
    cuts too: both searches are deterministic, so the answer depends on that
    key alone, and a cut raises again at once at the same budget.
    """
    _check_budget(node_budget)
    if not howell_exists(m, n2):
        return None
    if (m, n2) in STORED:
        return STORED[m, n2]
    key = (m, n2, node_budget)
    if key not in _CACHE:
        _CACHE[key] = _build(m, n2, node_budget)
    design = _CACHE[key]
    if design is None:
        raise SearchBudgetExceeded(f"H({m},{n2}) search exceeded {node_budget} nodes")
    return design


def _build(m: int, n2: int, node_budget: int) -> HowellDesign | None:
    """generate_howell's build of an existing H(m, 2n); None on a budget cut."""
    if 2 * m == n2 and (design := latin_howell(m)) is not None:
        return design
    design, spent = starter_howell(m, n2, node_budget // 2)
    if design is not None:
        return design
    try:
        design = search_howell(m, n2, node_budget - spent)
    except SearchBudgetExceeded:
        return None
    if design is None:
        raise AssertionError(f"H({m},{n2}) must exist but the search found none")
    return design
