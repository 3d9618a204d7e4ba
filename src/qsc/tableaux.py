"""Fillings of composition diagrams.

A filling is a tuple of rows, each row a tuple of positive ints, stored
bottom row first.  Cell addresses are (column, row), both 1-based, so the
cell (i, j) is the i-th entry of the j-th row counting from the bottom.

Two families of fillings matter here: Young composition tableaux (rows
weakly increase, the leftmost column strictly increases upward, and a
triple condition couples every pair of rows) and immaculate tableaux (the
triple condition dropped).  The sentinel used when a comparison looks past
the end of a row is math.inf, which compares greater than every entry.

The standard, semistandard and weighted enumerators are one backtracking
search, _search, given a budget of values: each of 1..n once, each of
1..max_entry up to n times, or gamma exactly.

Enumerators and parsers validate their inputs, and predicates such as
is_ssyct take well-formed Rows; `_`-prefixed helpers such as _triple_ok
check nothing.
"""

from __future__ import annotations

import math

from .compositions import Composition, check_composition

INF = math.inf

Rows = tuple[tuple[int, ...], ...]


def make_rows(rows) -> Rows:
    """Normalize a row-of-rows structure, validating entries."""
    out = []
    for row in rows:
        row = tuple(row)
        if not row:
            raise ValueError("rows must be nonempty")
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise ValueError(f"entries must be positive integers, got {x!r}")
        out.append(row)
    return tuple(out)


def shape_of(rows: Rows) -> Composition:
    return tuple(len(row) for row in rows)


def is_immaculate(rows: Rows) -> bool:
    """Rows weakly increase left to right and the leftmost column strictly
    increases bottom to top."""
    for row in rows:
        if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
            return False
    first = [row[0] for row in rows]
    return all(first[i] < first[i + 1] for i in range(len(first) - 1))


def _triple_ok(rows: Rows) -> bool:
    # For a row `lower` and any row `upper` above it, at every index i:
    # upper[i] <= lower[i+1] forces upper[i+1] < lower[i+1], cells outside
    # the diagram reading as inf.  The rule can fire only where upper[i] and
    # lower[i+1] both exist, so upper[i+1] is the one read that can fall off
    # a row.
    for j, lower in enumerate(rows):
        for upper in rows[j + 1:]:
            for i in range(min(len(upper), len(lower) - 1)):
                bound = lower[i + 1]
                if upper[i] <= bound and not (i + 1 < len(upper) and upper[i + 1] < bound):
                    return False
    return True


def is_ssyct(rows: Rows) -> bool:
    """Semistandard Young composition tableau test."""
    return is_immaculate(rows) and _triple_ok(rows)


def is_standard(rows: Rows) -> bool:
    """True when the entries are exactly 1..n with no repeats."""
    entries = [x for row in rows for x in row]
    return sorted(entries) == list(range(1, len(entries) + 1))


def weight(rows: Rows) -> tuple[int, ...]:
    """Multiplicity of each value 1..max(entries)."""
    entries = [x for row in rows for x in row]
    if not entries:
        return ()
    counts = [0] * max(entries)
    for x in entries:
        counts[x - 1] += 1
    return tuple(counts)


def positions(rows: Rows) -> dict[int, tuple[int, int]]:
    """Map each entry of a standard filling to its (column, row) address."""
    if not is_standard(rows):
        raise ValueError("positions requires a standard filling")
    pos = {}
    for j, row in enumerate(rows, start=1):
        for i, x in enumerate(row, start=1):
            pos[x] = (i, j)
    return pos


def young_reading_word(rows: Rows) -> tuple[int | float, ...]:
    """Entries of the sentinel-extended filling, columns right to left and
    top to bottom within each column."""
    return tuple(row[col - 1] if col <= len(row) else INF
                 for col in range(max(map(len, rows), default=0) + 1, 0, -1)
                 for row in reversed(rows) if col <= len(row) + 1)


def immaculate_reading_word(rows: Rows) -> tuple[int, ...]:
    """Rows left to right, top row first."""
    out = []
    for row in reversed(rows):
        out.extend(row)
    return tuple(out)


def young_descent_set(rows: Rows) -> frozenset[int]:
    """i is a descent when i+1 sits weakly left of i (column-wise)."""
    pos = positions(rows)
    n = len(pos)
    return frozenset(i for i in range(1, n) if pos[i + 1][0] <= pos[i][0])


def immaculate_descent_set(rows: Rows) -> frozenset[int]:
    """i is a descent when i+1 sits in a strictly higher row than i."""
    pos = positions(rows)
    n = len(pos)
    return frozenset(i for i in range(1, n) if pos[i + 1][1] > pos[i][1])


def _search(shape, kind, budget):
    """Backtracking core shared by the enumerators.

    budget[v-1] is how many more cells may hold v; the search spends and
    restores it.  Cells are filled in row-word order (top row first), each
    trying v from its left neighbour (1 in the leftmost column) up to
    len(budget), so rows weakly increase by construction and results come out
    sorted lexicographically by the row word; the column and triple
    conditions are checked here.
    """
    if kind not in ("ssyct", "immaculate"):
        raise ValueError(f"unknown tableau kind {kind!r}")
    ell = len(shape)
    order = [(i, j) for j in range(ell, 0, -1) for i in range(1, shape[j - 1] + 1)]
    grid = [[0] * shape[j] for j in range(ell)]
    results: list[Rows] = []

    def cell_ok(i, j, v):
        # Leftmost column: strictly above-strictly smaller, checked against
        # the already filled row above (rows are filled top-down).
        if i == 1 and j < ell and not v < grid[j][0]:
            return False
        if kind == "ssyct" and i > 1:
            # Triple condition instances are decided exactly when the cell in
            # the lower row is placed; rows above are complete by then.
            for k in range(j + 1, ell + 1):
                upper_left = grid[k - 1][i - 2] if i - 1 <= shape[k - 1] else INF
                upper = grid[k - 1][i - 1] if i <= shape[k - 1] else INF
                if upper_left <= v and not upper < v:
                    return False
        return True

    def rec(idx):
        if idx == len(order):
            results.append(tuple(tuple(row) for row in grid))
            return
        i, j = order[idx]
        row = grid[j - 1]
        for v in range(row[i - 2] if i > 1 else 1, len(budget) + 1):
            if budget[v - 1] and cell_ok(i, j, v):
                budget[v - 1] -= 1
                row[i - 1] = v
                rec(idx + 1)
                budget[v - 1] += 1

    rec(0)
    return tuple(results)


def standard_tableaux(shape: Composition, kind: str) -> tuple[Rows, ...]:
    """All standard fillings of the given kind ("ssyct" or "immaculate"),
    sorted by their row word."""
    shape = check_composition(shape)
    return _search(shape, kind, [1] * sum(shape))


def semistandard_tableaux(shape: Composition, kind: str, max_entry: int) -> tuple[Rows, ...]:
    """All fillings of the given kind with entries in 1..max_entry."""
    shape = check_composition(shape)
    n = sum(shape)
    return _search(shape, kind, [n] * max_entry if n else [])


def weighted_tableaux(shape: Composition, kind: str, gamma: Composition) -> tuple[Rows, ...]:
    """All fillings of the given kind with weight exactly gamma."""
    shape = check_composition(shape)
    gamma = check_composition(gamma)
    if sum(gamma) != sum(shape):
        _search((), kind, [])  # rejects an unknown kind; no filling has this weight
        return ()
    return _search(shape, kind, list(gamma))


def to_json_obj(rows: Rows) -> dict:
    return {"shape": list(shape_of(rows)), "rows": [list(row) for row in rows]}


def from_json_obj(obj) -> Rows:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError("expected an object with a 'rows' field")
    rows = obj["rows"]
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in rows
    ):
        raise ValueError("rows must be a list of lists of entries")
    rows = make_rows(rows)
    shape = obj.get("shape", shape_of(rows))
    if not isinstance(shape, (list, tuple)) or tuple(shape) != shape_of(rows):
        raise ValueError("declared shape does not match rows")
    return rows


def parse_rows(text: str) -> Rows:
    """Compact form: rows separated by '/', bottom row first, entries
    comma-separated.  Example: '2/3,4,7/6,8'."""
    rows = []
    for chunk in text.strip().split("/"):
        try:
            rows.append([int(piece) for piece in chunk.split(",") if piece.strip()])
        except ValueError:
            raise ValueError(f"cannot parse row {chunk!r}") from None
    return make_rows(rows)


def render(rows: Rows) -> str:
    """Plain-text form, top row first."""
    if not rows:
        return "(empty)"
    width = max(len(str(x)) for row in rows for x in row)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in reversed(rows))
