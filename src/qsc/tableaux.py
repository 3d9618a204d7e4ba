"""Fillings of composition diagrams.

A filling is a tuple of rows, each row a tuple of positive ints, stored
bottom row first.  Cell addresses are (column, row), both 1-based, so the
cell (i, j) is the i-th entry of the j-th row counting from the bottom.
While built step by step, a filling is a list of those row tuples: a step
replaces only the rows it changes, and tuple(work) is the finished filling.

Two families of fillings matter here: Young composition tableaux (rows
weakly increase, the leftmost column strictly increases upward, and a
triple condition couples every pair of rows) and immaculate tableaux (the
triple condition dropped).  The sentinel used when a comparison looks past
the end of a row is math.inf, which compares greater than every entry.

The three enumerators are one search, _search, that places values in
increasing order, along covers of the composition poset, from a budget:
each of 1..n once, each of 1..max_entry up to n times, or gamma exactly.
The part of its placement rule that reads only row lengths is _open_ends,
which _descent_counts also reads to count standard fillings by descent set
without listing them.

Enumerators and parsers validate their inputs, and predicates such as
is_ssyct take well-formed Rows; `_`-prefixed helpers such as _search and
_triple_ok check nothing.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .compositions import Composition, _check_count, _parse_int, check_composition

INF = math.inf

Row = tuple[int, ...]
Rows = tuple[Row, ...]


def make_rows(rows) -> Rows:
    """Normalize a row-of-rows structure, validating entries."""
    out = []
    for row in rows:
        row = tuple(row)
        if not row:
            raise ValueError("rows must be nonempty")
        for x in row:
            if type(x) is not int or x < 1:
                raise ValueError(f"entries must be positive integers, got {x!r}")
        out.append(row)
    return tuple(out)


def shape_of(rows: Rows) -> Composition:
    return tuple(map(len, rows))


def is_immaculate(rows: Rows) -> bool:
    """Rows weakly increase left to right and the leftmost column strictly
    increases bottom to top."""
    first = None
    for row in rows:
        x = row[0]
        if first is not None and x <= first:
            return False
        first = x
        for y in row:
            if y < x:
                return False
            x = y
    return True


def _triple_ok(rows: Rows) -> bool:
    # For a row `lower` and any row `upper` above it, at every index i:
    # upper[i] <= lower[i+1] forces upper[i+1] < lower[i+1], cells outside
    # the diagram reading as inf.  The rule can fire only where upper[i] and
    # lower[i+1] both exist, so upper[i+1] is the one read that can fall off
    # a row.
    for j, lower in enumerate(rows):
        m = len(lower) - 1
        if not m:
            continue
        for upper in rows[j + 1:]:
            k = len(upper)
            for i in range(k if k < m else m):
                bound = lower[i + 1]
                if upper[i] <= bound and (i + 1 == k or upper[i + 1] >= bound):
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


def _positions(rows: Rows) -> dict[int, tuple[int, int]]:
    return {x: (i, j) for j, row in enumerate(rows, start=1) for i, x in enumerate(row, start=1)}


def _check_standard(rows: Rows) -> None:
    if not is_standard(rows):
        raise ValueError("positions requires a standard filling")


def positions(rows: Rows) -> dict[int, tuple[int, int]]:
    """Map each entry of a standard filling to its (column, row) address."""
    _check_standard(rows)
    return _positions(rows)


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


def _young_descent_set(rows: Rows) -> frozenset[int]:
    pos = _positions(rows)
    return frozenset(i for i in range(1, len(pos)) if pos[i + 1][0] <= pos[i][0])


def _immaculate_descent_set(rows: Rows) -> frozenset[int]:
    pos = _positions(rows)
    return frozenset(i for i in range(1, len(pos)) if pos[i + 1][1] > pos[i][1])


def young_descent_set(rows: Rows) -> frozenset[int]:
    """i is a descent when i+1 sits weakly left of i (column-wise)."""
    _check_standard(rows)
    return _young_descent_set(rows)


def immaculate_descent_set(rows: Rows) -> frozenset[int]:
    """i is a descent when i+1 sits in a strictly higher row than i."""
    _check_standard(rows)
    return _immaculate_descent_set(rows)


def _open_ends(shape, lengths, kind) -> list[int]:
    """The placement rule's part that reads only row lengths: the rows, from
    the bottom up, whose end may take the next cell.  Started rows form a
    prefix, and the first empty row is the one that may open, directly above
    a started row.  A started row needs room in shape, and for "ssyct" a row
    of length p needs no row above it of length exactly p."""
    out = []
    for r, p in enumerate(lengths):
        if not p:
            out.append(r)
            break
        if p < shape[r] and (kind == "immaculate" or p not in lengths[r + 1:]):
            out.append(r)
    return out


def _search(shape, kind, budget):
    """Value-order core of the enumerators: the copies of v, at most
    budget[v-1], go to the ends of the rows _open_ends offers, from the bottom
    up.  A row opens only above one whose first entry is smaller than v, and
    for "ssyct" a cell at 0-based column p needs no lower row holding v at
    column p+1.  Results are sorted by row word, top row first.  The search
    keeps an explicit stack, one frame per placed cell, so its depth is not
    bounded by the interpreter's recursion limit."""
    rows: list[Row] = [()] * len(shape)
    lens = [0] * len(shape)
    reach = list(accumulate(reversed(budget), initial=0))[::-1]  # sum(budget[v:])
    total = sum(shape)
    if not total:
        return (tuple(rows),)

    def fits(r, v):
        # The part of the rule that reads values.
        p = lens[r]
        if not (p or r == 0 or rows[r - 1][0] < v):
            return False
        return kind == "immaculate" or not any(
            len(lower) > p + 1 and lower[p + 1] == v for lower in rows[:r])

    def moves(v, low, spare, empty):
        # The next cells (w, r, copies of w left) after the last cell placed,
        # holding v (0: none yet) in row `low`, with `spare` more copies of v
        # allowed and `empty` cells to fill.  Read lazily: the frame resumes
        # only after the cells above it are taken back.
        for w in range(v, len(budget) + 1):
            if w > v and empty > reach[w - 1]:
                break
            left = spare if w == v else budget[w - 1]
            if not left:
                continue
            first = low if w == v else 0
            for r in _open_ends(shape, lens, kind):
                if r >= first and fits(r, w):
                    yield w, r, left - 1

    results: list[Rows] = []
    stack = [moves(0, 0, 0, total)]
    placed = []  # (row, that row before the cell) per frame above the first
    while stack:
        cell = next(stack[-1], None)
        if cell is None:
            stack.pop()
            if placed:
                r, row = placed.pop()
                rows[r] = row
                lens[r] -= 1
            continue
        w, r, left = cell
        row = rows[r]
        rows[r] = row + (w,)
        lens[r] += 1
        if len(placed) + 1 == total:
            results.append(tuple(rows))
            rows[r] = row
            lens[r] -= 1
        else:
            placed.append((r, row))
            stack.append(moves(w, r, left, total - len(placed)))
    return tuple(sorted(results, key=lambda t: t[::-1]))


def _descent_counts(shape, kind) -> dict[int, int]:
    """Standard fillings of shape counted by descent set, listing none.

    Values go in increasing order to the rows _open_ends offers, which for
    standard fillings is the whole rule, so a partial filling is known by
    its row lengths and the place of its last value: the column for
    "ssyct", where i is a descent when i+1 lands weakly left of i, and the
    row for "immaculate", where i+1 lands in a strictly higher row.  Each
    state carries its counts by descent mask, with bit n-1-i for descent
    i: read from the top bit down, the mask spells the descent set, so it
    is the composition's index in compositions(n)."""
    young = kind == "ssyct"
    n = sum(shape)
    states = {((0,) * len(shape), 0): {0: 1}}
    for v in range(1, n + 1):
        bit = 1 << (n - v) if v > 1 else 0  # descent v - 1
        grown = {}
        for (lens, last), masks in states.items():
            for r in _open_ends(shape, lens, kind):
                col = lens[r] + 1
                here = col if young else r
                b = bit if (last >= col if young else last < r) else 0
                out = grown.setdefault((lens[:r] + (col,) + lens[r + 1:], here), {})
                for m, c in masks.items():
                    out[m | b] = out.get(m | b, 0) + c
        states = grown
    counts: dict[int, int] = {}
    for masks in states.values():
        for m, c in masks.items():
            counts[m] = counts.get(m, 0) + c
    return counts


def check_kind(kind: str) -> str:
    if kind not in ("ssyct", "immaculate"):
        raise ValueError(f"unknown tableau kind {kind!r}")
    return kind


def standard_tableaux(shape: Composition, kind: str) -> tuple[Rows, ...]:
    """All standard fillings of the given kind ("ssyct" or "immaculate"),
    sorted by their row word."""
    shape = check_composition(shape)
    return _search(shape, check_kind(kind), [1] * sum(shape))


def semistandard_tableaux(shape: Composition, kind: str, max_entry: int) -> tuple[Rows, ...]:
    """All fillings of the given kind with entries in 1..max_entry."""
    shape = check_composition(shape)
    _check_count("max_entry", max_entry)
    n = sum(shape)
    return _search(shape, check_kind(kind), [n] * max_entry if n else [])


def weighted_tableaux(shape: Composition, kind: str, gamma: Composition) -> tuple[Rows, ...]:
    """All fillings of the given kind with weight exactly gamma."""
    shape = check_composition(shape)
    gamma = check_composition(gamma)
    check_kind(kind)
    if sum(gamma) != sum(shape):
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
    if not isinstance(shape, (list, tuple)) or check_composition(shape) != shape_of(rows):
        raise ValueError("declared shape does not match rows")
    return rows


def parse_rows(text: str) -> Rows:
    """Compact form: rows separated by '/', bottom row first, entries
    comma-separated, none of them empty.  Example: '2/3,4,7/6,8'."""
    rows = []
    for chunk in text.strip().split("/"):
        try:
            rows.append([_parse_int(piece) for piece in chunk.split(",")] if chunk.strip() else ())
        except ValueError:
            raise ValueError(f"cannot parse row {chunk!r}") from None
    return make_rows(rows)


def render(rows: Rows) -> str:
    """Plain-text form, top row first."""
    if not rows:
        return "(empty)"
    width = max(len(str(x)) for row in rows for x in row)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in reversed(rows))
