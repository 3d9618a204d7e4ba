"""Row insertion for Young composition tableaux and its inverse.

insert scans the sentinel-extended tableau in reading order (columns right
to left, top to bottom within a column) for the first cell where the carried
value fits between the cell's left neighbor and its occupant.  Landing on a
sentinel appends the value to that row; landing on an entry bumps it and the
scan continues with the bumped value.  A value that fits nowhere opens a new
single-cell row in the leftmost column, as high as it can sit while keeping
the leftmost column increasing, shifting the rows above it up.

rapture is the inverse step: it removes an entry (the cell must be
"virtuous", see is_virtuous), then walks the reading order backwards from
the removal point, re-homing the carried value and evicting smaller
occupants along the way.  The value that falls off the front is the output;
if the carried value comes to rest on a sentinel instead, the output is INF
and the tableau keeps its size.  INF arises off a virtuous cell; none of
the 12,455 virtuous raptures of semistandard tableaux with n <= 6 and
entries <= n settles (the tests count them).  uninsert runs the core at
recording cells without asking for virtue and relies on this: a pair that
unwinds to INF is rejected.

Both walks visit, in column c, every row at least c - 1 long, so a row's
sentinel cell just past its end is included.  insert walks columns from the
widest row's width + 1 down to 2, each column top to bottom; rapture walks
the same cells backwards, from just after the removed cell up to the widest
remaining row's width + 1.  The leftmost column is never a bump or evict
target, so neither walk enters it.  A bump or an eviction replaces an
entry and never changes a row's length, so each walk reads the row
lengths once, into a list, and decides each cell by comparing the carried
value with the cell's neighbors as they stand; event dicts are built only
when a trace is asked for.

The cores are exact on any filling, not only on tableaux: they compare
the carried value with what the cells hold and assume no order along a
row or a column.  Nothing else would do, because the verify suites run
them on what a faulty core left behind and compare with a word-by-word
oracle, the recording walk inserts half letters, and uninsert raptures
any pair it is given and rejects it only by what the cores do.  A search
that skipped cells by assuming rows increase would be exact on tableaux
only.

Public functions validate their inputs.  The `_`-prefixed cores take a
filling being built (see tableaux) and check nothing; insert_word, uninsert
and the verify suites drive them directly.
"""

from __future__ import annotations

from collections import namedtuple

from .tableaux import (
    INF,
    Row,
    Rows,
    is_ssyct,
    make_rows,
    shape_of,
)

Cell = tuple[int, int]


# rows: Rows, new_cell: Cell, path: tuple[Cell, ...]
InsertionResult = namedtuple("InsertionResult", "rows new_cell path")
# rows: Rows, output: int | float, route: tuple[Cell, ...]
RaptureResult = namedtuple("RaptureResult", "rows output route")


def _insert_into(work: list[Row], k: int, events=None) -> tuple[Cell, tuple[Cell, ...]]:
    """Insert k into a filling being built; returns (new_cell, bumping path)."""
    carry = k
    path: list[Cell] = []
    lengths = list(map(len, work))
    top_down = range(len(lengths) - 1, -1, -1)
    for col in range(max(lengths, default=0) + 1, 1, -1):
        end = col - 1
        for r in top_down:
            length = lengths[r]
            if length < end:
                continue
            entries = work[r]
            if length == end:
                # The sentinel just past the row's end.
                left = entries[-1]
                if events is not None:
                    events.append({"event": "scan", "cell": [col, r + 1], "left": left,
                                   "occupant": INF, "carry": carry,
                                   "outcome": "place" if left <= carry else "skip"})
                if left <= carry:
                    path.append((col, r + 1))
                    work[r] = entries + (carry,)
                    return (col, r + 1), tuple(path)
                continue
            occupant = entries[end]
            if events is not None:
                left = entries[end - 1]
                events.append({"event": "scan", "cell": [col, r + 1], "left": left,
                               "occupant": occupant, "carry": carry,
                               "outcome": "bump" if left <= carry < occupant else "skip"})
            if carry < occupant and entries[end - 1] <= carry:
                path.append((col, r + 1))
                work[r] = entries[:end] + (carry,) + entries[col:]
                carry = occupant
    # Nothing fit: open a new single-cell row, as high as possible subject to
    # every leftmost entry below it being smaller.
    pos = 0
    while pos < len(work) and work[pos][0] < carry:
        pos += 1
    work.insert(pos, (carry,))
    new_cell = (1, pos + 1)
    path = [(c, r if r <= pos else r + 1) for c, r in path]
    path.append(new_cell)
    if events is not None:
        events.append({"event": "new-row", "row": pos + 1, "carry": carry,
                       "rows_shifted": pos + 1 < len(work)})
    return new_cell, tuple(path)


def _landing(height: int, cell: Cell) -> tuple[int, bool]:
    """Where _record puts the next value for cell, the cell an insertion
    added, in a recording tableau of height rows: (r, opens), r a 0-based
    row.  It opens a new row r when cell is in column 1 or outside rows
    1..height (which only a faulty core reports; r is then clamped into
    0..height), else it ends row r."""
    col, row = cell
    if col == 1 or not 0 < row <= height:
        return min(max(row, 1), height + 1) - 1, True
    return row - 1, False


def _record(q: list[Row], cell: Cell, j: int) -> None:
    # Put j in the recording tableau q being built where _landing says.
    r, opens = _landing(len(q), cell)
    if opens:
        q.insert(r, (j,))
    else:
        q[r] += (j,)


def insert(rows: Rows, k: int, events=None) -> InsertionResult:
    """Insert k into a semistandard Young composition tableau.

    With events a list, appends one dict per scan step for tracing.
    """
    rows = make_rows(rows)
    if type(k) is not int or k < 1:
        raise ValueError(f"inserted value must be a positive integer, got {k!r}")
    if not is_ssyct(rows):
        raise ValueError("insert requires a Young composition tableau")
    work = list(rows)
    new_cell, path = _insert_into(work, k, events)
    return InsertionResult(tuple(work), new_cell, path)


def _is_virtuous(rows, cell: Cell) -> bool:
    col, row = cell
    entries = rows[row - 1]
    if col != len(entries):
        return False
    v = entries[col - 1]
    for below in rows[:row - 1]:
        if len(below) >= col and (len(below) == col or below[col - 1] >= v):
            return False
    return True


def _check_cell(rows: Rows, cell: Cell) -> None:
    # The package's one integer rule: a cell is a pair of exact ints.
    if not (isinstance(cell, (tuple, list)) and len(cell) == 2
            and all(type(x) is int for x in cell)):
        raise ValueError(f"cell must be a pair of integers, got {cell!r}")
    col, row = cell
    if not (1 <= row <= len(rows) and 1 <= col <= len(rows[row - 1])):
        raise ValueError(f"cell {cell} is not in the diagram")


def is_virtuous(rows: Rows, cell: Cell) -> bool:
    """True when the entry at cell can be raptured.

    The entry must exceed everything below it in its column, sit at the end
    of its row, and every other row ending in the same column must lie
    strictly above it.
    """
    rows = make_rows(rows)
    _check_cell(rows, cell)
    return _is_virtuous(rows, cell)


def _rapture_from(work: list[Row], cell: Cell, events=None) -> tuple[int | float, tuple[Cell, ...]]:
    col, row = cell
    carry = work[row - 1][col - 1]
    route: list[Cell] = [cell]
    if col == 1:
        del work[row - 1]
    else:
        work[row - 1] = work[row - 1][:-1]
    if events is not None:
        events.append({"event": "remove", "cell": [col, row], "entry": carry,
                       "row_removed": col == 1})
    # Walk the reading order backwards from the removal point.
    lengths = list(map(len, work))
    height = len(lengths)
    for c in range(max(col, 2), max(lengths, default=0) + 2):
        end = c - 1
        for r in range(row if c == col else 0, height):
            length = lengths[r]
            if length < end:
                continue
            entries = work[r]
            left = entries[c - 2]
            if length == end:
                # The sentinel just past the row's end: occupant and right
                # neighbor are both INF.
                if events is not None:
                    events.append({"event": "scan", "cell": [c, r + 1], "left": left,
                                   "occupant": INF, "right": INF, "carry": carry,
                                   "outcome": "settle" if left <= carry else "skip"})
                if left <= carry:
                    work[r] = entries + (carry,)
                    return INF, tuple(route)
                continue
            occupant = entries[end]
            if events is not None:
                right = entries[c] if c < length else INF
                outcome = ("skip" if not left <= carry <= right
                           else "pass" if occupant >= carry else "evict")
                events.append({"event": "scan", "cell": [c, r + 1], "left": left,
                               "occupant": occupant, "right": right, "carry": carry,
                               "outcome": outcome})
            if left <= carry and occupant < carry and (c == length or carry <= entries[c]):
                work[r] = entries[:end] + (carry,) + entries[c:]
                route.append((c, r + 1))
                carry = occupant
    if events is not None:
        events.append({"event": "output", "value": carry})
    return carry, tuple(route)


def rapture(rows: Rows, cell: Cell, events=None) -> RaptureResult:
    """Remove the entry at cell and rebalance, returning the expelled value.

    The cell must be virtuous; rapturing elsewhere would not yield a Young
    composition tableau, so it is rejected.
    """
    rows = make_rows(rows)
    if not is_ssyct(rows):
        raise ValueError("rapture requires a Young composition tableau")
    _check_cell(rows, cell)
    if not _is_virtuous(rows, cell):
        raise ValueError(f"cell {cell} is not virtuous")
    work = list(rows)
    output, route = _rapture_from(work, tuple(cell), events)
    return RaptureResult(tuple(work), output, route)


def insert_word(word, events=None) -> tuple[Rows, Rows]:
    """Insert the letters of a duplicate-free word left to right into the
    empty tableau.  Returns the resulting tableau and the recording tableau
    whose entry j marks the cell created by the j-th insertion.

    With events a list, appends one dict per letter holding that
    insertion's scan steps, new cell and bumping path.
    """
    word = tuple(word)
    for x in word:
        if type(x) is not int or x < 1:
            raise ValueError(f"letters must be positive integers, got {x!r}")
    if len(set(word)) != len(word):
        raise ValueError("word has repeated letters")
    p: list[Row] = []
    q: list[Row] = []
    for j, k in enumerate(word, start=1):
        steps = None if events is None else []
        new_cell, path = _insert_into(p, k, steps)
        if events is not None:
            events.append({"letter": k, "steps": steps, "new_cell": list(new_cell),
                           "path": [list(cell) for cell in path]})
        _record(q, new_cell, j)
    return tuple(p), tuple(q)


def uninsert(p_rows: Rows, q_rows: Rows) -> tuple[int, ...]:
    """Invert insert_word: peel insertions off in reverse recording order.

    Raises ValueError unless the pair is the output of insert_word for the
    recovered word.
    """
    p_rows, q_rows = make_rows(p_rows), make_rows(q_rows)
    if shape_of(p_rows) != shape_of(q_rows):
        raise ValueError("tableau and recording tableau shapes differ")
    p, q = list(p_rows), list(q_rows)
    reversed_word: list[int] = []
    while q:
        row = max(range(len(q)), key=lambda r: q[r][-1]) + 1
        col = len(q[row - 1])
        output, _ = _rapture_from(p, (col, row))
        if output is INF:
            raise ValueError("insertion record did not unwind to a finite letter")
        reversed_word.append(output)
        q[row - 1] = q[row - 1][:-1]
        if not q[row - 1]:
            del q[row - 1]
    word = tuple(reversed(reversed_word))
    # A word that repeats a letter is no insert_word input.
    if len(set(word)) != len(word) or insert_word(word) != (p_rows, q_rows):
        raise ValueError("tableau pair is not the output of any word insertion")
    return word
