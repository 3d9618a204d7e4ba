"""Recording tableaux for word insertion and their row strips.

The recording tableau of a word traces which cell each insertion created.
Row strips cut a standard filling into maximal runs of consecutive values
whose cells occupy pairwise distinct columns, reading greedily upward from
1.  The recording tableau of an immaculate reading word (a DIRT) is
characterized by: rows increase left to right, every row strip starts in
column 1 and moves strictly right as its values grow, the leftmost column
increases top to bottom, and a triple condition ties every pair of rows
(see is_dirt).  enumerate_dirts lists the DIRTs of one shape and strip
shape from the leaves of the forward tree (rw.rw_forward); the counting
tables in qsym count the same tableaux by row lengths without listing them.
Public functions validate their inputs; the `_`-prefixed cores _strips (on a
positions map) and _dirt_strip_shape, which is_dirt wraps, check nothing.
"""

from __future__ import annotations

from .compositions import Composition, check_composition, is_partition, reverse
from .rw import rw_forward
from .tableaux import Rows, _positions, is_standard, make_rows, positions


def _strips(pos: dict[int, tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    strips: list[list[int]] = []
    used_cols: set[int] = set()
    for v in range(1, len(pos) + 1):
        col = pos[v][0]
        if v == 1 or col in used_cols:
            strips.append([v])
            used_cols = {col}
        else:
            strips[-1].append(v)
            used_cols.add(col)
    return tuple(tuple(s) for s in strips)


def row_strips(rows: Rows) -> tuple[tuple[int, ...], ...]:
    """Greedy decomposition of a standard filling into row strips; raises
    ValueError for a filling that is not standard."""
    return _strips(positions(make_rows(rows)))


def row_strip_shape(rows: Rows) -> Composition:
    return tuple(len(s) for s in row_strips(rows))


def _dirt_strip_shape(rows: Rows) -> Composition | None:
    """The row strip shape of rows when rows is a DIRT (see is_dirt), else
    None, also for a filling that is not standard.  rows must be well-formed
    Rows; nothing else is checked."""
    if not is_standard(rows):
        return None
    for row in rows:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return None
    firsts = [row[0] for row in rows]
    if any(firsts[i] <= firsts[i + 1] for i in range(len(firsts) - 1)):
        return None
    pos = _positions(rows)
    strips = _strips(pos)
    for strip in strips:
        cols = [pos[v][0] for v in strip]
        if cols[0] != 1:
            return None
        if any(cols[i] >= cols[i + 1] for i in range(len(cols) - 1)):
            return None
    for g, lower in enumerate(rows):
        for upper in rows[g + 1:]:
            for i in range(min(len(lower), len(upper))):
                if upper[i] > lower[i] and not (i + 1 < len(lower) and upper[i] > lower[i + 1]):
                    return None
    return tuple(map(len, strips))


def is_dirt(rows: Rows) -> bool:
    """True when rows is the recording tableau of the insertion of some
    immaculate reading word (a DIRT).  Recording tableaux of other words
    need not pass.

    Checks: standard, rows increase, every row strip starts in column 1 and
    its columns strictly increase with its values, the leftmost column
    strictly increases from top to bottom, and whenever an entry exceeds the
    entry below it in its column, it also exceeds the entry to the right of
    that lower one (absent cells reading as infinity).
    """
    return _dirt_strip_shape(make_rows(rows)) is not None


def enumerate_dirts(shape: Composition, strip_shape: Composition) -> tuple[Rows, ...]:
    """All recording tableaux of the given shape whose row strip shape is
    strip_shape, ordered by the row holding 1, then the row holding 2, and so
    on, a lower row first."""
    shape = check_composition(shape)
    strip_shape = check_composition(strip_shape)
    if sum(shape) != sum(strip_shape):
        raise ValueError("shape and strip shape must have equal sizes")
    found = []
    stack = [rw_forward(reverse(strip_shape))[0]]
    while stack:
        node = stack.pop()
        if node.key == shape:
            found.append(node.filling)
        stack.extend(reversed(node.children))
    return tuple(sorted(found, key=lambda rows: sorted(
        (v, r) for r, row in enumerate(rows) for v in row)))


def superstandard(lam: Composition) -> Rows:
    """The recording tableau of a partition shape that fills whole rows,
    top row first, with consecutive blocks."""
    lam = check_composition(lam)
    if not is_partition(lam):
        raise ValueError("superstandard fillings are indexed by partitions")
    rows: list[tuple[int, ...]] = [()] * len(lam)
    v = 1
    for r in range(len(lam), 0, -1):
        rows[r - 1] = tuple(range(v, v + lam[r - 1]))
        v += lam[r - 1]
    return tuple(rows)
