"""Recording tableaux for word insertion and their row strips.

The recording tableau of a word traces which cell each insertion created.
Row strips cut a standard filling into maximal runs of consecutive values
whose cells occupy pairwise distinct columns, reading greedily upward from
1.  The recording tableau of an immaculate reading word (a DIRT) is
characterized by: rows increase left to right, every row strip starts in
column 1 and moves strictly right as its values grow, the leftmost column
increases top to bottom, and a triple condition ties every pair of rows
(see is_dirt).  enumerate_dirts lists the DIRTs of one shape and strip
shape from the leaves of the forward tree (rw.rw_forward); qsym counts the
same tableaux, one strip shape on demand, by row lengths without listing them.
Public functions validate their inputs; the `_`-prefixed cores _strips (on a
positions map) and _dirt_strip_shape, which is_dirt wraps, check nothing.
"""

from __future__ import annotations

from .compositions import Composition, check_composition, is_partition, reverse
from .rw import rw_forward
from .tableaux import Rows, make_rows, positions


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
    Rows; nothing else is checked.

    One pass over the rows records each value's column and checks that the
    n cells hold n distinct values in 1..n, so each of 1..n once, that rows
    increase and that the first column decreases upward.  One pass over the
    values then cuts the greedy strips and checks their columns as they
    grow.  While every strip so far starts in column 1 and moves strictly
    right, the greedy rule starts a new strip exactly when a value's column
    does not exceed the previous value's, and that strip must start in
    column 1.  The triple condition is checked last."""
    n = sum(map(len, rows))
    col_of = [0] * (n + 1)
    below = n + 1
    for row in rows:
        if row[0] >= below:
            return None
        below, prev = row[0], 0
        for col, v in enumerate(row, start=1):
            # prev >= 0 also guards 0 < v, so v indexes col_of.
            if v <= prev or v > n or col_of[v]:
                return None
            col_of[v] = col
            prev = v
    sizes: list[int] = []
    last = n + 1
    for v in range(1, n + 1):
        col = col_of[v]
        if col > last:
            sizes[-1] += 1
        elif col == 1:
            sizes.append(1)
        else:
            return None
        last = col
    for g, lower in enumerate(rows):
        for upper in rows[g + 1:]:
            for i in range(min(len(lower), len(upper))):
                if upper[i] > lower[i] and not (i + 1 < len(lower) and upper[i] > lower[i + 1]):
                    return None
    return tuple(sizes)


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
