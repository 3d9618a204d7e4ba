"""The insertion cores against a plain per-cell scan, on every small filling.

The cores must stay exact off-tableau, not only on Young composition
tableaux.  Under a core fault the verify suites run them on whatever the
fault left behind, and the tests hold each suite to a word-by-word oracle
on the same fillings, so a core that is exact only on tableaux would let
the two disagree; the recording walk inserts half letters; uninsert
raptures any pair it is given, at cells that need not be virtuous, and
rejects a pair only by what the cores do.  So
insertion._insert_into and _rapture_from are compared here, traced and
untraced, with the reference scan below: it reads each cell through its
row's current length, with the sentinel INF past the row's end, and
decides the cell from (left, occupant) for insert and (left, occupant,
right) for rapture.
"""

from __future__ import annotations

import itertools

from qsc.compositions import compositions
from qsc.insertion import _insert_into, _rapture_from
from qsc.tableaux import INF


def reference_insert(work, k, events=None):
    carry = k
    path = []
    for col in range(max(map(len, work), default=0) + 1, 1, -1):
        for row in range(len(work), 0, -1):
            entries = work[row - 1]
            if col > len(entries) + 1:
                continue
            left = entries[col - 2]
            occupant = entries[col - 1] if col <= len(entries) else INF
            fits = left <= carry < occupant
            if events is not None:
                outcome = "skip" if not fits else "place" if occupant is INF else "bump"
                events.append({"event": "scan", "cell": [col, row], "left": left,
                               "occupant": occupant, "carry": carry, "outcome": outcome})
            if not fits:
                continue
            path.append((col, row))
            if occupant is INF:
                work[row - 1] = entries + (carry,)
                return (col, row), tuple(path)
            work[row - 1] = entries[:col - 1] + (carry,) + entries[col:]
            carry = occupant
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


def reference_rapture(work, cell, events=None):
    col, row = cell
    carry = work[row - 1][col - 1]
    route = [cell]
    if col == 1:
        del work[row - 1]
    else:
        work[row - 1] = work[row - 1][:-1]
    if events is not None:
        events.append({"event": "remove", "cell": [col, row], "entry": carry,
                       "row_removed": col == 1})
    for c in range(max(col, 2), max(map(len, work), default=0) + 2):
        for r in range(row + 1 if c == col else 1, len(work) + 1):
            entries = work[r - 1]
            if c > len(entries) + 1:
                continue
            left = entries[c - 2]
            occupant = entries[c - 1] if c <= len(entries) else INF
            right = entries[c] if c < len(entries) else INF
            if not left <= carry <= right:
                outcome = "skip"
            elif occupant is INF:
                outcome = "settle"
            else:
                outcome = "pass" if occupant >= carry else "evict"
            if events is not None:
                events.append({"event": "scan", "cell": [c, r], "left": left,
                               "occupant": occupant, "right": right, "carry": carry,
                               "outcome": outcome})
            if outcome == "settle":
                work[r - 1] = entries + (carry,)
                return INF, tuple(route)
            if outcome == "evict":
                work[r - 1] = entries[:c - 1] + (carry,) + entries[c:]
                route.append((c, r))
                carry = occupant
    if events is not None:
        events.append({"event": "output", "value": carry})
    return carry, tuple(route)


def fillings(max_cells, alphabet):
    """Every filling of every composition of at most max_cells cells with
    entries from alphabet: rows that increase, decrease or repeat."""
    for n in range(max_cells + 1):
        for shape in compositions(n):
            for entries in itertools.product(alphabet, repeat=n):
                it = iter(entries)
                yield tuple(tuple(itertools.islice(it, length)) for length in shape)


def run(core, rows, arg, traced):
    """(result, work, kept, events): kept maps each row of work to the index
    of the row object of rows it still is, or None for a new row."""
    # Fresh row objects, so that identity tells the untouched rows apart.
    rows = [tuple(list(row)) for row in rows]
    work = list(rows)
    events = [] if traced else None
    result = core(work, arg, events)
    kept = [next((i for i, row in enumerate(rows) if row is entries), None) for entries in work]
    return result, work, kept, events


def test_cores_match_the_per_cell_scan_on_every_small_filling():
    alphabet = (1, 2, 3)
    # Every letter and half letter below, between and above the entries.
    letters = (0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4)
    insertions = raptures = 0
    for rows in fillings(4, alphabet):
        for traced in (False, True):
            for k in letters:
                assert run(_insert_into, rows, k, traced) == run(reference_insert, rows, k, traced)
                insertions += 1
            for r, row in enumerate(rows, start=1):
                cell = (len(row), r)
                assert run(_rapture_from, rows, cell, traced) == run(reference_rapture, rows, cell, traced)
                raptures += 1
    # 778 fillings with at most 4 cells over 1..3, holding 1,866 rows.
    assert (insertions, raptures) == (2 * 778 * 8, 2 * 1866)
