import hashlib
import itertools
import re

import pytest
from hypothesis import given, strategies as st

from qsc.compositions import compositions
from qsc.insertion import (
    _insert_into,
    _is_virtuous,
    _rapture_from,
    insert,
    insert_word,
    is_virtuous,
    rapture,
    uninsert,
)
from qsc.tableaux import (
    INF,
    is_ssyct,
    is_standard,
    semistandard_tableaux,
    shape_of,
    young_reading_word,
)

# Inserting 5 into this shape-(1,3,2) tableau bumps twice and settles next
# to the 2; the worked example used throughout.
BUMP_START = ((2,), (3, 4, 7), (6, 8))
BUMP_RESULT = ((2, 8), (3, 4, 5), (6, 7))


def test_insert_bumping_example():
    result = insert(BUMP_START, 5)
    assert result.rows == BUMP_RESULT
    assert result.new_cell == (2, 1)
    assert result.path == ((3, 2), (2, 3), (2, 1))


def test_insert_trace_events():
    events = []
    insert(BUMP_START, 5, events)
    assert [e["outcome"] for e in events if e["event"] == "scan"] == [
        "skip", "skip", "bump", "bump", "skip", "place",
    ]
    bump = events[2]
    assert bump["cell"] == [3, 2] and bump["carry"] == 5 and bump["occupant"] == 7


def test_insert_new_row_example():
    result = insert(((1, 3), (4, 5)), 2)
    assert result.rows == ((1, 2), (3,), (4, 5))
    assert result.new_cell == (1, 2)
    assert result.path == ((2, 1), (1, 2))


def test_insert_validation():
    with pytest.raises(ValueError):
        insert(BUMP_START, 0)
    with pytest.raises(ValueError):
        insert(((5,), (3,)), 2)


def test_virtuous_cells():
    # Row-terminal, above everything below it in its column, and no lower
    # row stops in the same column.
    assert is_virtuous(BUMP_RESULT, (2, 1))
    # Nothing sits above-left to block (3,2): only cells below it in its
    # column matter, and there are none.
    assert is_virtuous(BUMP_RESULT, (3, 2))
    assert not is_virtuous(BUMP_RESULT, (1, 2))
    # The 8 at (2,1) sits below the 7 at (2,3) and is larger.
    assert not is_virtuous(BUMP_RESULT, (2, 3))
    # A lower row ending in the same column blocks rapture.
    assert not is_virtuous(((1, 2), (3, 4)), (2, 2))
    with pytest.raises(ValueError):
        is_virtuous(BUMP_RESULT, (4, 1))


@pytest.mark.parametrize("cell", [(True, True), (1.0, 1), 5, (1, 1, 1), (1,), "11", None])
def test_cells_are_pairs_of_ints(cell):
    message = f"^cell must be a pair of integers, got {re.escape(repr(cell))}$"
    with pytest.raises(ValueError, match=message):
        rapture(((1,),), cell)
    with pytest.raises(ValueError, match=message):
        is_virtuous(((1,),), cell)


def test_rapture_eviction_example():
    result = rapture(BUMP_RESULT, (2, 1))
    assert result.rows == BUMP_START
    assert result.output == 5
    assert result.route == ((2, 1), (2, 3), (3, 2))


@pytest.mark.parametrize("result, fields", [
    (insert(BUMP_START, 5), ("rows", "new_cell", "path")),
    (rapture(BUMP_RESULT, (2, 1)), ("rows", "output", "route")),
], ids=["insert", "rapture"])
def test_results_are_immutable_values(result, fields):
    values = [getattr(result, name) for name in fields]
    twin = type(result)(*values)
    assert twin == result and hash(twin) == hash(result)
    assert type(result)(*values[:-1], ()) != result
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(result, name, None)
    assert [getattr(result, name) for name in fields] == values


def test_rapture_row_removal_example():
    result = rapture(((1, 2), (3,), (4, 5)), (1, 2))
    assert result.rows == ((1, 3), (4, 5))
    assert result.output == 2
    assert result.route == ((1, 2), (2, 1))


def _virtuous_cells(max_n):
    """(rows, cell) at each virtuous cell, in row order, of every
    semistandard Young composition tableau with 1 <= n <= max_n and entries
    <= n, walking n and then compositions(n)."""
    for n in range(1, max_n + 1):
        for shape in compositions(n):
            for rows in semistandard_tableaux(shape, "ssyct", n):
                for r, row in enumerate(rows, start=1):
                    if _is_virtuous(rows, (len(row), r)):
                        yield rows, (len(row), r)


def test_rapture_outputs_inf_only_off_virtuous_cells():
    # Run off a virtuous cell, the core can settle: removing the 2 at (1, 2)
    # of ((1,), (2,)) parks it next to the 1, and nothing falls out.
    work = [(1,), (2,)]
    assert _rapture_from(work, (1, 2)) == (INF, ((1, 2),))
    assert work == [(1, 2)]
    # At a virtuous cell, no rapture of a small tableau settles.
    raptures = 0
    for rows, cell in _virtuous_cells(6):
        work = list(rows)
        assert _rapture_from(work, cell)[0] is not INF
        raptures += 1
    assert raptures == 12455


def test_cores_replace_only_the_rows_they_change():
    # The cores take a list of row tuples.  A step leaves every row it was
    # handed as it was, and a row off the bumping path or the escape route
    # stays the very same object.
    steps = 0
    for n in range(1, 6):
        for word in itertools.permutations(range(1, n + 1)):
            rows = ()
            for k in word:
                copies = [list(x) for x in rows]
                work = list(rows)
                (col, row), path = _insert_into(work, k)
                assert [list(x) for x in rows] == copies
                on_path = {r for _, r in path}
                for i, after in enumerate(work, start=1):
                    if i not in on_path:
                        # A new row at (1, row) shifts the rows above it up.
                        assert after is rows[i - 1 - (col == 1 and i > row)]
                rows = tuple(work)
                steps += 1
    assert steps == 1 + 4 + 18 + 96 + 600
    raptures = 0
    for rows, (col, row) in _virtuous_cells(5):
        copies = [list(x) for x in rows]
        work = list(rows)
        _, route = _rapture_from(work, (col, row))
        assert [list(x) for x in rows] == copies
        on_route = {r for _, r in route[1:]} | ({row} if col > 1 else set())
        for i, after in enumerate(work, start=1):
            if i not in on_route:
                # Removing a one-cell row shifts the rows above it down.
                assert after is rows[i - 1 + (col == 1 and i >= row)]
        raptures += 1
    assert raptures == 1583


# One digest over repr((w, insert_word(w))) for every permutation w of
# 1..n, 1 <= n <= 7, in permutations order.
INSERT_WORD_SHA256 = "628489074f713df466b915660c2bbdd2e0864af040cbd828baf350c98226360b"


def test_insert_word_outputs_through_degree_seven():
    digest = hashlib.sha256()
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            digest.update(repr((word, insert_word(word))).encode())
    assert digest.hexdigest() == INSERT_WORD_SHA256


# One digest over repr((rows, result.rows, result.output, result.route)) for
# the rapture at every cell of _virtuous_cells(6).
RAPTURE_SHA256 = "f84b441f6164176bd8eaae4a72f8bbf18e088d07cc8baab40d7dd53920c34fd7"


def test_rapture_outputs_through_degree_six():
    digest = hashlib.sha256()
    for rows, cell in _virtuous_cells(6):
        result = rapture(rows, cell)
        digest.update(repr((rows, result.rows, result.output, result.route)).encode())
    assert digest.hexdigest() == RAPTURE_SHA256


def _scanned(events):
    return [e["cell"] for e in events if e["event"] == "scan"]


def test_rapture_traces():
    # The backward walk starts in column 2 after a row removal ...
    events = []
    rapture(((1, 2), (3,), (4, 5)), (1, 2), events)
    assert _scanned(events) == [[2, 1], [2, 2], [3, 1], [3, 2]]
    assert [e["outcome"] for e in events if e["event"] == "scan"] == [
        "evict", "skip", "skip", "skip",
    ]
    # ... and just above the removed cell otherwise, so removing the end of
    # the only row leaves nothing to scan and the entry falls out.
    events = []
    assert rapture(((1, 2),), (2, 1), events).output == 2
    assert _scanned(events) == []
    assert [e["event"] for e in events] == ["remove", "output"]


def test_rapture_validation():
    with pytest.raises(ValueError):
        rapture(BUMP_RESULT, (1, 2))
    with pytest.raises(ValueError):
        rapture(((5,), (3,)), (1, 2))


def test_insert_word_single_letter():
    assert insert_word((1,)) == (((1,),), ((1,),))


def test_insert_word_running_example():
    p, q = insert_word((4, 6, 9, 2, 8, 1, 3, 5, 7))
    assert p == ((1, 9), (2, 3, 5, 7), (4, 6, 8))
    assert q == ((6, 7), (4, 5, 8, 9), (1, 2, 3))


def test_insert_word_rejects_duplicates():
    with pytest.raises(ValueError):
        insert_word((1, 2, 1))


def test_uninsert_smallest_pair():
    assert uninsert(((1,), (2,)), ((2,), (1,))) == (2, 1)


def test_uninsert_rejects_mismatched_pair():
    # Peeling the 2 off (1, 2) of ((1,), (2,)) settles instead of
    # expelling a letter.
    with pytest.raises(ValueError, match="finite letter"):
        uninsert(((1,), (2,)), ((1,), (2,)))
    # Unwinding gives the word (1, 2), whose recording tableau is ((1, 2),),
    # so re-insertion rejects the pair.
    with pytest.raises(ValueError, match="not the output of any word insertion"):
        uninsert(((1, 2),), ((2, 1),))


@given(st.permutations(list(range(1, 8))))
def test_insert_word_shapes_agree(word):
    p, q = insert_word(tuple(word))
    assert is_ssyct(p) and is_standard(p)
    assert is_standard(q)
    assert shape_of(p) == shape_of(q)


@given(st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=8))
def test_increasing_insertions_move_right(values):
    # New cells from an increasing insertion sequence occupy strictly
    # increasing columns.
    rows: tuple = ()
    last_col = 0
    for v in sorted(values):
        result = insert(rows, v)
        assert result.new_cell[0] > last_col
        last_col = result.new_cell[0]
        rows = result.rows


def test_word_round_trip_exhaustive():
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            p, q = insert_word(word)
            assert uninsert(p, q) == word


def test_insert_scans_in_young_reading_order():
    # Insertion's scan is the Young reading word with column 1, read last,
    # left off; opening a new row means every cell was scanned.
    insertions = full_scans = 0
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            steps = []
            insert_word(word, steps)
            for j, step in enumerate(steps):
                rows = insert_word(word[:j])[0]
                order = list(young_reading_word(rows)[:-len(rows)])
                seen = [e["occupant"] for e in step["steps"] if e["event"] == "scan"]
                assert seen == order[:len(seen)]
                if step["new_cell"][0] == 1:
                    assert seen == order
                    full_scans += 1
                insertions += 1
    assert (insertions, full_scans) == (5039, 2670)
