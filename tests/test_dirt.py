import itertools

import pytest

from qsc.compositions import compositions, partitions, reverse, size
from qsc.dirt import (
    _dirt_strip_shape,
    _strips,
    enumerate_dirts,
    is_dirt,
    row_strip_shape,
    row_strips,
    superstandard,
)
from qsc.insertion import insert_word
from qsc.tableaux import (
    _positions,
    immaculate_reading_word,
    is_standard,
    shape_of,
    standard_tableaux,
)

# Recording tableau with three strips of lengths 1, 3, 3.
STRIP_EXAMPLE = ((5,), (2, 3, 4, 7), (1, 6))


def test_row_strips_example():
    assert row_strips(STRIP_EXAMPLE) == ((1,), (2, 3, 4), (5, 6, 7))
    assert row_strip_shape(STRIP_EXAMPLE) == (1, 3, 3)


def test_row_strips_require_standard():
    with pytest.raises(ValueError):
        row_strips(((1, 1), (2, 3)))


def test_is_dirt_accepts_recording_tableaux():
    assert is_dirt(((3, 4), (1, 2)))
    assert is_dirt(((3,), (1, 2, 4)))
    assert is_dirt(((6, 7), (4, 5, 8, 9), (1, 2, 3)))


def test_is_dirt_rejections():
    # The leftmost column must increase top to bottom.
    assert not is_dirt(((1, 2), (3,)))
    assert not is_dirt(((1, 3), (2, 4)))
    # The strip 4 starts away from column 1.
    assert not is_dirt(((2, 4), (1, 3)))
    # Every coarse condition holds but the strip 2,3,5 returns left while
    # still running.
    assert not is_dirt(((4,), (2, 3, 5), (1, 6)))


def _standard_fillings(shape):
    cells = [(c, r) for r, width in enumerate(shape, start=1)
             for c in range(1, width + 1)]
    for perm in itertools.permutations(range(1, len(cells) + 1)):
        grid = [[0] * width for width in shape]
        for (c, r), v in zip(cells, perm):
            grid[r - 1][c - 1] = v
        yield tuple(tuple(row) for row in grid)


def test_is_dirt_matches_recording_tableaux_exactly():
    # A standard filling is a DIRT precisely when some immaculate reading
    # word records to it.
    for n in range(1, 6):
        recorded = set()
        for alpha in compositions(n):
            for u in standard_tableaux(alpha, "immaculate"):
                _, q = insert_word(immaculate_reading_word(u))
                recorded.add(q)
        for shape in compositions(n):
            for filling in _standard_fillings(shape):
                assert is_dirt(filling) == (filling in recorded)


def test_dirt_strip_shape_is_the_core_of_is_dirt_and_row_strip_shape():
    # One pass answers both questions: the strip shape of a DIRT, None for
    # any other filling.
    for n in range(7):
        for shape in compositions(n):
            for filling in _standard_fillings(shape):
                strips = _dirt_strip_shape(filling)
                assert is_dirt(filling) == (strips is not None)
                assert strips in (None, row_strip_shape(filling))
    for filling in (((1, 1), (2, 3)), ((2,),), ((1, 3),)):
        assert _dirt_strip_shape(filling) is None
        assert not is_dirt(filling)


def _reference_dirt_strip_shape(rows):
    # The reference: each DIRT condition tested on its own, over is_standard,
    # the positions map and _strips.
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


def test_dirt_strip_shape_matches_the_reference():
    fillings = [f for n in range(7) for shape in compositions(n)
                for f in _standard_fillings(shape)]
    fillings += [u for n in range(8) for alpha in compositions(n)
                 for kind in ("ssyct", "immaculate")
                 for u in standard_tableaux(alpha, kind)]
    # The recording tableaux of the reading words up to degree 8, DIRTs all.
    fillings += [insert_word(immaculate_reading_word(u))[1] for n in range(1, 9)
                 for alpha in compositions(n) for u in standard_tableaux(alpha, "immaculate")]
    dirts = 0
    for filling in fillings:
        strips = _dirt_strip_shape(filling)
        assert strips == _reference_dirt_strip_shape(filling)
        dirts += strips is not None
    assert 0 < dirts < len(fillings)
    # Not standard: each has a repeat, a zero or a value past n.
    for filling in (((2,),), ((1, 1),), ((3,), (1, 3)), ((4,), (1, 2)), ((0,),)):
        assert _dirt_strip_shape(filling) is None
        assert _reference_dirt_strip_shape(filling) is None
    # Standard, and a DIRT with row strips 1, 2 and 3.
    assert _dirt_strip_shape(((3,), (1, 2))) == (2, 1)


def test_enumerate_dirts_golden():
    assert enumerate_dirts((1, 3, 2), (1, 2, 3)) == (((4,), (2, 5, 6), (1, 3)),)
    assert enumerate_dirts((2, 2), (2, 2)) == (((3, 4), (1, 2)),)
    assert enumerate_dirts((1, 3), (2, 2)) == (((3,), (1, 2, 4)),)
    # Ordered by the rows holding 1, 2, ...: the forward tree's leaf order
    # differs here, and nowhere else with n <= 8.
    assert enumerate_dirts((1, 1, 4, 2), (1, 3, 2, 2)) == (
        ((7,), (5,), (2, 3, 4, 6), (1, 8)), ((7,), (5,), (2, 3, 4, 8), (1, 6)))


def test_enumerate_dirts_contracts():
    with pytest.raises(ValueError):
        enumerate_dirts((2, 2), (3, 2))
    assert enumerate_dirts((2, 2), (1, 2, 1)) == ()
    assert enumerate_dirts((), ()) == ((),)


def test_enumerate_dirts_is_exact():
    for n in range(1, 6):
        for shape in compositions(n):
            brute = {f for f in _standard_fillings(shape) if is_dirt(f)}
            by_strips = {}
            for f in brute:
                by_strips.setdefault(row_strip_shape(f), set()).add(f)
            for strips in compositions(n, length=len(shape)):
                produced = enumerate_dirts(shape, strips)
                assert len(set(produced)) == len(produced)
                assert set(produced) == by_strips.get(strips, set())


def test_superstandard():
    assert superstandard((2, 1)) == ((2, 3), (1,))
    assert superstandard((3, 1, 1)) == ((3, 4, 5), (2,), (1,))
    with pytest.raises(ValueError):
        superstandard((1, 2))


def test_superstandard_is_the_unique_partition_dirt():
    for n in range(1, 7):
        for lam in partitions(n):
            expected = superstandard(lam)
            assert is_dirt(expected)
            assert shape_of(expected) == lam
            assert row_strip_shape(expected) == reverse(lam)
            assert enumerate_dirts(lam, reverse(lam)) == (expected,)


def test_dirt_shapes_are_dominated_by_strips():
    # Whenever a DIRT of some shape exists, the reversed strip shape
    # dominates it prefix by prefix.
    for n in range(1, 7):
        for shape in compositions(n):
            for strips in compositions(n, length=len(shape)):
                if not enumerate_dirts(shape, strips):
                    continue
                alpha = reverse(strips)
                running_a = running_s = 0
                for pa, ps in zip(alpha, shape):
                    running_a += pa
                    running_s += ps
                    assert running_a >= running_s
                assert size(alpha) == size(shape)
