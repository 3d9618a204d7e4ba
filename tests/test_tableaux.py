import hashlib
import itertools
import math
import re

import pytest
from hypothesis import given, strategies as st

from qsc.compositions import compositions, partitions, rearrangements
from qsc.insertion import _is_virtuous
from qsc.tableaux import (
    INF,
    from_json_obj,
    immaculate_descent_set,
    immaculate_reading_word,
    is_immaculate,
    is_ssyct,
    is_standard,
    make_rows,
    parse_rows,
    positions,
    render,
    semistandard_tableaux,
    shape_of,
    standard_tableaux,
    to_json_obj,
    weight,
    weighted_tableaux,
    young_descent_set,
    young_reading_word,
)

# The running six-cell example of shape (1,3,2): a standard filling whose
# two reading words differ.
EXAMPLE = ((1,), (2, 3, 5), (4, 6))


def test_make_rows_validation():
    assert make_rows([[2], [3, 4, 7]]) == ((2,), (3, 4, 7))
    with pytest.raises(ValueError):
        make_rows([[0]])
    with pytest.raises(ValueError):
        make_rows([[1], []])
    with pytest.raises(ValueError):
        make_rows([[1.5]])


def test_shape_weight_positions():
    assert shape_of(EXAMPLE) == (1, 3, 2)
    assert weight(EXAMPLE) == (1, 1, 1, 1, 1, 1)
    assert weight(((1, 1), (2,))) == (2, 1)
    assert positions(EXAMPLE)[5] == (3, 2)
    assert positions(EXAMPLE)[4] == (1, 3)


def test_reading_words():
    assert young_reading_word(EXAMPLE) == (INF, INF, 5, 6, 3, INF, 4, 2, 1)
    assert immaculate_reading_word(EXAMPLE) == (4, 6, 2, 3, 5, 1)


def test_descent_sets_on_example():
    assert young_descent_set(EXAMPLE) == frozenset({1, 3, 5})
    assert immaculate_descent_set(EXAMPLE) == frozenset({1, 3, 5})


def test_descent_sets_distinguish():
    assert immaculate_descent_set(((1, 3), (2, 4))) == frozenset({1, 3})
    assert immaculate_descent_set(((1, 4), (2, 3))) == frozenset({1})
    assert young_descent_set(((1, 4), (2, 3))) == frozenset({1, 3})
    assert young_descent_set(((1,), (2, 3, 4))) == frozenset({1})


def test_filling_kinds():
    assert is_immaculate(EXAMPLE) and is_ssyct(EXAMPLE)
    assert is_standard(EXAMPLE)
    # Weakly increasing rows and a strict first column are not enough for
    # the triple rule.
    for rows in [((1, 2), (2, 2)), ((1, 3), (2, 3)), ((1, 2, 2), (2, 3))]:
        assert is_immaculate(rows)
        assert not is_ssyct(rows)
    assert is_ssyct(((1, 1), (2, 3)))
    assert not is_standard(((1, 1), (2, 3)))
    assert not is_immaculate(((2, 1),))
    assert not is_immaculate(((2,), (1, 1)))


def test_standard_enumeration_goldens():
    assert standard_tableaux((2, 2), "immaculate") == (
        ((1, 4), (2, 3)),
        ((1, 3), (2, 4)),
        ((1, 2), (3, 4)),
    )
    assert standard_tableaux((2, 2), "ssyct") == (
        ((1, 4), (2, 3)),
        ((1, 2), (3, 4)),
    )
    assert standard_tableaux((1, 3), "ssyct") == (((1,), (2, 3, 4)),)
    assert standard_tableaux((1, 2, 1), "ssyct") == (((1,), (2, 3), (4,)),)
    assert young_descent_set(((1,), (2, 3), (4,))) == frozenset({1, 3})


@given(st.integers(min_value=1, max_value=5))
def test_standard_enumeration_is_sound(n):
    for shape in compositions(n):
        for rows in standard_tableaux(shape, "immaculate"):
            assert shape_of(rows) == shape
            assert is_standard(rows) and is_immaculate(rows)
        ssyct = standard_tableaux(shape, "ssyct")
        assert set(ssyct) <= set(standard_tableaux(shape, "immaculate"))
        for rows in ssyct:
            assert is_ssyct(rows)


def test_enumerators_are_complete():
    # Brute force: every filling with entries up to max(n, 3), kept when it
    # passes the kind's predicate, sorted by row word (top row first).
    for n in range(6):
        for shape in compositions(n):
            fillings = []
            for entries in itertools.product(range(1, max(n, 3) + 1), repeat=n):
                it = iter(entries)
                fillings.append(tuple(tuple(next(it) for _ in range(w)) for w in shape))
            for kind, test in (("ssyct", is_ssyct), ("immaculate", is_immaculate)):
                valid = sorted(filter(test, fillings), key=immaculate_reading_word)
                assert standard_tableaux(shape, kind) == tuple(filter(is_standard, valid))
                for max_entry in (1, 2, 3):
                    assert semistandard_tableaux(shape, kind, max_entry) == tuple(
                        rows for rows in valid if all(x <= max_entry for r in rows for x in r))
                for gamma in compositions(n):
                    assert weighted_tableaux(shape, kind, gamma) == tuple(
                        rows for rows in valid if weight(rows) == gamma)


# The predicates as any/all over generator expressions, the forms their
# plain loops replaced, kept as the oracle for them.
def oracle_is_immaculate(rows):
    for row in rows:
        if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
            return False
    first = [row[0] for row in rows]
    return all(first[i] < first[i + 1] for i in range(len(first) - 1))


def oracle_triple_ok(rows):
    return all(upper[i] > lower[i + 1] or (i + 1 < len(upper) and upper[i + 1] < lower[i + 1])
               for j, lower in enumerate(rows) for upper in rows[j + 1:]
               for i in range(min(len(upper), len(lower) - 1)))


def oracle_is_virtuous(rows, cell):
    col, row = cell
    if col != len(rows[row - 1]):
        return False
    v = rows[row - 1][col - 1]
    return not any(len(below) >= col and (len(below) == col or below[col - 1] >= v)
                   for below in rows[:row - 1])


def row_increasing_fillings(shape):
    """Every standard filling of shape whose rows increase, tableau or not."""
    def fill(letters, parts):
        if not parts:
            yield ()
            return
        for row in itertools.combinations(letters, parts[0]):
            rest = [x for x in letters if x not in row]
            for rows in fill(rest, parts[1:]):
                yield (row,) + rows

    return fill(range(1, sum(shape) + 1), shape)


def test_predicates_match_their_any_all_oracles():
    def check(rows):
        immaculate = oracle_is_immaculate(rows)
        assert is_immaculate(rows) == immaculate, rows
        assert is_ssyct(rows) == (immaculate and oracle_triple_ok(rows)), rows
        for r, row in enumerate(rows, start=1):
            for c in range(1, len(row) + 1):
                assert _is_virtuous(rows, (c, r)) == oracle_is_virtuous(rows, (c, r)), (rows, c, r)
        return immaculate and oracle_triple_ok(rows)

    standard = [rows for n in range(7) for shape in compositions(n)
                for rows in row_increasing_fillings(shape)]
    # The ordered set partitions of 1..n, n <= 6.
    assert len(standard) == 1 + 1 + 3 + 13 + 75 + 541 + 4683
    assert sum(map(check, standard)) == sum(
        len(standard_tableaux(shape, "ssyct")) for n in range(7) for shape in compositions(n))
    # Every filling with n <= 5 and entries <= 3: rows that fall or repeat,
    # and among them every semistandard tableau of that range.
    ssyct = 0
    for n in range(6):
        for shape in compositions(n):
            for entries in itertools.product((1, 2, 3), repeat=n):
                it = iter(entries)
                ssyct += check(tuple(tuple(next(it) for _ in range(w)) for w in shape))
    assert ssyct == sum(len(semistandard_tableaux(shape, "ssyct", 3))
                        for n in range(6) for shape in compositions(n))


def test_semistandard_enumeration():
    small = semistandard_tableaux((1, 2), "ssyct", 2)
    assert all(is_ssyct(rows) for rows in small)
    assert all(max(max(r) for r in rows) <= 2 for rows in small)
    assert len(semistandard_tableaux((1, 2), "ssyct", 3)) > len(small)
    # Unused values cost no recursion depth, so a large max_entry is fine.
    assert len(semistandard_tableaux((1,), "ssyct", 5000)) == 5000


def test_semistandard_enumeration_without_entries():
    # No entry fits: the empty shape has its one empty filling, every other
    # shape none, and the kind is still checked.
    for n in range(5):
        for shape in compositions(n):
            for kind in ("ssyct", "immaculate"):
                expected = () if shape else ((),)
                assert semistandard_tableaux(shape, kind, 0) == expected
    with pytest.raises(ValueError, match="unknown tableau kind"):
        semistandard_tableaux((2,), "bogus", 0)


@pytest.mark.parametrize("max_entry", [True, 2.5, "2", None])
def test_semistandard_max_entry_is_an_int_not_a_bool(max_entry):
    with pytest.raises(ValueError, match="max_entry must be a nonnegative integer"):
        semistandard_tableaux((1,), "ssyct", max_entry)


@pytest.mark.parametrize("shape", [(), (1,), (2, 1)])
def test_semistandard_max_entry_is_not_negative(shape):
    with pytest.raises(ValueError, match="max_entry must be a nonnegative integer, got -3"):
        semistandard_tableaux(shape, "ssyct", -3)


def test_weighted_fillings():
    assert len(weighted_tableaux((1, 2, 1), "ssyct", (1, 2, 1))) == 1
    for rows in weighted_tableaux((2, 2), "immaculate", (1, 2, 1)):
        assert weight(rows) == (1, 2, 1)
    # (3, -1) sums to the shape's size but is no weight.
    with pytest.raises(ValueError, match="composition parts"):
        weighted_tableaux((2,), "ssyct", (3, -1))
    # An unknown kind is rejected whether or not the weight fits the shape.
    for gamma in ((1,), (2,)):
        with pytest.raises(ValueError, match="unknown tableau kind"):
            weighted_tableaux((2,), "bogus", gamma)


def test_parse_and_render():
    assert parse_rows("2/3,4,7/6,8") == ((2,), (3, 4, 7), (6, 8))
    assert parse_rows("1") == ((1,),)
    # Spaces around an entry are allowed; an empty entry or row is not.
    assert parse_rows(" 2, 3 / 4") == ((2, 3), (4,))
    for text in ("1,,2", "1,2,", ",1", "1, ,2", "2/1,,3"):
        row = text.split("/")[-1]
        with pytest.raises(ValueError, match=f"^cannot parse row {re.escape(repr(row))}$"):
            parse_rows(text)
    for text in ("2//3", "", "2/ /3", "2/"):
        with pytest.raises(ValueError, match="rows must be nonempty"):
            parse_rows(text)
    # Only an optional '-' and ASCII digits: not '1_0', '+1' or other digits.
    for text in ("1_0", "+1", "2/\u0663", "2/3,+4"):
        row = text.split("/")[-1]
        with pytest.raises(ValueError, match=f"^cannot parse row {re.escape(repr(row))}$"):
            parse_rows(text)
    with pytest.raises(ValueError, match="entries must be positive integers"):
        parse_rows("2/-3")
    text = render(EXAMPLE)
    assert text.splitlines()[-1].strip() == "1"
    assert "4 6" in text


def test_json_round_trip():
    obj = to_json_obj(EXAMPLE)
    assert obj == {"shape": [1, 3, 2], "rows": [[1], [2, 3, 5], [4, 6]]}
    assert from_json_obj(obj) == EXAMPLE
    with pytest.raises(ValueError):
        from_json_obj({"shape": [2], "rows": [[1], [2]]})


def _hook_length_count(lam):
    # f^lambda = n! over the product of the hook lengths of the diagram of lam.
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = math.prod(lam[i] - j + conj[j] - i - 1
                      for i in range(len(lam)) for j in range(lam[i]))
    return math.factorial(sum(lam)) // hooks


def test_standard_filling_counts_have_closed_forms():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    involutions = [1, 1, 2, 4, 10, 26, 76, 232, 764]
    for n in range(9):
        assert sum(len(standard_tableaux(a, "immaculate")) for a in compositions(n)) == bell[n]
        assert sum(len(standard_tableaux(a, "ssyct")) for a in compositions(n)) == involutions[n]
        for lam in partitions(n):
            assert sum(len(standard_tableaux(a, "ssyct"))
                       for a in rearrangements(lam)) == _hook_length_count(lam)


# One digest over repr of each result tuple: for n = 0..7, compositions(n)
# order and kind "ssyct" then "immaculate", standard_tableaux and, for
# n <= 5, semistandard_tableaux with max_entry = n.
ENUMERATOR_SHA256 = "f6ebb5bd7d68c54b0706c25c90a92ed2dd0a07864c4f80776beb44a1c115c1fd"


def test_enumerator_outputs_through_degree_seven():
    digest = hashlib.sha256()
    for n in range(8):
        for shape in compositions(n):
            for kind in ("ssyct", "immaculate"):
                digest.update(repr(standard_tableaux(shape, kind)).encode())
                if n <= 5:
                    digest.update(repr(semistandard_tableaux(shape, kind, n)).encode())
    assert digest.hexdigest() == ENUMERATOR_SHA256
