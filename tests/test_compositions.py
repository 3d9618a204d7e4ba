import itertools

import pytest

from qsc.compositions import (
    coarsenings,
    composition_to_subset,
    compositions,
    dominates,
    from_string,
    is_partition,
    is_rearrangement,
    partitions,
    rearrangements,
    refinements,
    refines,
    reverse,
    size,
    subset_to_composition,
    to_string,
)


def test_compositions_of_four():
    assert compositions(4) == (
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 3),
        (1, 2, 1),
        (1, 1, 2),
        (1, 1, 1, 1),
    )


def test_compositions_counts():
    assert len(compositions(0)) == 1
    assert compositions(0) == ((),)
    for n in range(1, 9):
        assert len(compositions(n)) == 2 ** (n - 1)
        # Expansions order their support by sorting, not by this scan.
        assert compositions(n) == tuple(sorted(compositions(n), reverse=True))


def test_compositions_by_length():
    assert compositions(4, length=2) == ((3, 1), (2, 2), (1, 3))
    assert compositions(3, length=4) == ()
    assert compositions(0, length=0) == ((),)


def test_partitions_of_five():
    assert partitions(5) == (
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    )


def test_is_partition():
    assert is_partition((3, 3, 1))
    assert is_partition(())
    assert not is_partition((1, 2))


def test_reverse_and_size():
    assert reverse((1, 3, 2)) == (2, 3, 1)
    assert size((1, 3, 2)) == 6
    assert size(()) == 0


def test_string_round_trip():
    assert to_string((1, 3, 2)) == "1,3,2"
    assert from_string("1,3,2") == (1, 3, 2)
    assert to_string(()) == ""
    with pytest.raises(ValueError):
        from_string("1,0,2")


def test_subset_encoding():
    assert composition_to_subset((1, 3, 2)) == frozenset({1, 4})
    assert subset_to_composition(frozenset({1, 4}), 6) == (1, 3, 2)
    assert subset_to_composition(frozenset(), 0) == ()
    assert subset_to_composition(frozenset(), 5) == (5,)
    for n in (-1, True, 2.0):
        with pytest.raises(ValueError, match="nonnegative integer"):
            subset_to_composition(set(), n)


@pytest.mark.parametrize("subset", [{1.5}, {True}, {1, 2.0}, {"1"}])
def test_subset_elements_are_ints_not_bools(subset):
    with pytest.raises(ValueError, match="subset elements must be integers"):
        subset_to_composition(subset, 3)


def test_subset_round_trip():
    for n in range(9):
        for alpha in compositions(n):
            assert subset_to_composition(composition_to_subset(alpha), n) == alpha


def test_refinements_of_two_one():
    assert set(refinements((2, 1))) == {(2, 1), (1, 1, 1)}
    assert refines((1, 1, 1), (2, 1))
    assert not refines((2, 1), (1, 1, 1))
    assert not refines((1, 2), (2, 1))


def test_coarsenings_of_one_one_two():
    assert set(coarsenings((1, 1, 2))) == {(1, 1, 2), (2, 2), (1, 3), (4,)}


def test_refinement_coarsening_duality():
    for n in range(8):
        for alpha in compositions(n):
            for beta in compositions(n):
                assert (beta in refinements(alpha)) == (alpha in coarsenings(beta))


def test_dominance():
    assert dominates((2, 2), (1, 3))
    assert not dominates((1, 3), (2, 2))
    assert dominates((2, 1), (2, 1))
    with pytest.raises(ValueError):
        dominates((2,), (1, 2))


def test_rearrangements():
    assert rearrangements((2, 1)) == ((2, 1), (1, 2))
    assert is_rearrangement((1, 2), (2, 1))
    assert not is_rearrangement((1, 1, 1), (2, 1))
    assert rearrangements((1, 2, 1)) == ((2, 1, 1), (1, 2, 1), (1, 1, 2))
    for n in range(9):
        for alpha in compositions(n):
            assert rearrangements(alpha) == tuple(
                sorted(set(itertools.permutations(alpha)), reverse=True))
    assert rearrangements((1,) * 12) == ((1,) * 12,)
