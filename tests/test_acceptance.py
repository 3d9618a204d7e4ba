"""Acceptance suite: ten criteria, one test and one report line each.

Every check is exact; there are no tolerances anywhere because the whole
package works over the integers.
"""

from qsc.compositions import compositions
from qsc.dirt import row_strip_shape
from qsc.insertion import insert, insert_word, rapture
from qsc.qsym import (
    DUAL_IMMACULATE,
    YOUNG_QS,
    check_conjectures,
    dimm_f_expansion,
    dimm_to_yqs,
    dual_immaculate_mexpr,
    expand_in,
    monomial_coefficient_oracle,
    schur_m_expansion,
    yns_to_imm,
    young_qs_mexpr,
    yqs_f_expansion,
)
from qsc.tableaux import (
    INF,
    immaculate_descent_set,
    immaculate_reading_word,
    young_descent_set,
    young_reading_word,
)
from qsc.verify import run_suite


def test_criterion_01_worked_example_goldens():
    """Reading words, bumping, rapture, full word insertion, the paired
    tableau table, and the row-strip example all reproduce exactly."""
    # Both reading words of the six-cell example of shape (1,3,2).
    example = ((1,), (2, 3, 5), (4, 6))
    assert young_reading_word(example) == (INF, INF, 5, 6, 3, INF, 4, 2, 1)
    assert immaculate_reading_word(example) == (4, 6, 2, 3, 5, 1)

    # Bumping: inserting 5 travels (3,2), (2,3), (2,1).
    bumped = insert(((2,), (3, 4, 7), (6, 8)), 5)
    assert bumped.rows == ((2, 8), (3, 4, 5), (6, 7))
    assert bumped.path == ((3, 2), (2, 3), (2, 1))

    # New-row insertion: a bumped 3 opens a fresh row in the middle.
    grown = insert(((1, 3), (4, 5)), 2)
    assert grown.rows == ((1, 2), (3,), (4, 5))
    assert grown.new_cell == (1, 2)
    assert grown.path == ((2, 1), (1, 2))

    # Rapture inverts the bumping example and expels 5.
    expelled = rapture(((2, 8), (3, 4, 5), (6, 7)), (2, 1))
    assert expelled.rows == ((2,), (3, 4, 7), (6, 8))
    assert expelled.output == 5
    assert expelled.route == ((2, 1), (2, 3), (3, 2))

    # Rapture from the leftmost column removes the row and expels 2.
    removed = rapture(((1, 2), (3,), (4, 5)), (1, 2))
    assert removed.rows == ((1, 3), (4, 5))
    assert removed.output == 2
    assert removed.route == ((1, 2), (2, 1))

    # A full nine-letter word maps to its (P, Q) pair.
    p, q = insert_word((4, 6, 9, 2, 8, 1, 3, 5, 7))
    assert p == ((1, 9), (2, 3, 5, 7), (4, 6, 8))
    assert q == ((6, 7), (4, 5, 8, 9), (1, 2, 3))

    # The three standard immaculate tableaux of shape (2,2), the tableaux
    # insertion pairs them with, and their descent compositions.
    table = [
        (((1, 2), (3, 4)), ((1, 2), (3, 4)), ((3, 4), (1, 2)), (2, 2)),
        (((1, 3), (2, 4)), ((1, 4), (2, 3)), ((3, 4), (1, 2)), (1, 2, 1)),
        (((1, 4), (2, 3)), ((1,), (2, 3, 4)), ((3,), (1, 2, 4)), (1, 3)),
    ]
    for u, p_want, q_want, descents in table:
        p, q = insert_word(immaculate_reading_word(u))
        assert (p, q) == (p_want, q_want)
        assert dimm_f_expansion((2, 2)).coefficient(descents) == 1
        assert immaculate_descent_set(u) == young_descent_set(p)

    # Row strips of a seven-cell recording tableau have lengths 1, 3, 3.
    assert row_strip_shape(((5,), (2, 3, 4, 7), (1, 6))) == (1, 3, 3)


def test_criterion_02_expansion_goldens():
    """Five fixed basis decompositions hold with exact coefficients."""
    assert dimm_f_expansion((1, 2, 1)).coeffs == {(1, 2, 1): 1, (1, 1, 2): 1}
    assert yqs_f_expansion((1, 2, 1)).coeffs == {(1, 2, 1): 1}
    assert dimm_f_expansion((2, 2)).coeffs == {
        (2, 2): 1, (1, 2, 1): 1, (1, 3): 1}
    assert dimm_to_yqs((2, 2)).coeffs == {(2, 2): 1, (1, 3): 1}
    assert dual_immaculate_mexpr((2, 2)) == \
        young_qs_mexpr((2, 2)) + young_qs_mexpr((1, 3))
    assert dimm_to_yqs((2, 2, 2)).coeffs == {
        (2, 2, 2): 1, (2, 1, 3): 1, (1, 3, 2): 1, (1, 2, 3): 2, (1, 1, 4): 1}
    assert yns_to_imm((1, 2, 3)).coeffs == {
        (3, 2, 1): 1, (2, 3, 1): 1, (3, 1, 2): 1, (2, 2, 2): 2,
        (1, 3, 2): 1, (2, 1, 3): 1, (1, 2, 3): 1}


def test_criterion_03_insertion_and_rapture_invert():
    """Rapture undoes insertion and insertion undoes rapture, with
    mirrored paths, on every tableau reachable from words of length 7."""
    result = run_suite("inverse", 7)
    assert result.cases == 20578
    assert result.passed, result.failures[:3]


def test_criterion_04_descents_preserved():
    """Insertion carries the immaculate descent set of the source filling
    onto the Young descent set of its image, through degree 7."""
    result = run_suite("descents", 7)
    assert result.cases > 0
    assert result.passed, result.failures[:3]


def test_criterion_05_three_counting_methods_agree():
    """Insertion statistics, direct recording-tableau enumeration, and
    forward tree leaves give identical coefficients through degree 6, and
    dual tree leaves match the transposed map."""
    result = run_suite("triple-agreement", 6)
    assert result.cases > 0
    assert result.passed, result.failures[:3]


def test_criterion_06_monomial_oracle_equivalence():
    """Descent-set-derived monomial coefficients equal brute-force
    weighted filling counts for both functions, degrees up to 5."""
    for n in range(1, 6):
        for alpha in compositions(n):
            young = young_qs_mexpr(alpha)
            dual = dual_immaculate_mexpr(alpha)
            for gamma in compositions(n):
                assert young.coefficient(gamma) == \
                    monomial_coefficient_oracle(YOUNG_QS, alpha, gamma)
                assert dual.coefficient(gamma) == \
                    monomial_coefficient_oracle(DUAL_IMMACULATE, alpha, gamma)


def test_criterion_07_symmetry_exactly_at_hooks():
    """The dual immaculate function is a symmetric function exactly when
    its index has all parts after the first equal to one, and there it
    coincides with the Schur function, through degree 7."""
    result = run_suite("symmetry", 7)
    assert result.cases > 0
    assert result.passed, result.failures[:3]
    assert dual_immaculate_mexpr((4, 1, 1)) == schur_m_expansion((4, 1, 1))
    assert dual_immaculate_mexpr((3, 1, 1, 1)) == \
        schur_m_expansion((3, 1, 1, 1))


def test_criterion_08_schur_products_stay_positive():
    """Multiplying by a Schur function keeps the expansion nonnegative
    through total degree 6, while the dual immaculate side shows a
    genuine negative witness."""
    result = run_suite("positivity", 6)
    assert result.cases > 0
    assert result.passed, result.failures[:3]
    witness = expand_in(
        schur_m_expansion((2, 1)) * dual_immaculate_mexpr((1,)),
        DUAL_IMMACULATE)
    assert any(c < 0 for c in witness.coeffs.values())


def test_criterion_09_triangularity_and_partition_columns():
    """Nonzero coefficients only connect equal-length compositions where
    the source dominates the target, diagonal entries are 1, a partition
    indexes a delta column, and its own expansion on the dual side is the
    singleton, through degree 7."""
    result = run_suite("dominance", 7)
    assert result.cases > 0
    assert result.passed, result.failures[:3]


def test_criterion_10_conjecture_reports():
    """The empirical survey reports no violations through degree 7: all
    coefficients lie in {-1, 0, 1}, coefficient sums follow the reversed
    hook rule, the signed-permutation identity holds at distinct-part
    partitions, and the degree-3 pinned expansion comes out right."""
    for n in range(1, 8):
        report = check_conjectures(n)
        assert report["bounded"]["holds"], report["bounded"]["violations"]
        assert report["sum_rule"]["holds"], report["sum_rule"]["violations"]
        assert report["alternating"]["holds"], \
            report["alternating"]["violations"]
    assert check_conjectures(3)["expansions"]["2,1"] == {"2,1": 1, "1,2": -1}
