import copy
import enum
import hashlib
import json
import pickle
from collections import Counter
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import pytest

from qsc import qsym
from qsc.compositions import (
    check_composition,
    compositions,
    partitions,
    subset_to_composition,
    to_string,
)
from qsc.insertion import insert, insert_word
from qsc.qsym import (
    BASES,
    DUAL_IMMACULATE,
    FUNDAMENTAL,
    IMMACULATE,
    MONOMIAL,
    YOUNG_NCSCHUR,
    YOUNG_QS,
    BasisExpansion,
    check_conjectures,
    dimm_f_expansion,
    dimm_to_yqs,
    dual_immaculate_mexpr,
    expand_in,
    f_to_m,
    is_symmetric,
    m_to_f,
    monomial,
    monomial_coefficient_oracle,
    principal_specialization,
    quasi_shuffle,
    schur_m_expansion,
    yns_to_imm,
    young_qs_mexpr,
    yqs_f_expansion,
    yqs_to_dimm,
)
from qsc.rw import rw_dual, rw_forward
from qsc.tableaux import (
    _immaculate_descent_set,
    _young_descent_set,
    make_rows,
    semistandard_tableaux,
    standard_tableaux,
    weighted_tableaux,
)
from qsc.verify import run_suite


def test_mexpr_basics():
    f = BasisExpansion(MONOMIAL, 2, {(2,): 1, (1, 1): 3})
    assert f.coefficient((1, 1)) == 3
    assert f.coefficient((2,)) == 1
    g = f - monomial((2,))
    assert g == 3 * monomial((1, 1))
    assert g.coefficient((2,)) == 0
    assert hash(f) == hash(BasisExpansion(MONOMIAL, 2, {(1, 1): 3, (2,): 1}))
    assert BasisExpansion(MONOMIAL, 2, {(2,): 0}) == BasisExpansion(MONOMIAL, 2)


def test_mexpr_validation():
    with pytest.raises(ValueError):
        BasisExpansion(MONOMIAL, 2, {(1,): 1})
    with pytest.raises(ValueError):
        BasisExpansion(MONOMIAL, 2, {(2,): 1.5})
    with pytest.raises(ValueError):
        monomial((2,)) + monomial((3,))
    with pytest.raises(AttributeError):
        monomial((2,)).degree = 5


@pytest.mark.parametrize("name", ["basis", "degree", "coeffs", "extra"])
def test_expansions_are_immutable(name):
    f = monomial((2,))
    with pytest.raises(AttributeError):
        setattr(f, name, getattr(f, name, None))
    with pytest.raises(AttributeError):
        delattr(f, name)
    assert f == monomial((2,))


def test_expansions_equal_only_expansions():
    f = monomial((2,))
    twin = SimpleNamespace(basis=f.basis, degree=f.degree, coeffs=f.coeffs)
    assert f != twin and twin != f
    assert f != (f.basis, f.degree, f.coeffs)
    assert f != monomial((1, 1)) and f != BasisExpansion(FUNDAMENTAL, 2, {(2,): 1})
    assert BasisExpansion(MONOMIAL, 2).coeffs == {}
    assert BasisExpansion(MONOMIAL, 2) == BasisExpansion(MONOMIAL, 2, {})
    assert repr(f) == "BasisExpansion(basis='monomial', degree=2, coeffs=mappingproxy({(2,): 1}))"
    assert copy.copy(f) == f and pickle.loads(pickle.dumps(f)) == f


def test_cached_expansions_are_read_only():
    with pytest.raises(TypeError):
        young_qs_mexpr((2, 1)).coeffs[(3,)] = 1.5
    assert expand_in(young_qs_mexpr((2, 1)), YOUNG_QS).coeffs == {(2, 1): 1}


@pytest.mark.parametrize("degree, coeffs", [
    (2, {(2,): 1.0}),
    (2, {(2,): "3"}),
    (2, {(2,): True}),
    (-1, {}),
    (2.0, {}),
    ("2", {}),
    (True, {}),
])
def test_one_validation_rule_for_every_construction(degree, coeffs):
    with pytest.raises(ValueError):
        BasisExpansion(MONOMIAL, degree, coeffs)
    obj = {"basis": MONOMIAL, "degree": degree,
           "coeffs": {to_string(alpha): c for alpha, c in coeffs.items()}}
    with pytest.raises(ValueError):
        BasisExpansion.from_json_obj(obj)


@pytest.mark.parametrize("obj", [
    {"basis": MONOMIAL, "degree": 2},
    [MONOMIAL, 2, {"2": 1}],
    None,
    {"basis": MONOMIAL, "degree": 2, "coeffs": {2: 1}},
    {"basis": MONOMIAL, "degree": 2, "coeffs": [["2", 1]]},
    {"basis": [MONOMIAL], "degree": 2, "coeffs": {}},
])
def test_from_json_obj_rejects_malformed_objects(obj):
    with pytest.raises(ValueError):
        BasisExpansion.from_json_obj(obj)


def test_monomial_only_functions_reject_other_bases():
    table = dimm_to_yqs((2, 1))
    f = monomial((2, 1))
    for call in (lambda: quasi_shuffle(table, f), lambda: quasi_shuffle(f, table),
                 lambda: table * f, lambda: expand_in(table, MONOMIAL),
                 lambda: expand_in(table, DUAL_IMMACULATE), lambda: m_to_f(table),
                 lambda: is_symmetric(table), lambda: principal_specialization(table, 2)):
        with pytest.raises(ValueError, match="expected a monomial expansion"):
            call()
    for other in (m_to_f(f), dimm_to_yqs((1,))):
        with pytest.raises(ValueError, match="different bases or degrees"):
            table + other


def test_basis_constants():
    assert BASES == {MONOMIAL, FUNDAMENTAL, YOUNG_QS, DUAL_IMMACULATE,
                     IMMACULATE, YOUNG_NCSCHUR}


def test_basis_expansion_json():
    table = BasisExpansion(YOUNG_QS, 4, {(1, 3): 1, (2, 2): 1})
    obj = table.to_json_obj()
    assert obj == {"basis": "young-qs", "degree": 4,
                   "coeffs": {"2,2": 1, "1,3": 1}}
    assert list(obj["coeffs"]) == ["2,2", "1,3"]
    assert BasisExpansion.from_json_obj(json.loads(json.dumps(obj))) == table
    assert BasisExpansion(MONOMIAL, 2, {(2,): 0}).coeffs == {}
    with pytest.raises(ValueError):
        BasisExpansion("powersum", 2, {})
    with pytest.raises(ValueError):
        BasisExpansion(MONOMIAL, 2, {(1,): 1})


def test_fundamental_monomial_change():
    assert f_to_m((2,)) == BasisExpansion(MONOMIAL, 2, {(2,): 1, (1, 1): 1})
    assert m_to_f(monomial((2,))) == BasisExpansion(
        FUNDAMENTAL, 2, {(2,): 1, (1, 1): -1})
    for n in range(6):
        for alpha in compositions(n):
            table = m_to_f(monomial(alpha))
            back = BasisExpansion(MONOMIAL, n)
            for beta, c in table.coeffs.items():
                back = back + c * f_to_m(beta)
            assert back == monomial(alpha)


def test_quasi_shuffle_goldens():
    one = monomial((1,))
    assert one * one == BasisExpansion(MONOMIAL, 2, {(1, 1): 2, (2,): 1})
    assert one * monomial((2,)) == BasisExpansion(
        MONOMIAL, 3, {(1, 2): 1, (2, 1): 1, (3,): 1})
    assert quasi_shuffle(BasisExpansion(MONOMIAL, 2), one) == BasisExpansion(MONOMIAL, 3)


def test_quasi_shuffle_is_commutative_and_associative():
    gens = [monomial(a) for a in [(1,), (2,), (1, 1), (2, 1)]]
    for f in gens:
        for g in gens:
            assert f * g == g * f
            for h in [monomial((1,)), monomial((2,))]:
                assert (f * g) * h == f * (g * h)


def test_descent_expansions():
    assert yqs_f_expansion((1, 2, 1)) == BasisExpansion(
        FUNDAMENTAL, 4, {(1, 2, 1): 1})
    assert dimm_f_expansion((1, 2, 1)) == BasisExpansion(
        FUNDAMENTAL, 4, {(1, 2, 1): 1, (1, 1, 2): 1})
    assert dimm_f_expansion((2, 2)) == BasisExpansion(
        FUNDAMENTAL, 4, {(2, 2): 1, (1, 2, 1): 1, (1, 3): 1})


def test_oracle_agrees_with_descent_route():
    for n in range(1, 7):
        for alpha in compositions(n):
            young = young_qs_mexpr(alpha)
            dual = dual_immaculate_mexpr(alpha)
            for gamma in compositions(n):
                assert young.coefficient(gamma) == monomial_coefficient_oracle(
                    YOUNG_QS, alpha, gamma)
                assert dual.coefficient(gamma) == monomial_coefficient_oracle(
                    DUAL_IMMACULATE, alpha, gamma)


@pytest.mark.parametrize("f_expansion, kind, descents", [
    (yqs_f_expansion, "ssyct", _young_descent_set),
    (dimm_f_expansion, "immaculate", _immaculate_descent_set),
])
def test_counted_f_expansion_buckets_the_listed_tableaux(f_expansion, kind, descents):
    # The enumerator stays the oracle of the count over row-length states.
    for n in range(8):
        for alpha in compositions(n):
            listed = Counter(subset_to_composition(descents(t), n)
                             for t in standard_tableaux(alpha, kind))
            assert f_expansion(alpha) == BasisExpansion(FUNDAMENTAL, n, listed), alpha


ONES_40 = (1,) * 40


@pytest.mark.parametrize("expansion, alpha, term", [
    (yqs_f_expansion, (40,), (40,)),
    (dimm_f_expansion, (40,), (40,)),
    (yqs_f_expansion, ONES_40, ONES_40),
    (dimm_f_expansion, ONES_40, ONES_40),
    (young_qs_mexpr, ONES_40, ONES_40),
    (dual_immaculate_mexpr, ONES_40, ONES_40),
])
def test_one_filling_shapes_expand_to_one_term_at_degree_40(expansion, alpha, term):
    # One filling, one term: the work follows the terms, not the 2**39
    # compositions of 40.
    assert dict(expansion(alpha).items()) == {term: 1}


@pytest.mark.parametrize("f_expansion, mexpr", [
    (yqs_f_expansion, young_qs_mexpr),
    (dimm_f_expansion, dual_immaculate_mexpr),
])
@pytest.mark.parametrize("alpha", [(2,) + (1,) * 38, (1,) * 38 + (2,), (1,) * 19 + (2,) + (1,) * 19])
def test_monomial_expansion_sums_the_refinements_at_degree_40(f_expansion, mexpr, alpha):
    # The fundamental terms of these shapes share few descents, so the
    # monomial terms are found without laying out the compositions of 40;
    # they are checked against one refinement list per fundamental term.
    expected = BasisExpansion(MONOMIAL, 40)
    for beta, c in f_expansion(alpha).items():
        expected = expected + c * f_to_m(beta)
    assert mexpr(alpha) == expected


# sha256 over the four expansions, as JSON lines, of every composition of 9,
# as the enumerating route (listed standard tableaux, their descent sets and
# one refinement list per fundamental term) printed them.
DEGREE_9_SHA256 = "a09f9329639208427871d1e376bdfb5d2dd540c246dee9a795b2d0087a896cda"


def test_expansions_at_degree_9_are_pinned():
    digest = hashlib.sha256()
    for expansion in (young_qs_mexpr, dual_immaculate_mexpr, yqs_f_expansion, dimm_f_expansion):
        for alpha in compositions(9):
            digest.update(json.dumps(expansion(alpha).to_json_obj()).encode() + b"\n")
    assert digest.hexdigest() == DEGREE_9_SHA256


def test_schur_expansion():
    assert schur_m_expansion((2, 1)) == BasisExpansion(
        MONOMIAL, 3, {(2, 1): 1, (1, 2): 1, (1, 1, 1): 2})
    assert schur_m_expansion((1, 1)) == monomial((1, 1))
    with pytest.raises(ValueError):
        schur_m_expansion((1, 2))


def test_expand_in_goldens():
    assert expand_in(dual_immaculate_mexpr((2, 2)), YOUNG_QS) == \
        BasisExpansion(YOUNG_QS, 4, {(2, 2): 1, (1, 3): 1})
    assert expand_in(young_qs_mexpr((2, 1)), DUAL_IMMACULATE) == \
        BasisExpansion(DUAL_IMMACULATE, 3, {(2, 1): 1, (1, 2): -1})
    f = f_to_m((2, 1))
    assert expand_in(f, MONOMIAL) is f
    assert expand_in(f, FUNDAMENTAL) == BasisExpansion(
        FUNDAMENTAL, 3, {(2, 1): 1})


def test_expand_in_round_trips():
    for n in range(1, 8):
        for alpha in compositions(n):
            f = young_qs_mexpr(alpha)
            table = expand_in(f, DUAL_IMMACULATE)
            back = BasisExpansion(MONOMIAL, n)
            for beta, c in table.coeffs.items():
                back = back + c * dual_immaculate_mexpr(beta)
            assert back == f


@pytest.mark.parametrize("element", [
    BasisExpansion(MONOMIAL, 3, {(2, 1): 1, (1, 2): 1}),  # leading term M(2,1), not M(1,2)
    BasisExpansion(MONOMIAL, 3, {(1, 2): 2, (1, 1, 1): 1}),  # leading coefficient 2
])
def test_expand_in_checks_unitriangularity(monkeypatch, element):
    monkeypatch.setattr(qsym, "_mexpr", lambda basis, alpha: element)
    # A fresh row cache, so the rows reach the bad element and none outlives the test.
    monkeypatch.setattr(qsym, "_mexpr_row", cache(qsym._mexpr_row.__wrapped__))
    with pytest.raises(RuntimeError, match="not unitriangular"):
        expand_in(monomial((1, 2)), YOUNG_QS)


def dict_peel(rest, element, basis):
    # The reference peel: the lex-largest term of a dict of leftovers, each step.
    rest, out = dict(rest), {}
    while rest:
        alpha = max(rest)
        c = out[alpha] = rest[alpha]
        terms = element(alpha)
        lead = max(terms, default=None)
        if lead != alpha or terms[lead] != 1:
            raise RuntimeError(f"{basis} element at {to_string(alpha)} is not unitriangular")
        for gamma, x in terms.items():
            left = rest.get(gamma, 0) - c * x
            if left:
                rest[gamma] = left
            else:
                rest.pop(gamma, None)
    return out


def products(max_n):
    # s_lambda times dimm_alpha, as the positivity suite builds them.
    for total in range(2, max_n + 1):
        for k in range(1, total):
            for lam in partitions(k):
                for alpha in compositions(total - k):
                    yield quasi_shuffle(schur_m_expansion(lam), dual_immaculate_mexpr(alpha))


def test_indexed_peel_matches_the_dict_peel():
    elements = [mexpr(alpha) for n in range(1, 7) for alpha in compositions(n)
                for mexpr in (young_qs_mexpr, dual_immaculate_mexpr)]
    for f in elements + list(products(6)):
        for basis in (YOUNG_QS, DUAL_IMMACULATE):
            want = dict_peel(f.coeffs, lambda alpha: qsym._mexpr(basis, alpha).coeffs, basis)
            assert list(expand_in(f, basis).items()) == list(want.items())
    for n in range(1, 10):
        for alpha in compositions(n):
            want = dict_peel({alpha: 1}, qsym._dirt_row, DUAL_IMMACULATE)
            assert list(yqs_to_dimm(alpha).items()) == list(want.items())


def dict_shuffle(f, g):
    # The reference product: one dict update per term of each pair's shuffle.
    out = {}
    for u, cu in f.items():
        for v, cv in g.items():
            for w, m in qsym._shuffle_pair(u, v):
                out[w] = out.get(w, 0) + cu * cv * m
    return BasisExpansion(MONOMIAL, f.degree + g.degree, out)


def packed_inputs():
    # Signed elements, and elements whose coefficients need wider fields
    # than _W, beside the Schur-like ones.  2**_W at one composition and -1
    # at the next pack to 0 at width _W.
    for n in range(1, 5):
        order = compositions(n)
        for alpha, beta in zip(order, order[1:] + (None,)):
            young, dual = young_qs_mexpr(alpha), dual_immaculate_mexpr(alpha)
            yield from (young - dual, 10**40 * young, -(10**40) * dual + young)
            if beta:
                yield BasisExpansion(MONOMIAL, n, {alpha: 1 << qsym._W, beta: -1})


def test_packed_quasi_shuffle_matches_the_dict_loop():
    elements = [mexpr(alpha) for n in range(1, 8) for alpha in compositions(n)
                for mexpr in (young_qs_mexpr, dual_immaculate_mexpr)]
    for f in elements:
        for g in elements:
            if f.degree + g.degree <= 8:
                product = quasi_shuffle(f, g)
                assert product == dict_shuffle(f, g)
                order = compositions(product.degree)
                assert list(product.coeffs) == [w for w in order if w in product.coeffs]
    others = list(packed_inputs())
    for f in others:
        for g in others[:12] + elements[:12]:
            assert quasi_shuffle(f, g) == dict_shuffle(f, g)


def test_packed_expand_in_matches_the_dict_peel():
    inputs = list(packed_inputs())
    inputs += [quasi_shuffle(f, g) for f in inputs[:12] for g in inputs[-12:]]
    for f in inputs:
        for basis in (YOUNG_QS, DUAL_IMMACULATE):
            want = dict_peel(f.coeffs, lambda alpha: qsym._mexpr(basis, alpha).coeffs, basis)
            assert list(expand_in(f, basis).items()) == list(want.items())


def test_narrow_fields_widen_to_the_same_results(monkeypatch):
    # At width 4 a field holds -8 .. 7: nearly every product and peel must
    # widen.  The dense inputs have coefficients in that range, but some of
    # their expansions do not.
    dense = [BasisExpansion(MONOMIAL, n, {gamma: step * j % 15 - 7
                                          for j, gamma in enumerate(compositions(n))})
             for n in range(1, 7) for step in range(1, 8)]
    want = (list(products(6)), run_suite("positivity", 6))
    tables = [list(expand_in(f, basis).items())
              for f in want[0] + dense for basis in (YOUNG_QS, DUAL_IMMACULATE)]
    monkeypatch.setattr(qsym, "_W", 4)
    got = list(products(6))
    assert got == want[0]
    assert [list(expand_in(f, basis).items())
            for f in got + dense for basis in (YOUNG_QS, DUAL_IMMACULATE)] == tables
    result = run_suite("positivity", 6)
    assert (result.cases, result.failures) == (want[1].cases, want[1].failures)


def test_built_expansions_pass_the_public_constructor():
    # Expansions built from checked inputs skip validation; each must be
    # one the public constructor accepts unchanged, with no zero kept.
    built = list(products(6))
    for n in range(1, 7):
        built += [schur_m_expansion(lam) for lam in partitions(n)]
        for alpha in compositions(n):
            young, dual = young_qs_mexpr(alpha), dual_immaculate_mexpr(alpha)
            built += [young, dual, yqs_to_dimm(alpha), young - dual, 0 * dual,
                      quasi_shuffle(young - dual, monomial((1,)))]
            built += [expand_in(f, basis) for f in (young, dual)
                      for basis in (YOUNG_QS, DUAL_IMMACULATE)]
            built += [rw_forward(alpha)[1], rw_dual(alpha)[1],
                      dimm_to_yqs(alpha), yns_to_imm(alpha)]
    for e in built:
        assert BasisExpansion(e.basis, e.degree, dict(e.coeffs)) == e
        assert all(e.coeffs.values())
    for coeffs in ({(True, 1): 1}, {(2,): 1.0}):
        with pytest.raises(ValueError):
            BasisExpansion(MONOMIAL, 2, coeffs)


def test_coefficient_maps():
    assert dimm_to_yqs((2, 2)) == BasisExpansion(
        YOUNG_QS, 4, {(2, 2): 1, (1, 3): 1})
    assert dimm_to_yqs((2, 1)) == BasisExpansion(
        YOUNG_QS, 3, {(2, 1): 1, (1, 2): 1})
    assert dimm_to_yqs((2, 2, 2)) == BasisExpansion(
        YOUNG_QS, 6,
        {(2, 2, 2): 1, (2, 1, 3): 1, (1, 3, 2): 1, (1, 2, 3): 2, (1, 1, 4): 1})
    assert yns_to_imm((2, 1)) == BasisExpansion(IMMACULATE, 3, {(2, 1): 1})
    assert yns_to_imm((1, 2, 3)) == BasisExpansion(
        IMMACULATE, 6,
        {(3, 2, 1): 1, (3, 1, 2): 1, (2, 3, 1): 1, (2, 2, 2): 2,
         (2, 1, 3): 1, (1, 3, 2): 1, (1, 2, 3): 1})


def test_yns_to_imm_is_the_transposed_dirt_table():
    # The old definition, the column at alpha of the DIRT rows of its
    # length, is the oracle for the dual rule's count.
    for n in range(9):
        for alpha in compositions(n):
            column = {beta: qsym._dirt_row(beta).get(alpha, 0) for beta in compositions(n, len(alpha))}
            assert yns_to_imm(alpha) == BasisExpansion(IMMACULATE, n, column), alpha


@pytest.mark.parametrize("alpha", [(5000,), (1,) * 1000], ids=["5000", "1^1000"])
def test_yns_to_imm_counts_deep_diagrams_without_recursion(alpha):
    assert yns_to_imm(alpha).coeffs == {alpha: 1}


def test_a_dual_row_from_its_cached_tails_is_the_row_counted_from_scratch():
    # Each row alone is counted from scratch.  Filled in ascending degree,
    # alpha[1:]'s levels are cached by (1,) + alpha[1:] unless that is
    # alpha; filled in reverse, the first rows count the tails of later
    # ones.  Both give the same rows, keys in the same order.
    alphas = [alpha for n in range(9) for alpha in compositions(n)]
    scratch = {}
    for alpha in alphas:
        qsym._DUAL_LEVELS.clear()
        scratch[alpha] = list(qsym._dual_row(alpha).items())
    for order in (alphas, alphas[::-1]):
        qsym._DUAL_LEVELS.clear()
        for alpha in order:
            if order is alphas:
                assert (alpha[1:] in qsym._DUAL_LEVELS) == (len(alpha) > 1 and alpha[0] > 1)
            assert list(qsym._dual_row(alpha).items()) == scratch[alpha], alpha


DUAL_ROWS = json.loads((Path(__file__).parent / "golden" / "dual_rows.json").read_text())


def test_dual_row_item_order_is_pinned():
    # Items in the order the dual rule's fold emits them, recorded for every
    # alpha with n <= 6; the tests above compare dicts, or the count with
    # itself, so none of them sees the order.
    alphas = [alpha for n in range(1, 7) for alpha in compositions(n)]
    keys = [",".join(map(str, alpha)) for alpha in alphas]
    assert list(DUAL_ROWS) == keys
    for alpha, key in zip(alphas, keys):
        want = [(tuple(beta), c) for beta, c in DUAL_ROWS[key]]
        assert list(qsym._dual_row(alpha).items()) == want, alpha
        assert list(yns_to_imm(alpha).coeffs.items()) == want, alpha


def test_the_dual_rules_last_level_reads_the_shared_rule(monkeypatch):
    # The last level has one path at most, but it still reads the rule
    # from _row_runs: "ignore the lower-row rule" at the counted
    # composition's last level alone, not at its tails' levels, changes
    # the count.
    alphas = [alpha for n in range(6) for alpha in compositions(n)]
    clean = {alpha: yns_to_imm(alpha) for alpha in alphas}
    real, counted = qsym._row_runs, []

    def faulty(alpha, lens, top):
        if top == 0 and alpha == counted[-1]:
            return [(r, alpha[r]) for r in range(len(alpha)) if lens[r] < alpha[r]]
        return real(alpha, lens, top)

    monkeypatch.setattr(qsym, "_row_runs", faulty)
    changed = []
    for alpha in alphas:
        counted.append(alpha)
        if yns_to_imm(alpha) != clean[alpha]:
            changed.append(alpha)
    assert changed == [(1, 2, 2)]


def test_coefficient_maps_match_linear_algebra():
    for n in range(1, 8):
        for alpha in compositions(n):
            assert dimm_to_yqs(alpha) == expand_in(
                dual_immaculate_mexpr(alpha), YOUNG_QS)


def test_inverted_dirt_table_matches_peeling():
    assert yqs_to_dimm((2, 1)) == BasisExpansion(
        DUAL_IMMACULATE, 3, {(2, 1): 1, (1, 2): -1})
    for n in range(1, 8):
        for alpha in compositions(n):
            assert yqs_to_dimm(alpha) == expand_in(
                young_qs_mexpr(alpha), DUAL_IMMACULATE)


def test_inverted_dirt_table_checks_unitriangularity(dirt_diagonal_2):
    with pytest.raises(RuntimeError, match="at 2,1 is not unitriangular"):
        yqs_to_dimm((2, 1))


@pytest.mark.parametrize("route, rows", [
    pytest.param(lambda: dimm_to_yqs((4, 4, 4, 4, 4)), 1, id="dimm_to_yqs"),
    pytest.param(lambda: yqs_to_dimm((4, 4, 4, 4, 4)), 96, id="yqs_to_dimm"),
    pytest.param(lambda: check_conjectures(7), 64, id="check_conjectures"),
    pytest.param(lambda: yns_to_imm((4, 4, 4, 4, 4)), 0, id="yns_to_imm"),
])
def test_each_dirt_route_counts_only_the_rows_it_reads(route, rows):
    # One row for dimm_to_yqs, the rows the peel pivots on for yqs_to_dimm,
    # for the survey at 7 every composition of 7 once, and none for
    # yns_to_imm, which counts the dual rule.
    qsym._DIRT_ROWS.clear()
    route()
    assert len(qsym._DIRT_ROWS) == rows


def test_a_dirt_row_from_its_cached_tail_is_the_row_counted_from_scratch():
    # Each row alone is counted from scratch.  Filled in ascending degree,
    # every row's tail alpha[1:] is cached first, so the count starts from
    # it; filled in reverse, none is.  Both give the same rows, keys in the
    # same order.
    alphas = [alpha for n in range(9) for alpha in compositions(n)]
    scratch = {}
    for alpha in alphas:
        qsym._DIRT_ROWS.clear()
        scratch[alpha] = list(qsym._dirt_row(alpha).items())
    for order in (alphas, alphas[::-1]):
        qsym._DIRT_ROWS.clear()
        for alpha in order:
            assert (alpha[1:] in qsym._DIRT_ROWS) == (order is alphas and alpha != ())
            assert list(qsym._dirt_row(alpha).items()) == scratch[alpha], alpha


def test_symmetry_characterization():
    assert is_symmetric(dual_immaculate_mexpr((3,)))
    assert is_symmetric(dual_immaculate_mexpr((2, 1)))
    assert is_symmetric(dual_immaculate_mexpr((3, 1, 1)))
    assert not is_symmetric(dual_immaculate_mexpr((1, 2)))
    assert not is_symmetric(dual_immaculate_mexpr((2, 1, 2)))
    assert dual_immaculate_mexpr((2, 1, 1)) == schur_m_expansion((2, 1, 1))


def test_principal_specialization():
    f = young_qs_mexpr((2, 1))
    g = monomial((1,))
    for m in range(5):
        assert principal_specialization(f * g, m) == \
            principal_specialization(f, m) * principal_specialization(g, m)
    assert principal_specialization(monomial((2, 1)), 2) == 1
    assert principal_specialization(monomial((2, 1)), 3) == 3


@pytest.mark.parametrize("call", [
    lambda: check_conjectures(True),
    lambda: check_conjectures(2.0),
    lambda: principal_specialization(monomial((1,)), True),
    lambda: principal_specialization(monomial((1,)), "2"),
    lambda: compositions(True),
    lambda: compositions(2.5),
    lambda: compositions(2, True),
    lambda: partitions(True),
])
def test_scalar_arguments_are_ints_not_bools(call):
    with pytest.raises(ValueError, match="integer"):
        call()


class Two(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize("value", [True, Two.TWO], ids=["bool", "IntEnum"])
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda v: check_composition((v, 1)), "composition parts", id="check_composition"),
    pytest.param(lambda v: make_rows([[1, 3], [v]]), "entries", id="make_rows"),
    pytest.param(lambda v: semistandard_tableaux((2, 1), "ssyct", v), "max_entry",
                 id="semistandard_tableaux"),
    pytest.param(lambda v: insert(((1,),), v), "inserted value", id="insert"),
    pytest.param(lambda v: insert_word((3, v)), "letters", id="insert_word"),
    pytest.param(lambda v: principal_specialization(monomial((1,)), v), "m must",
                 id="principal_specialization"),
    pytest.param(lambda v: check_conjectures(v), "degree must", id="check_conjectures"),
])
def test_one_integer_rule_refuses_int_subclasses(call, message, value):
    # Exactly int, as compositions, BasisExpansion and the typed caches
    # need; each entry point refuses with its own message.
    with pytest.raises(ValueError, match=f"{message} .*integer"):
        call(value)


def test_integer_rule_holds_on_cache_hits():
    # Warm every cache with the int key that compares equal to the bool one.
    compositions(1, 1)
    partitions(1)
    for mexpr in (young_qs_mexpr, dual_immaculate_mexpr):
        mexpr((1, 1))
        with pytest.raises(ValueError, match="positive integers"):
            mexpr((True, 1))
    with pytest.raises(ValueError, match="integer"):
        compositions(True, 1)
    with pytest.raises(ValueError, match="integer"):
        partitions(True)
    for scale in (lambda f: f * True, lambda f: True * f, lambda f: f * 2.0):
        with pytest.raises(TypeError):
            scale(monomial((2, 1)))


def test_conjecture_report_structure():
    trivial = check_conjectures(1)
    assert trivial["bounded"]["holds"]
    assert trivial["alternating"]["checked"] == ["1"]
    report = check_conjectures(4)
    assert report["bounded"]["holds"]
    assert report["sum_rule"]["holds"]
    assert report["alternating"]["holds"]
    assert report["expansions"]["2,1,1"]
    for lam in partitions(4):
        assert (to_string(lam) in report["alternating"]["checked"]) == (
            len(set(lam)) == len(lam))


def test_conjecture_pinned_case():
    report = check_conjectures(3)
    assert report["expansions"]["2,1"] == {"2,1": 1, "1,2": -1}


def test_conjecture_report_names_the_alternating_difference(monkeypatch):
    real = qsym.yqs_to_dimm

    def wrong(alpha):
        # Young qs (2, 1) is dual immaculate (2, 1) - (1, 2); drop the second.
        if alpha == (2, 1):
            return BasisExpansion(DUAL_IMMACULATE, 3, {(2, 1): 1})
        return real(alpha)

    monkeypatch.setattr(qsym, "yqs_to_dimm", wrong)
    report = check_conjectures(3)
    alt = report["alternating"]
    assert not alt["holds"]
    # The signed sum over the rearrangements minus the reported table.
    difference = (dual_immaculate_mexpr((2, 1)) - dual_immaculate_mexpr((1, 2))
                  - dual_immaculate_mexpr((2, 1)))
    assert alt["violations"] == [{
        "lambda": "2,1",
        "difference": {to_string(g): c for g, c in difference.items()},
    }]
    assert alt["violations"][0]["difference"] == {"1,2": -1, "1,1,1": -1}
    assert report["sum_rule"]["violations"] == [
        {"alpha": "2,1", "sum": 1, "expected": 0}]


@pytest.mark.parametrize("n", range(1, 12))
def test_conjectures_hold_through_degree_11(n):
    report = check_conjectures(n)
    assert report["bounded"]["holds"]
    assert report["sum_rule"]["holds"]
    assert report["alternating"]["holds"]


def test_bounded_conjecture_first_fails_at_degree_14():
    # The DIRT-count rows against an independent monomial count.  A dual
    # immaculate element at g has no monomial term with fewer parts than g,
    # and its lex-leading term is M_g with coefficient 1, so the weights gamma
    # with at most 4 parts fix every coefficient on compositions with at most
    # 4 parts, which is the whole support of these rows.
    rows = {
        (4, 2, 5, 3): {(1, 3, 6, 4): -2, (1, 3, 4, 6): 2, (3, 1, 6, 4): 2, (3, 1, 4, 6): -2},
        (4, 5, 2, 3): {(1, 4, 3, 6): 2, (1, 3, 4, 6): -2},
    }
    weights = [gamma for ell in range(1, 5) for gamma in compositions(14, ell)]
    assert len(weights) == 378
    for alpha, large in rows.items():
        table = yqs_to_dimm(alpha).coeffs
        assert {beta: c for beta, c in table.items() if abs(c) > 1} == large
        for gamma in weights:
            assert len(weighted_tableaux(alpha, "ssyct", gamma)) == sum(
                c * len(weighted_tableaux(beta, "immaculate", gamma))
                for beta, c in table.items())
