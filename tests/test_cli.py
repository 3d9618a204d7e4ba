import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsc
from qsc import cli, insertion
from qsc.cli import _ROUTES, _spell_inf, main
from qsc.verify import SUITES
from qsc.qsym import BasisExpansion


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_dual_immaculate_to_young_qs(capsys):
    code, out, _ = run(capsys, "expand", "--from", "dual-immaculate",
                       "--alpha", "2,2", "--to", "young-qs")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"basis": "young-qs", "degree": 4,
                   "coeffs": {"2,2": 1, "1,3": 1}}
    # Emitted JSON is readable by the library's own parser.
    assert BasisExpansion.from_json_obj(obj).coefficient((1, 3)) == 1


def test_expand_young_ncschur_to_immaculate(capsys):
    code, out, _ = run(capsys, "expand", "--from", "young-ncschur",
                       "--alpha", "1,2,3", "--to", "immaculate")
    assert code == 0
    coeffs = json.loads(out)["coeffs"]
    assert coeffs["2,2,2"] == 2
    assert len(coeffs) == 7


def test_expand_young_qs_to_fundamental(capsys):
    code, out, _ = run(capsys, "expand", "--from", "young-qs",
                       "--alpha", "1,2,1", "--to", "fundamental")
    assert code == 0
    assert json.loads(out)["coeffs"] == {"1,2,1": 1}


@pytest.mark.parametrize("basis, alpha, term", [
    ("dual-immaculate", "30", "30"),
    ("young-qs", ",".join(["1"] * 25), ",".join(["1"] * 25)),
], ids=["dual-immaculate-30", "young-qs-1^25"])
def test_expand_a_long_one_filling_shape_to_fundamental(capsys, basis, alpha, term):
    code, out, _ = run(capsys, "expand", "--from", basis, "--alpha", alpha,
                       "--to", "fundamental")
    assert code == 0
    assert json.loads(out)["coeffs"] == {term: 1}


def test_expand_text_format(capsys):
    code, out, _ = run(capsys, "expand", "--from", "dual-immaculate",
                       "--alpha", "2,2", "--to", "young-qs",
                       "--format", "text")
    assert code == 0
    assert out == "2,2\t1\n1,3\t1\n"


def test_expand_unsupported_route(capsys):
    code, out, err = run(capsys, "expand", "--from", "fundamental",
                         "--alpha", "2,1", "--to", "immaculate")
    assert code == 2
    assert out == ""
    assert "no expansion route" in err


def test_expand_bad_composition(capsys):
    code, _, err = run(capsys, "expand", "--from", "fundamental",
                       "--alpha", "2,0", "--to", "monomial")
    assert code == 2
    assert err.startswith("error:")


def test_a_composition_too_large_to_list_exits_2(capsys):
    code, out, err = run(capsys, "expand", "--from", "dual-immaculate",
                         "--to", "young-qs", "--alpha", "99999999999999999999")
    assert (code, out, err) == (2, "", "error: input too large to compute\n")


@pytest.mark.parametrize("source, target", [
    ("dual-immaculate", "young-qs"),
    ("young-qs", "dual-immaculate"),
    ("young-ncschur", "immaculate"),
])
def test_every_dirt_route_refuses_a_part_of_10_to_the_20(capsys, source, target):
    # A DIRT count takes one step per cell, so no route may loop over this part.
    code, out, err = run(capsys, "expand", "--from", source, "--to", target,
                         "--alpha", str(10 ** 20))
    assert (code, out, err) == (2, "", "error: input too large to compute\n")


def test_a_filling_too_large_to_allocate_exits_2(capsys, monkeypatch):
    # Raised, not allocated: a host that overcommits memory may not fail fast.
    def too_large(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "semistandard_tableaux", too_large)
    code, out, err = run(capsys, "enumerate", "tableaux", "--shape", "3",
                         "--kind", "ssyct", "--max-entry", "99999999999")
    assert (code, out, err) == (2, "", "error: input too large to compute\n")


@pytest.mark.parametrize("argv, progs", [
    (["--help"], ["qsc"]),
    (["conjectures", "--n", "3"], ["qsc", "qsc conjectures"]),
    (["demo", "insert", "--tableau", "2/3", "--k", "1"],
     ["qsc", "qsc demo", "qsc demo insert"]),
])
def test_a_run_builds_only_the_parsers_on_its_command_path(capsys, monkeypatch,
                                                           argv, progs):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        assert main(argv) == 0
    except SystemExit as exc:
        assert exc.code == 0
    assert built == progs


def test_demo_insert_trace(capsys):
    code, out, _ = run(capsys, "demo", "insert",
                       "--tableau", "2/3,4,7/6,8", "--k", "5")
    assert code == 0
    trace = json.loads(out)
    assert trace["result"] == [[2, 8], [3, 4, 5], [6, 7]]
    assert trace["path"] == [[3, 2], [2, 3], [2, 1]]
    assert trace["steps"][0]["occupant"] == "inf"
    assert [s["outcome"] for s in trace["steps"]] == [
        "skip", "skip", "bump", "bump", "skip", "place"]


def test_demo_insert_accepts_json_tableau(capsys):
    tableau = json.dumps({"shape": [1, 3, 2], "rows": [[2], [3, 4, 7], [6, 8]]})
    code, out, _ = run(capsys, "demo", "insert", "--tableau", tableau,
                       "--k", "5")
    assert code == 0
    assert json.loads(out)["new_cell"] == [2, 1]
    code, out, _ = run(capsys, "demo", "insert",
                       "--tableau", "[[2], [3, 4, 7], [6, 8]]", "--k", "5")
    assert code == 0
    assert json.loads(out)["new_cell"] == [2, 1]


@pytest.mark.parametrize("tableau", [
    '{"rows": 5}',
    '{"rows": [[1]], "shape": 5}',
    '[5]',
    pytest.param("[" * 5000 + "]" * 5000, id="nested-5000-deep"),
])
def test_demo_insert_rejects_malformed_json_tableau(capsys, tableau):
    code, out, err = run(capsys, "demo", "insert", "--tableau", tableau,
                         "--k", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("tableau", ["1,,2", "1,2,", ",1", "3/1,,2"])
def test_demo_insert_rejects_an_empty_entry(capsys, tableau):
    code, out, err = run(capsys, "demo", "insert", "--tableau", tableau, "--k", "1")
    assert code == 2
    assert out == ""
    row = tableau.split("/")[-1]
    assert err == f"error: cannot parse row {row!r}\n"


@pytest.mark.parametrize("argv", [
    ["demo", "insert", "--tableau", "1_0", "--k", "+2"],
    ["demo", "insert", "--tableau", "1", "--k", "1_0"],
    ["expand", "--from", "dual-immaculate", "--to", "young-qs", "--alpha", "1_0,+1"],
    ["verify", "--suite", "symmetry", "--max-n", "\u0663"],
    ["conjectures", "--n", "+3"],
    ["enumerate", "tableaux", "--shape", "2", "--kind", "ssyct", "--max-entry", "1_0"],
])
def test_integers_are_plain_ascii_decimals(capsys, argv):
    # Python's int takes '1_0', '+2' and Arabic-Indic three; qsc does not.
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["demo", "insert", "--tableau", "1", "--k", "x"],
    ["verify", "--suite", "symmetry", "--max-n", "x"],
    ["conjectures", "--n", "x"],
    ["enumerate", "tableaux", "--shape", "2", "--kind", "ssyct", "--max-entry", "x"],
])
def test_a_bad_integer_names_its_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {argv[-2]}: invalid integer value: 'x'" in captured.err
    assert "_parse_int" not in captured.err


def test_spaced_and_negative_integers_reach_the_library(capsys):
    code, out, _ = run(capsys, "demo", "insert", "--tableau", " 2 , 3 ", "--k", " 1 ")
    assert code == 0
    assert json.loads(out)["result"] == [[1], [2, 3]]
    code, out, err = run(capsys, "demo", "insert", "--tableau", "2", "--k", "-1")
    assert (code, out) == (2, "")
    assert err == "error: inserted value must be a positive integer, got -1\n"


def test_demo_rapture_trace(capsys):
    code, out, _ = run(capsys, "demo", "rapture",
                       "--tableau", "2,8/3,4,5/6,7", "--cell", "2,1")
    assert code == 0
    trace = json.loads(out)
    assert trace["output"] == 5
    assert trace["route"] == [[2, 1], [2, 3], [3, 2]]
    assert trace["result"] == [[2], [3, 4, 7], [6, 8]]


def test_demo_rapture_rejects_unvirtuous_cell(capsys):
    code, _, err = run(capsys, "demo", "rapture",
                       "--tableau", "2,8/3,4,5/6,7", "--cell", "1,2")
    assert code == 2
    assert "not virtuous" in err


def test_demo_rapture_rejects_bad_tableau(capsys):
    code, _, err = run(capsys, "demo", "rapture",
                       "--tableau", "5/3", "--cell", "1,1")
    assert code == 2
    assert err.startswith("error:")


def test_demo_rapture_names_the_cell_in_its_parse_error(capsys):
    code, _, err = run(capsys, "demo", "rapture", "--tableau", "1,2/3", "--cell", "0,1")
    assert code == 2
    assert err == "error: cell must be 'column,row' with positive integers, got '0,1'\n"


@pytest.mark.parametrize("tableau", ['{"rows": [[1], [2]], "shape": [true, 1.0]}',
                                     '{"rows": [[1]], "shape": [1.0]}'])
def test_demo_insert_rejects_a_declared_shape_that_is_not_integers(capsys, tableau):
    code, out, err = run(capsys, "demo", "insert", "--tableau", tableau, "--k", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_demo_word(capsys):
    code, out, _ = run(capsys, "demo", "word", "--word", "1")
    assert code == 0
    trace = json.loads(out)
    assert trace["p"] == [[1]] and trace["q"] == [[1]]
    code, out, _ = run(capsys, "demo", "word", "--word", "4,6,9,2,8,1,3,5,7")
    trace = json.loads(out)
    assert trace["p"] == [[1, 9], [2, 3, 5, 7], [4, 6, 8]]
    assert trace["q"] == [[6, 7], [4, 5, 8, 9], [1, 2, 3]]
    assert len(trace["insertions"]) == 9


def test_demo_word_inserts_each_letter_once(capsys, monkeypatch):
    word = (4, 6, 9, 2, 8, 1, 3, 5, 7)
    # Reference: each letter through the public insert, then the whole word.
    insertions, rows = [], ()
    for letter in word:
        steps: list = []
        step = insertion.insert(rows, letter, steps)
        insertions.append({"letter": letter, "steps": steps,
                           "new_cell": list(step.new_cell),
                           "path": [list(cell) for cell in step.path]})
        rows = step.rows
    p, q = insertion.insert_word(word)
    expected = json.dumps(_spell_inf({
        "word": list(word), "insertions": insertions,
        "p": [list(r) for r in p], "q": [list(r) for r in q]})) + "\n"

    calls = []
    real = insertion._insert_into

    def counting(work, k, events=None):
        calls.append(k)
        return real(work, k, events)

    monkeypatch.setattr(insertion, "_insert_into", counting)
    code, out, _ = run(capsys, "demo", "word", "--word", "4,6,9,2,8,1,3,5,7")
    assert code == 0
    assert out == expected
    assert calls == list(word)


def test_demo_word_rejects_repeated_letters(capsys):
    code, out, err = run(capsys, "demo", "word", "--word", "1,2,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_enumerate_tableaux(capsys):
    code, out, _ = run(capsys, "enumerate", "tableaux", "--shape", "2,2",
                       "--kind", "immaculate", "--standard")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 3
    assert [[1, 2], [3, 4]] in obj["tableaux"]
    code, out, _ = run(capsys, "enumerate", "tableaux", "--shape", "1,2",
                       "--kind", "ssyct", "--max-entry", "2",
                       "--format", "text")
    assert code == 0
    assert out.startswith("count:")


def test_enumerate_tableaux_rejects_a_negative_max_entry(capsys):
    code, out, err = run(capsys, "enumerate", "tableaux", "--shape", "1",
                         "--kind", "ssyct", "--max-entry", "-3")
    assert code == 2
    assert out == ""
    assert err == "error: max_entry must be a nonnegative integer, got -3\n"


def test_enumerate_dirts(capsys):
    code, out, _ = run(capsys, "enumerate", "dirts", "--shape", "1,3,2",
                       "--strips", "1,2,3")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 1
    assert obj["dirts"] == [[[4], [2, 5, 6], [1, 3]]]


def test_enumerate_dirts_refuses_a_tree_nested_too_deeply(capsys):
    parts = ",".join(["1"] * 1200)
    code, out, err = run(capsys, "enumerate", "dirts", "--shape", parts, "--strips", parts)
    assert code == 2
    assert out == ""
    assert err == "error: the forward tree of 1200 strips is nested too deeply\n"


@pytest.mark.parametrize("fill", [["--standard"], ["--max-entry", "1"]])
def test_enumerate_tableaux_fills_a_2000_cell_row(capsys, fill):
    # The filling search keeps its own stack, so a shape past the recursion
    # limit still gets its one filling.
    code, out, err = run(capsys, "enumerate", "tableaux", "--shape", "2000",
                         "--kind", "ssyct", "--format", "json", *fill)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    row = list(range(1, 2001)) if fill == ["--standard"] else [1] * 2000
    assert obj["count"] == 1
    assert obj["tableaux"] == [[row]]


def test_tree_json(capsys):
    code, out, _ = run(capsys, "tree", "--alpha", "2,2",
                       "--direction", "forward")
    assert code == 0
    obj = json.loads(out)
    assert obj["expansion"]["coeffs"] == {"2,2": 1, "1,3": 1}
    assert obj["tree"]["rows"] == [[1, 2]]


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize("direction", ["forward", "dual"])
def test_tree_refuses_a_tree_nested_too_deeply(capsys, direction, fmt):
    # 500 parts already overflow both emissions.
    code, out, err = run(capsys, "tree", "--alpha", ",".join(["1"] * 1200),
                         "--direction", direction, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == f"error: the {direction} tree of 1200 parts is nested too deeply\n"


@pytest.mark.parametrize("parts", [250, 450])
@pytest.mark.parametrize("direction", ["forward", "dual"])
def test_tree_json_reaches_the_dot_depth(capsys, direction, parts):
    alpha = ",".join(["1"] * parts)
    code, dot, err = run(capsys, "tree", "--alpha", alpha, "--direction", direction,
                         "--format", "dot")
    assert code == 0 and err == ""
    code, out, err = run(capsys, "tree", "--alpha", alpha, "--direction", direction,
                         "--format", "json")
    assert code == 0 and err == ""
    nodes, todo = 0, [json.loads(out)["tree"]]
    while todo:
        nodes += 1
        todo.extend(todo.pop()["children"])
    assert nodes == dot.count(" [label=")


def test_tree_dot(capsys):
    code, out, _ = run(capsys, "tree", "--alpha", "2,1",
                       "--direction", "dual", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph tree {")
    assert out.endswith("}\n")


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "descents", "--max-n", "4")
    assert code == 0
    assert "suite descents: PASS" in out


def test_verify_guard(capsys):
    code, _, err = run(capsys, "verify", "--suite", "inverse", "--max-n", "10")
    assert code == 2
    assert "exceeds the guard" in err


def test_conjectures_report(capsys):
    code, out, _ = run(capsys, "conjectures", "--n", "3")
    assert code == 0
    assert "no violations" in out
    assert "young-qs[2,1] = dual-immaculate[2,1] - dual-immaculate[1,2]" in out


def test_conjectures_report_lists_violations(capsys, monkeypatch):
    report = {
        "degree": 3,
        "bounded": {"holds": False, "violations": [
            {"alpha": "1,2", "beta": "2,1", "value": 2}]},
        "sum_rule": {"holds": False, "violations": [
            {"alpha": "3", "sum": 0, "expected": 1}]},
        "alternating": {"holds": False, "checked": ["2,1"], "violations": [
            {"lambda": "2,1", "difference": {"1,1,1": -1}}]},
        "expansions": {"2,1": {"2,1": 1, "1,2": -1}},
    }
    monkeypatch.setattr("qsc.cli.check_conjectures", lambda n: report)
    code, out, _ = run(capsys, "conjectures", "--n", "3")
    assert code == 0
    assert out == (
        "conjecture report at degree 3\n"
        "coefficients in {-1, 0, 1}: 1 violations\n"
        "  alpha=1,2 beta=2,1 value=2\n"
        "coefficient sums (1 at reversed hooks, else 0): 1 violations\n"
        "  alpha=3 sum=0 expected=1\n"
        "signed-permutation formula at distinct-part partitions: 1 violations\n"
        "  lambda=2,1 difference={'1,1,1': -1}\n"
        "expansions in the dual immaculate basis:\n"
        "  young-qs[2,1] = dual-immaculate[2,1] - dual-immaculate[1,2]\n")
    for key in ("bounded", "sum_rule", "alternating"):
        report[key] = dict(report[key], holds=True, violations=[])
    _, out, _ = run(capsys, "conjectures", "--n", "3")
    assert out.splitlines()[1:4] == [
        "coefficients in {-1, 0, 1}: no violations",
        "coefficient sums (1 at reversed hooks, else 0): no violations",
        "signed-permutation formula at distinct-part partitions:"
        " no violations (checked: (2,1))"]


@pytest.mark.parametrize("argv", [
    ["conjectures", "--n", "3"],
    ["conjectures", "--n", "3", "--format", "json"],
    ["expand", "--from", "young-qs", "--alpha", "2,1", "--to", "dual-immaculate"],
])
def test_a_table_that_is_not_unitriangular_exits_3(capsys, dirt_diagonal_2, argv):
    # The peel's check failing is a fault in the package, not in the input,
    # so it has its own exit code, with one error line and no traceback.
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "error: dual-immaculate element at 2,1 is not unitriangular\n"


def test_conjectures_json(capsys):
    code, out, _ = run(capsys, "conjectures", "--n", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["expansions"]["2,1"] == {"2,1": 1, "1,2": -1}
    assert report["bounded"]["holds"]


SURVEY_11_SHA256 = {
    "text": "99470e3c0e0d1402cf31c7444584c3c7eed37fa088cbc1dc833e4cf71d99bf42",
    "json": "0c2dae3dc83eacc4a36551fae6bec40dbb92a404aafacc7a549648ed3a0c3d4a",
}


@pytest.mark.parametrize("fmt", sorted(SURVEY_11_SHA256))
def test_conjectures_output_at_degree_11(capsys, fmt):
    # Every printed expansion above the degree guard, pinned byte for byte.
    code, out, _ = run(capsys, "conjectures", "--n", "11", "--force", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SURVEY_11_SHA256[fmt]


def test_conjectures_guard(capsys):
    code, _, err = run(capsys, "conjectures", "--n", "10")
    assert code == 2
    assert "exceeds the guard" in err


def test_repeated_invocations_are_identical(capsys):
    _, first, _ = run(capsys, "tree", "--alpha", "1,2,3",
                      "--direction", "dual")
    _, second, _ = run(capsys, "tree", "--alpha", "1,2,3",
                       "--direction", "dual")
    assert first == second


# Argument pools for the fuzz: every composition of degree at most 4 (so
# each command finishes quickly) plus malformed values.
_COMPOSITIONS = ["", "1", "2", "1,1", "3", "2,1", "1,2", "1,1,1", "4", "3,1",
                 "2,2", "1,3", "2,1,1", "1,2,1", "1,1,2", "1,1,1,1"]
_JUNK = ["0", "-1", "a", "1,,2", "1.5", " ", "2/1", "1,0"]
_BASES = ["dual-immaculate", "young-qs", "young-ncschur", "fundamental",
          "monomial", "immaculate", "schur"]
_comp = st.sampled_from(_COMPOSITIONS + _JUNK)
_small_int = st.integers(-2, 4).map(str)
_row = st.lists(st.integers(0, 6), min_size=0, max_size=3)
_rows = st.lists(_row, max_size=3)
_tableau = st.one_of(
    _rows.map(lambda rows: "/".join(",".join(map(str, r)) for r in rows)),
    _rows.map(json.dumps),
    _rows.map(lambda rows: json.dumps({"rows": rows})),
    st.sampled_from(['{"rows": 5}', '{"rows": [[1]], "shape": 5}', "[5]",
                     "{", '{"shape": [1]}', '{"rows": [[1]], "shape": [2]}']),
)


def _opt(flag, values):
    # The flag is left out one time in five.
    return st.tuples(st.integers(0, 4), values).map(
        lambda t: [flag, t[1]] if t[0] else [])


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


_ARGV = st.one_of(
    _argv(st.just(["expand"]),
          st.one_of(st.sampled_from(list(_ROUTES)),
                    st.tuples(st.sampled_from(_BASES), st.sampled_from(_BASES)))
          .map(lambda route: ["--from", route[0], "--to", route[1]]),
          _opt("--alpha", _comp),
          _opt("--format", st.sampled_from(["json", "text", "xml"]))),
    _argv(st.just(["demo", "insert"]), _opt("--tableau", _tableau),
          _opt("--k", _small_int)),
    _argv(st.just(["demo", "rapture"]), _opt("--tableau", _tableau),
          _opt("--cell", st.sampled_from(["1,1", "2,1", "1,2", "3,3", "0,1", "1", "a"]))),
    _argv(st.just(["demo", "word"]),
          _opt("--word", st.sampled_from(_COMPOSITIONS + _JUNK + ["3,1,2", "2,4,1,3"]))),
    _argv(st.just(["enumerate", "tableaux"]), _opt("--shape", _comp),
          _opt("--kind", st.sampled_from(["ssyct", "immaculate", "other"])),
          st.sampled_from([[], ["--standard"]]), _opt("--max-entry", _small_int),
          _opt("--format", st.sampled_from(["json", "text"]))),
    _argv(st.just(["enumerate", "dirts"]), _opt("--shape", _comp),
          _opt("--strips", _comp), _opt("--format", st.sampled_from(["json", "text"]))),
    _argv(st.just(["tree"]), _opt("--alpha", _comp),
          _opt("--direction", st.sampled_from(["forward", "dual", "up"])),
          _opt("--format", st.sampled_from(["dot", "json"]))),
    _argv(st.just(["verify"]), _opt("--suite", st.sampled_from(sorted(SUITES) + ["nope"])),
          st.just(["--max-n"]), _small_int.map(lambda v: [v]),
          st.sampled_from([[], ["--force"]])),
    _argv(st.just(["conjectures"]), st.just(["--n"]), _small_int.map(lambda v: [v]),
          st.sampled_from([[], ["--force"]]),
          _opt("--format", st.sampled_from(["json", "text"]))),
)


@settings(max_examples=300, deadline=None)
@given(_ARGV)
def test_cli_fuzz_exit_codes(argv):
    # Exit 0 is success, 1 a failed verify suite, 2 a usage or input error;
    # nothing else escapes main except argparse's own usage exit.  Exit 3,
    # a table of the package's own that fails its check, takes a fault.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv
    assert code != 1 or argv[0] == "verify", argv
    if code == 2:
        assert err.getvalue().startswith("error:"), argv


def test_closed_stdout_exits_141_without_a_traceback():
    # The report is larger than a pipe buffer, so the writer outlives the reader.
    src = str(Path(qsc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qsc.cli", "conjectures", "--n", "10", "--force"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"conjecture report at degree 10\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert stderr == b""


def test_importing_the_cli_loads_no_dataclasses_inspect_or_json():
    # Every qsc process pays for what `import qsc.cli` loads; compare with a
    # bare interpreter so that modules the site hooks load do not count.
    src = str(Path(qsc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    show = "import sys; print(' '.join(sorted(sys.modules)))"

    def loaded(setup):
        out = subprocess.run([sys.executable, "-c", f"{setup}; {show}"], env=env,
                             capture_output=True, text=True, check=True).stdout
        return set(out.split())

    added = loaded("import qsc.cli") - loaded("pass")
    assert "qsc.cli" in added
    assert not added & {"dataclasses", "inspect", "json"}
