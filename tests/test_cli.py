import json

import pytest

from qsc.cli import main
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
])
def test_demo_insert_rejects_malformed_json_tableau(capsys, tableau):
    code, out, err = run(capsys, "demo", "insert", "--tableau", tableau,
                         "--k", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


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


def test_enumerate_dirts(capsys):
    code, out, _ = run(capsys, "enumerate", "dirts", "--shape", "1,3,2",
                       "--strips", "1,2,3")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 1
    assert obj["dirts"] == [[[4], [2, 5, 6], [1, 3]]]


def test_tree_json(capsys):
    code, out, _ = run(capsys, "tree", "--alpha", "2,2",
                       "--direction", "forward")
    assert code == 0
    obj = json.loads(out)
    assert obj["expansion"]["coeffs"] == {"2,2": 1, "1,3": 1}
    assert obj["tree"]["rows"] == [[1, 2]]


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


def test_verify_guard_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QSC_MAX_N", "2")
    code, _, err = run(capsys, "verify", "--suite", "descents", "--max-n", "3")
    assert code == 2
    assert "exceeds the guard (2)" in err
    code, out, _ = run(capsys, "verify", "--suite", "descents", "--max-n", "3",
                       "--force")
    assert code == 0
    assert "PASS" in out


def test_conjectures_report(capsys):
    code, out, _ = run(capsys, "conjectures", "--n", "3")
    assert code == 0
    assert "no violations" in out
    assert "young-qs[2,1] = dual-immaculate[2,1] - dual-immaculate[1,2]" in out


def test_conjectures_json(capsys):
    code, out, _ = run(capsys, "conjectures", "--n", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["expansions"]["2,1"] == {"2,1": 1, "1,2": -1}
    assert report["bounded"]["holds"]


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
