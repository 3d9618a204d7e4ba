
import hashlib
import json
from pathlib import Path

import pytest

from qsc import qsym, rw
from qsc.compositions import compositions
from qsc.dirt import is_dirt
from qsc.qsym import IMMACULATE, YOUNG_QS, _dual_row, dimm_to_yqs, yns_to_imm
from qsc.rw import Node, rw_dual, rw_forward, tree_to_dot, tree_to_json
from qsc.verify import run_suite


def _leaves(node: Node):
    if node.is_leaf:
        yield node
    for child in node.children:
        yield from _leaves(child)


def test_nodes_are_immutable_values():
    leaf = Node(((1, 2),), (), (2,))
    root = Node(((1, 2),), (leaf,))
    assert root.key is None and not root.is_leaf
    assert leaf.is_leaf and leaf.children == () and leaf.filling == ((1, 2),)
    twin = Node(((1, 2),), (Node(((1, 2),), (), (2,)),))
    assert twin == root and hash(twin) == hash(root)
    assert Node(((1, 2),), (), (1, 1)) != leaf
    for name in ("filling", "children", "key"):
        with pytest.raises(AttributeError):
            setattr(leaf, name, None)
    assert leaf.key == (2,)


def test_forward_tree_two_two():
    root, expansion = rw_forward((2, 2))
    assert expansion.basis == YOUNG_QS
    assert expansion.coeffs == {(2, 2): 1, (1, 3): 1}
    leaves = list(_leaves(root))
    assert len(leaves) == 2
    assert all(is_dirt(leaf.filling) for leaf in leaves)
    assert root.filling == ((1, 2),)


def test_forward_tree_goldens():
    _, expansion = rw_forward((2, 2, 2))
    assert expansion.coeffs == {
        (2, 2, 2): 1, (2, 1, 3): 1, (1, 3, 2): 1, (1, 2, 3): 2, (1, 1, 4): 1}
    root, expansion = rw_forward((3, 2, 1))
    assert len(list(_leaves(root))) == 8
    assert expansion.coeffs == {
        (3, 2, 1): 1, (3, 1, 2): 1, (2, 3, 1): 1, (2, 1, 3): 1,
        (1, 4, 1): 1, (1, 3, 2): 1, (1, 2, 3): 1, (1, 1, 4): 1}


def test_forward_tree_interior_nodes_are_dirts():
    root, _ = rw_forward((1, 3, 2))
    def walk(node):
        assert is_dirt(node.filling)
        for child in node.children:
            walk(child)
    walk(root)


def test_dual_tree_goldens():
    root, expansion = rw_dual((1, 2, 3))
    assert expansion.basis == IMMACULATE
    assert expansion.coeffs == {
        (3, 2, 1): 1, (3, 1, 2): 1, (2, 3, 1): 1, (2, 2, 2): 2,
        (2, 1, 3): 1, (1, 3, 2): 1, (1, 2, 3): 1}
    assert len(list(_leaves(root))) == 8
    assert root.filling == ((None,), (None, None), (None, None, None))


def test_dual_tree_has_dead_branches():
    # Some branches stall before every cell is filled; they stay in the
    # tree as childless non-leaves.
    root, _ = rw_dual((1, 2, 3))
    dead = []
    def walk(node):
        if not node.is_leaf and not node.children:
            dead.append(node)
        for child in node.children:
            walk(child)
    walk(root)
    assert dead
    assert all(any(v is None for row in n.filling for v in row) for n in dead)


def test_trees_agree_with_coefficient_maps():
    for n in range(1, 10):
        for alpha in compositions(n):
            assert rw_forward(alpha)[1] == dimm_to_yqs(alpha)
            assert rw_dual(alpha)[1] == yns_to_imm(alpha)


def test_dual_counts_match_the_dual_tree():
    # qsym._dual_row, yns_to_imm's count, against the leaves of the tree.
    assert _dual_row(()) == {(): 1}
    for n in range(1, 9):
        for alpha in compositions(n):
            assert _dual_row(alpha) == rw_dual(alpha)[1].coeffs, alpha


def test_empty_composition():
    root, expansion = rw_forward(())
    assert root.is_leaf and expansion.coeffs == {(): 1}
    root, expansion = rw_dual(())
    assert root.is_leaf and expansion.coeffs == {(): 1}


def test_tree_json():
    root, _ = rw_forward((2, 2))
    obj = tree_to_json(root, "forward")
    assert obj["rows"] == [[1, 2]]
    assert not obj["leaf"]
    shapes = sorted(tuple(child["shape"]) for child in obj["children"]
                    if child["leaf"])
    assert shapes == [(1, 3), (2, 2)]
    dual_root, _ = rw_dual((1, 2))
    dual_obj = tree_to_json(dual_root, "dual")
    assert dual_obj["rows"] == [[None], [None, None]]
    betas = [leaf["beta"] for leaf in _json_leaves(dual_obj)]
    assert sorted(map(tuple, betas)) == [(1, 2), (2, 1)]


def _json_leaves(obj):
    if obj["leaf"]:
        yield obj
    for child in obj["children"]:
        yield from _json_leaves(child)


def test_tree_dot():
    root, _ = rw_forward((2,))
    text = tree_to_dot(root)
    assert text.startswith("digraph tree {")
    assert text.endswith("}\n")
    assert "peripheries=2" in text
    assert "n0" in text


GOLDEN = json.loads((Path(__file__).parent / "golden" / "rw_trees.json").read_text())

DOT_SHA256 = {
    "forward 2,2,1": "c9c1d6bc94d1cd6e960e801498112a4b8fe8616c94840da35e4e0f881165b86d",
    "forward 1,3,2": "d0fac5c395419e08dbd849e3ce878cda8fcbd808bef8bbfc543ab40d1be0469e",
    "forward 2,3,1": "b62eda9b877c553140df9b9c919cff45f07b72c2413e956dcb8eb8a62e4fd008",
    "dual 1,2,3": "214ede72ae12e7395ed7707fa7dc5fe84ce032995d92a5f2c0fafa691ffdfadb",
    "dual 2,2": "0cbf5b3f080808da3e266f71e797cedb4b93caae87367a0950ba1430b77d6294",
    "dual 1,4,2": "c134b5749028e67d99f6bec8d8f9aebf7fd9f9a2d94b6cfcc53826e7c008c082",
}


def test_tree_output_goldens():
    # Pins child order, leaf keys and both serializations byte for byte;
    # forward 2,3,1 and dual 1,4,2 are the first trees whose child order
    # differs between (next column, row) and plain row order.
    for key, digest in DOT_SHA256.items():
        direction, text = key.split()
        build = rw_forward if direction == "forward" else rw_dual
        root, _ = build(tuple(int(p) for p in text.split(",")))
        assert tree_to_json(root, direction) == GOLDEN[key]
        assert hashlib.sha256(tree_to_dot(root).encode()).hexdigest() == digest


def test_tree_sizes_through_degree_seven():
    totals = {}
    for build in (rw_forward, rw_dual):
        nodes = leaves = 0
        for n in range(1, 8):
            for alpha in compositions(n):
                todo = [build(alpha)[0]]
                while todo:
                    node = todo.pop()
                    nodes += 1
                    leaves += node.is_leaf
                    todo.extend(node.children)
        totals[build.__name__] = (nodes, leaves)
    assert totals == {"rw_forward": (1005, 499), "rw_dual": (2729, 499)}


# One digest over tree_to_dot of the forward and then the dual tree of every
# alpha with 1 <= n <= 7, in compositions(n) order.
ALL_DOT_SHA256 = "1c2e819f0b7e24abb8d0c547cdbe77fe9ed4200b73e92aad51a098711f340452"


def test_tree_dot_bytes_through_degree_seven():
    # Pins child order in every tree, which node and leaf counts cannot see.
    digest = hashlib.sha256()
    for n in range(1, 8):
        for alpha in compositions(n):
            for build in (rw_forward, rw_dual):
                digest.update(tree_to_dot(build(alpha)[0]).encode())
    assert digest.hexdigest() == ALL_DOT_SHA256


def test_trees_are_deterministic():
    first = tree_to_json(rw_forward((2, 2, 1))[0], "forward")
    second = tree_to_json(rw_forward((2, 2, 1))[0], "forward")
    assert first == second
    assert tree_to_dot(rw_dual((2, 2))[0]) == tree_to_dot(rw_dual((2, 2))[0])


# One digest per builder over tree_to_dot of every alpha with n = 8, in
# compositions(8) order.
DEGREE_EIGHT_DOT_SHA256 = {
    "rw_forward": "d2b6b5af063862be2eb80d176be73f03c408f5488b02a05586fd4bb9377314bb",
    "rw_dual": "26f9e87f00645df26ac8c8f875a7fc3fe6caefe2d892549d4693c123fd801b49",
}


def test_tree_dot_bytes_at_degree_eight():
    digests = {}
    for build in (rw_forward, rw_dual):
        digest = hashlib.sha256()
        for alpha in compositions(8):
            digest.update(tree_to_dot(build(alpha)[0]).encode())
        digests[build.__name__] = digest.hexdigest()
    assert digests == DEGREE_EIGHT_DOT_SHA256


def test_dual_tree_and_counts_read_one_placement_rule(monkeypatch):
    # A fault in the shared rule: a value may end a row in a column where a
    # lower row ended.  yns_to_imm then disagrees with the DIRT column, and
    # the tree's bytes change, so both paths read the one rule.  The count
    # starts from no cached levels, which earlier counts under the real rule
    # would otherwise supply, and its faulty levels are dropped afterwards.
    monkeypatch.setattr(qsym, "_DUAL_LEVELS", {})
    monkeypatch.setattr(qsym, "_row_runs", lambda alpha, lens, top: [
        (r, alpha[r]) for r in range(top, len(alpha)) if lens[r] < alpha[r]])
    assert run_suite("triple-agreement", 4).passed
    assert run_suite("triple-agreement", 5).failures == ["dual tree disagrees at (1, 2, 2)"]
    digest = hashlib.sha256()
    for alpha in compositions(8):
        digest.update(tree_to_dot(rw_dual(alpha)[0]).encode())
    assert digest.hexdigest() != DEGREE_EIGHT_DOT_SHA256["rw_dual"]


def test_forward_counts_match_the_tree_leaves():
    for n in range(10):
        for alpha in compositions(n):
            assert rw._forward_counts(alpha) == dict(rw_forward(alpha)[1].coeffs), alpha


def test_forward_counts_take_any_depth():
    # 2000 levels: the tree's recursion gives up, the count's stack does not.
    alpha = (1,) * 2000
    with pytest.raises(RecursionError):
        rw_forward(alpha)
    assert rw._forward_counts(alpha) == {alpha: 1}


def test_forward_tree_and_counts_read_one_placement_rule(monkeypatch):
    # A fault in the forward rule: a value may end a row in a column where a
    # lower row ended.  The forward counts then disagree with the other two
    # tables, and the tree's bytes change, so both paths read the one rule.
    monkeypatch.setattr(rw, "_forward_runs", lambda lens, left: [
        (r, lens[r] + left) for r in range(len(lens)) if left])
    assert run_suite("triple-agreement", 4).passed
    assert run_suite("triple-agreement", 5).failures == [
        "coefficient tables differ at (2, 2, 1): "
        "{(2, 2, 1): 1, (2, 1, 2): 1, (1, 3, 1): 1, (1, 2, 2): 1, (1, 1, 3): 1} vs "
        "{(2, 2, 1): 1, (2, 1, 2): 1, (1, 3, 1): 1, (1, 2, 2): 1, (1, 1, 3): 1} vs "
        "{(2, 2, 1): 1, (2, 1, 2): 1, (1, 3, 1): 1, (1, 2, 2): 2, (1, 1, 3): 1}"]
    digest = hashlib.sha256()
    for alpha in compositions(8):
        digest.update(tree_to_dot(rw_forward(alpha)[0]).encode())
    assert digest.hexdigest() != DEGREE_EIGHT_DOT_SHA256["rw_forward"]
