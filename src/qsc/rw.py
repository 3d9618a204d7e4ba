"""Tree algorithms that generate decomposition coefficients directly.

The forward tree grows recording tableaux strip by strip: leaves enumerate
the shapes appearing in the Young quasisymmetric Schur expansion of a dual
immaculate element.  The dual tree fills a fixed diagram level by level with
repeated values: complete leaves give the immaculate expansion of a Young
noncommutative Schur element.  Both trees serialize to JSON and DOT.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compositions import Composition, check_composition, reverse
from .qsym import IMMACULATE, YOUNG_QS, BasisExpansion
from .tableaux import shape_of

Cellvalue = int | None
PartialRows = tuple[tuple[Cellvalue, ...], ...]


@dataclass(frozen=True)
class Node:
    """One tree node: a filling (bottom row first, None for an empty cell)
    and its ordered children.  A leaf is a completed filling; a node with no
    children that is not a leaf is a dead branch."""

    filling: PartialRows
    children: tuple["Node", ...]
    is_leaf: bool


def rw_forward(alpha: Composition) -> tuple[Node, BasisExpansion]:
    """Grow all recording tableaux with strip shape reverse(alpha).

    The root is the single row 1..last part.  Each child appends the next
    consecutive block of integers: the first into a new bottom row, each
    later one at the end of a row strictly to the right of the previous
    placement and never at a column some lower row already ends in.  Leaves
    have one row per part; the expansion counts leaf shapes.
    """
    alpha = check_composition(alpha)
    ell = len(alpha)
    n = sum(alpha)
    if ell == 0:
        root = Node((), (), True)
        return root, BasisExpansion(YOUNG_QS, 0, {(): 1})
    counts: dict[Composition, int] = {}

    def build(rows: tuple[tuple[int, ...], ...]) -> Node:
        if len(rows) == ell:
            shape = shape_of(rows)
            counts[shape] = counts.get(shape, 0) + 1
            return Node(rows, (), True)
        size = alpha[ell - 1 - len(rows)]
        offset = sum(len(r) for r in rows)
        start = [list(r) for r in ((offset + 1,),) + rows]
        batches: list[tuple[tuple[tuple[int, int], ...], PartialRows]] = []

        def extend(work: list[list[int]], left: int, last_col: int,
                   placed: tuple[tuple[int, int], ...]) -> None:
            if left == 0:
                batches.append((placed, tuple(tuple(r) for r in work)))
                return
            value = offset + size - left + 1
            for r in range(len(work)):
                col = len(work[r]) + 1
                if col <= last_col:
                    continue
                if any(len(work[g]) == col for g in range(r)):
                    continue
                work[r].append(value)
                extend(work, left - 1, col, placed + ((col, r + 1),))
                work[r].pop()

        extend(start, size - 1, 1, ((1, 1),))
        batches.sort(key=lambda item: item[0])
        return Node(rows, tuple(build(rows2) for _, rows2 in batches), False)

    root = build(((tuple(range(1, alpha[ell - 1] + 1))),))
    return root, BasisExpansion(YOUNG_QS, n, counts)


def rw_dual(alpha: Composition) -> tuple[Node, BasisExpansion]:
    """Fill the diagram of alpha level by level with repeated values.

    Level i first writes i in column 1 of the i-th row from the top, then
    optionally writes further i's at frontiers of started rows in strictly
    increasing column order, skipping any column where a row strictly below
    ended (at the start of the level).  After the last level, completely
    filled fillings are leaves; incomplete ones are dead branches.  The
    coefficient at beta counts leaves whose value multiplicities, read from
    the last level back to the first, form beta.
    """
    alpha = check_composition(alpha)
    ell = len(alpha)
    n = sum(alpha)
    if ell == 0:
        root = Node((), (), True)
        return root, BasisExpansion(IMMACULATE, 0, {(): 1})
    counts: dict[Composition, int] = {}

    def snapshot(fills: list[int]) -> PartialRows:
        return tuple(
            tuple(level_of[r][c] if c < fills[r] else None for c in range(alpha[r]))
            for r in range(ell)
        )

    level_of = [[0] * alpha[r] for r in range(ell)]
    fills = [0] * ell

    def build(level: int) -> Node:
        filling = snapshot(fills)
        if level > ell:
            complete = all(fills[r] == alpha[r] for r in range(ell))
            if complete:
                tallies = [0] * ell
                for row in level_of:
                    for v in row:
                        tallies[v - 1] += 1
                beta = tuple(reversed(tallies))
                counts[beta] = counts.get(beta, 0) + 1
            return Node(filling, (), complete)
        row0 = ell - level
        pre = list(fills)
        children: list[tuple[tuple[tuple[int, int], ...], Node]] = []

        def options(last_col: int, placed: tuple[tuple[int, int], ...]) -> None:
            children.append((placed, build(level + 1)))
            for r in range(ell):
                col = fills[r] + 1
                if fills[r] == 0 or col > alpha[r] or col <= last_col:
                    continue
                if any(pre[g] == col for g in range(r)):
                    continue
                level_of[r][fills[r]] = level
                fills[r] += 1
                options(col, placed + ((col, r + 1),))
                fills[r] -= 1

        level_of[row0][fills[row0]] = level
        fills[row0] += 1
        options(1, ((1, row0 + 1),))
        fills[row0] -= 1
        children.sort(key=lambda item: item[0])
        return Node(filling, tuple(node for _, node in children), False)

    root = build(1)
    return root, BasisExpansion(IMMACULATE, n, counts)


def tree_to_json(node: Node, direction: str) -> dict:
    """Nested JSON form; leaf nodes carry their shape (forward) or their
    multiplicity composition (dual)."""
    if direction not in ("forward", "dual"):
        raise ValueError("direction must be 'forward' or 'dual'")
    obj: dict = {
        "rows": [list(row) for row in node.filling],
        "leaf": node.is_leaf,
    }
    if node.is_leaf and direction == "forward":
        obj["shape"] = list(shape_of(node.filling))
    if node.is_leaf and direction == "dual":
        tallies: dict[int, int] = {}
        for row in node.filling:
            for v in row:
                tallies[v] = tallies.get(v, 0) + 1
        beta = [tallies[i] for i in sorted(tallies, reverse=True)]
        obj["beta"] = beta
    obj["children"] = [tree_to_json(child, direction) for child in node.children]
    return obj


def _label(node: Node) -> str:
    if not node.filling:
        return "(empty)"
    lines = []
    for row in reversed(node.filling):
        lines.append(" ".join("." if v is None else str(v) for v in row))
    return "\\n".join(lines)


def tree_to_dot(node: Node) -> str:
    """DOT rendering with preorder node ids; leaves are double-bordered."""
    lines = [
        "digraph tree {",
        '  node [shape=box, fontname="monospace"];',
    ]
    counter = [0]

    def emit(cur: Node) -> int:
        ident = counter[0]
        counter[0] += 1
        extra = ", peripheries=2" if cur.is_leaf else ""
        lines.append(f'  n{ident} [label="{_label(cur)}"{extra}];')
        for child in cur.children:
            cid = emit(child)
            lines.append(f"  n{ident} -> n{cid};")
        return ident

    emit(node)
    lines.append("}")
    return "\n".join(lines) + "\n"
