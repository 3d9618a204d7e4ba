"""Tree algorithms that generate decomposition coefficients directly.

The forward tree grows recording tableaux strip by strip: leaves enumerate
the shapes appearing in the Young quasisymmetric Schur expansion of a dual
immaculate element, and dirt.enumerate_dirts lists the leaves of one shape.
The dual tree fills a fixed diagram level by level with repeated values:
complete leaves give the immaculate expansion of a Young noncommutative
Schur element.  Both builders build their filling as tableaux describes,
restoring the replaced row after the recursion, so a node's snapshot is
tuple(rows).  Both try the rows in (next column, row) order, a stable sort
of the row lengths, so children come out in the order of the cells they
fill.  Each builder defines its recursion once per call: build makes a node
and a second function places the node's next values, taking the level's
state as arguments.  A value may not end a row in a column where a lower
row ends.  In the forward tree one map per level, from a column to the
lowest row that ended there when the level began, answers that: the rows
a level has changed end left of its next placement, so the rows that end
in that column are the same ones as when the level began.  The dual
tree's placement rule reads only row lengths and lives in qsym._row_runs,
which gives once per level each started row's run, the columns its next
cells may take; qsym._dual_row reads the same runs to count the leaves
for yns_to_imm.  Both trees serialize to JSON, built with an explicit
stack, and to DOT.
"""

from __future__ import annotations

from collections import namedtuple

from . import qsym
from .compositions import Composition, check_composition
from .qsym import IMMACULATE, YOUNG_QS, BasisExpansion

Cellvalue = int | None
PartialRows = tuple[tuple[Cellvalue, ...], ...]


def _lowest_ends(lens: list[int] | tuple[int, ...]) -> dict[int, int]:
    """Maps each row length to the lowest row of that length, so a column c
    maps to the lowest row ending in it."""
    return dict(zip(reversed(lens), range(len(lens) - 1, -1, -1)))


class Node(namedtuple("Node", "filling children key", defaults=(None,))):
    """One tree node: a filling (bottom row first, None for an empty cell),
    its ordered children, and for a leaf (a completed filling) its
    coefficient key: the shape in the forward tree, the value multiplicities
    from the last level back to the first in the dual tree.  A node with no
    children and no key is a dead branch."""

    __slots__ = ()

    @property
    def is_leaf(self) -> bool:
        return self.key is not None


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
    counts: dict[Composition, int] = {}
    # The root row, or no row for (): that root is then its only leaf.  lens
    # holds the row lengths, in step with rows.
    rows = [tuple(range(1, last + 1)) for last in alpha[-1:]]
    lens = list(alpha[-1:])

    def build() -> Node:
        filling = tuple(rows)
        if len(rows) == ell:
            shape = tuple(lens)
            counts[shape] = counts.get(shape, 0) + 1
            return Node(filling, (), shape)
        children: list[Node] = []
        start = sum(lens) + 1
        rows.insert(0, (start,))
        lens.insert(0, 1)
        lowest = _lowest_ends(lens)
        extend(start + 1, 1, start + alpha[ell - len(rows)], lowest, children)
        del rows[0], lens[0]
        return Node(filling, tuple(children))

    def extend(value: int, last_col: int, stop: int, lowest: dict[int, int],
               children: list[Node]) -> None:
        if value == stop:
            children.append(build())
            return
        for r in sorted(range(len(lens)), key=lens.__getitem__):
            col = lens[r] + 1
            if col > last_col and lowest.get(col, ell) > r:
                old = rows[r]
                rows[r], lens[r] = old + (value,), col
                extend(value + 1, col, stop, lowest, children)
                rows[r], lens[r] = old, col - 1

    return build(), BasisExpansion._built(YOUNG_QS, sum(alpha), counts)


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
    counts: dict[Composition, int] = {}
    # rows[r] is row r padded with None; lens[r] counts its filled cells.
    rows: list[tuple[Cellvalue, ...]] = [(None,) * size for size in alpha]
    lens = [0] * ell
    full = list(alpha)

    def build(level: int, beta: Composition) -> Node:
        filling = tuple(rows)
        if level > ell:
            if lens != full:
                return Node(filling, ())
            counts[beta] = counts.get(beta, 0) + 1
            return Node(filling, (), beta)
        # Level writes row top first, so rows top..ell-1 are the started
        # ones; row r may not end where a row below ended before the level.
        top = ell - level
        children: list[Node] = []
        row = rows[top]
        rows[top], lens[top] = (level,) + row[1:], 1
        options(level, beta, qsym._row_runs(alpha, lens, top), children, 1, 1)
        rows[top], lens[top] = row, 0
        return Node(filling, tuple(children))

    def options(level: int, beta: Composition, runs: list[tuple[int, int]],
                children: list[Node], last_col: int, count: int) -> None:
        children.append(build(level + 1, (count,) + beta))
        open_rows = [r for r, end in runs if last_col <= lens[r] < end]
        open_rows.sort(key=lens.__getitem__)
        for r in open_rows:
            c = lens[r]
            # The free cell is column c + 1, at index c of the padded row.
            row = rows[r]
            rows[r] = row[:c] + (level,) + row[c + 1:]
            lens[r] = c + 1
            options(level, beta, runs, children, c + 1, count + 1)
            rows[r], lens[r] = row, c

    return build(1, ()), BasisExpansion._built(IMMACULATE, sum(alpha), counts)


def tree_to_json(node: Node, direction: str) -> dict:
    """Nested JSON form; leaf nodes carry their key, as "shape" (forward) or
    "beta" (dual).  Built with an explicit stack, so any depth converts."""
    if direction not in ("forward", "dual"):
        raise ValueError("direction must be 'forward' or 'dual'")
    name = "shape" if direction == "forward" else "beta"

    def convert(cur: Node) -> dict:
        obj: dict = {
            "rows": [list(row) for row in cur.filling],
            "leaf": cur.is_leaf,
        }
        if cur.is_leaf:
            obj[name] = list(cur.key)
        obj["children"] = []
        return obj

    root = convert(node)
    stack = [(node, root)]
    while stack:
        cur, obj = stack.pop()
        for child in cur.children:
            child_obj = convert(child)
            obj["children"].append(child_obj)
            stack.append((child, child_obj))
    return root


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
