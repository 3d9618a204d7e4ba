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
row ended when the level began.  Each tree's placement rule reads only row
lengths and is given once per level as row runs, the columns each row's
end may take during the level: _forward_runs gives the forward tree's,
and _forward_counts reads them to count the forward leaves with no tree
(verify's triple-agreement compares those counts); qsym._row_runs gives
the dual tree's, and qsym._dual_row reads them to count the dual leaves
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


def _forward_runs(lens: list[int] | tuple[int, ...],
                  left: int) -> list[tuple[int, int]]:
    """The forward tree's placement rule for one level, read as row runs:
    (r, end) for each row r, in row order, whose end may take one of the
    level's later values, with lens the row lengths once the level's first
    value is in the new bottom row and left the values still to place.  A
    later value ends row r in the column right of its end when that column
    lies right of the previous value's and no lower row ended in it when
    the level began.  Only the first test changes within a level, and each
    value moves the row's end one column right, so row r is open to the
    next value after column last exactly when last <= lens[r] < end, end
    the last column before the first one the rule refuses, and at most
    lens[r] + left, as far as the level's values reach.  The readers take
    the open rows in (next column, row) order, a stable sort of the row
    lengths."""
    runs, ended = [], set()
    for r, start in enumerate(lens):
        end, stop = start, start + left
        while end < stop and end + 1 not in ended:
            end += 1
        if end > start:
            runs.append((r, end))
        ended.add(start)
    return runs


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
        left = alpha[ell - len(rows) - 1] - 1
        rows.insert(0, (start,))
        lens.insert(0, 1)
        extend(start + 1, 1, start + 1 + left, _forward_runs(lens, left), children)
        del rows[0], lens[0]
        return Node(filling, tuple(children))

    def extend(value: int, last_col: int, stop: int, runs: list[tuple[int, int]],
               children: list[Node]) -> None:
        if value == stop:
            children.append(build())
            return
        open_rows = [r for r, end in runs if last_col <= lens[r] < end]
        open_rows.sort(key=lens.__getitem__)
        for r in open_rows:
            col = lens[r] + 1
            old = rows[r]
            rows[r], lens[r] = old + (value,), col
            extend(value + 1, col, stop, runs, children)
            rows[r], lens[r] = old, col - 1

    return build(), BasisExpansion._built(YOUNG_QS, sum(alpha), counts)


def _forward_counts(alpha: Composition) -> dict[Composition, int]:
    # rw_forward's leaf shapes counted over row-length tuples (_forward_runs
    # reads no more), with no node and no filling; alpha must be checked
    # first.  An explicit stack holds one entry per tree position, (lens,
    # last column, values left in the level, the level's runs): a level ends
    # when it has no values left, a leaf when the last level ends.  No two
    # positions are merged, so every leaf is walked, and any depth counts.
    ell = len(alpha)
    counts: dict[Composition, int] = {}
    stack = [(alpha[-1:], 0, 0, None)]
    while stack:
        lens, last, left, runs = stack.pop()
        if left:
            left -= 1
            for r, end in runs:
                length = lens[r]
                if last <= length < end:
                    col = length + 1
                    stack.append((lens[:r] + (col,) + lens[r + 1:], col, left, runs))
        elif len(lens) == ell:
            counts[lens] = counts.get(lens, 0) + 1
        else:
            lens = (1,) + lens
            left = alpha[ell - len(lens)] - 1
            stack.append((lens, 1, left, _forward_runs(lens, left) if left else None))
    return counts


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
