"""Exhaustive verification suites for the package's structural guarantees.

Each suite sweeps every composition, reading word (_reading_words) or
standard tableau step (_standard_steps) up to a degree bound and reports
counted cases plus any counterexamples.  All suites are deterministic and
complete; nothing is sampled.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .compositions import compositions, dominates, partitions, rearrangements
from .insertion import _insert_into, _is_virtuous, _landing, _rapture_from
from .qsym import (
    DUAL_IMMACULATE,
    YOUNG_QS,
    NotUnitriangularError,
    _dirt_row,
    _product_in,
    dimm_to_yqs,
    dual_immaculate_mexpr,
    expand_in,
    is_symmetric,
    schur_m_expansion,
    yns_to_imm,
    young_qs_mexpr,
    yqs_to_dimm,
)
from .rw import _forward_counts
from .tableaux import INF, _young_descent_set, is_ssyct, is_standard, shape_of


class SuiteResult:
    def __init__(self, suite: str, max_n: int):
        self.suite = suite
        self.max_n = max_n
        self.cases = 0
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _insert_raised(p, v):
    """(before, after, new_cell, path), the step of every walk: before is p,
    standard, with each letter >= v raised by one, after is v inserted into
    before by the unchecked core.  The cores only compare letters, to each
    other and to INF, so a step's cells and verdicts hold for its order
    type: a word on 1..k+1 ending in v is its standardized prefix so raised,
    then v, and its P is after from the prefix's P.  inverse's steps,
    _recording_walk and _standard_steps read it; inverse's re-inserts build
    the same entry from a rapture result that is before already (see
    _inverse_checks)."""
    before = tuple([tuple([x + (x >= v) for x in row]) for row in p])
    work = list(before)
    new_cell, path = _insert_into(work, v)
    return before, tuple(work), new_cell, path


def _standard_steps(max_n: int):
    """round-trip's and descents' walk: (p, v, _insert_raised(p, v)) for
    every standard tableau p of size k < max_n and v in 1..k+1.  Level k+1
    holds level k's distinct afters, the P's of the permutations of 1..k+1;
    an after that is not standard grows as it stands."""
    level = [()]
    for k in range(max_n):
        grown = {}
        for p in level:
            for v in range(1, k + 2):
                step = _insert_raised(p, v)
                yield p, v, step
                grown[step[1]] = None
        level = list(grown)


def _child_word(prefix, v):
    """The word of _reading_words' node (prefix, v): prefix with each letter
    >= v raised by one, then v."""
    return tuple([x + (x >= v) for x in prefix]) + (v,)


def _reading_words(max_n: int, step, root):
    """inverse's and triple-agreement's walk: (prefix, v, alpha, state,
    leaves) for every standard immaculate reading word _child_word(prefix,
    v) of degree 1..max_n - 1, alpha its tableau's shape, depth first as a
    prefix tree: a word's parent is prefix, its prefix one letter shorter,
    standardized, and its state is step(parent's state, v, v opens a run).

    A word on 1..n is such a reading word exactly when its maximal
    increasing runs, its rows read top row first, have decreasing first
    letters, which standardizing a prefix keeps, so every prefix is a node.
    A child appends v and raises each earlier letter >= v by one; v either
    opens a run below the current run's first letter f (v <= f), a new
    bottom row of length 1, or extends the run above its last letter l
    (v > l), the bottom row.  The root's one child is the word 1.

    The words of degree max_n, the leaves, are not walked: a word of degree
    max_n - 1, a frontier node, hands its leaves over as two letter ranges,
    leaves = (opens, extends): opens is 1..f, each leaf's shape (1,) +
    alpha, and extends is l+1..max_n, each leaf's shape (alpha[0] + 1,) +
    alpha[1:].  A reader steps or groups the leaves itself; leaves is ()
    at every other node.  At 9 that is 21,147 leaves, 80% of the words,
    under 4,140 frontier nodes.  A frontier node is yielded from its
    parent's loop, in the order a stack would pop it, so it is never
    stacked and builds no word: a word is built only as its children's
    prefix, and a reader builds the words it needs.  At max_n 1 the one
    word, 1, is yielded with no leaves."""
    if max_n < 2:
        if max_n == 1:
            yield (), 1, (1,), step(root, 1, True), ()
        return
    stack = [((), 1, (1,), step(root, 1, True), 1, 1)]
    while stack:
        prefix, v, alpha, state, f, l = stack.pop()
        j = len(prefix) + 1
        if j + 1 == max_n:
            # The word 1 at max_n 2, the one frontier node with no parent loop.
            yield prefix, v, alpha, state, (range(1, f + 1), range(l + 1, max_n + 1))
            continue
        yield prefix, v, alpha, state, ()
        word = _child_word(prefix, v)
        # Siblings share their shape.
        below = (1,) + alpha
        longer = (alpha[0] + 1,) + alpha[1:]
        if j + 2 < max_n:
            for w in range(1, f + 1):
                stack.append((word, w, below, step(state, w, True), w, w))
            for w in range(l + 1, j + 2):
                stack.append((word, w, longer, step(state, w, False), f, w))
            continue
        opens = range(1, f + 1)
        for w in range(j + 1, l, -1):
            yield word, w, longer, step(state, w, False), (opens, range(w + 1, max_n + 1))
        for w in range(f, 0, -1):
            yield word, w, below, step(state, w, True), (range(1, w + 1), range(w + 1, max_n + 1))


def _inverse_checks():
    """The inverse suite's checks as cached functions of standard tableaux;
    returns step.  A failure is a record (kind, rows, x) on the letters of
    the tableau checked, x a letter or a cell (see _MESSAGES).  One memo,
    inserted, maps each standard (p, v) to _insert_raised(p, v), for the
    steps and the re-inserts alike."""
    ssyct = cache(is_ssyct)
    inserted = {}

    def insert(p, v):
        found = inserted.get((p, v))
        if found is None:
            found = inserted[p, v] = _insert_raised(p, v)
        return found

    @cache
    def raptures(rows):
        """(cases, failures, undos) of rapture at each virtuous cell of rows,
        in row order: insert after rapture must return rows with the route
        mirrored.  undos holds (cell, output, route, after) per cell.
        Unless the output is INF, after skips the output's letter, so it is
        checked standardized, as std with each letter above the output
        lowered by one, and the re-insert is the memo's entry for (std,
        output).  On a miss the output is inserted into after as it stands:
        after is std raised, so the entry is _insert_raised(std, output)
        with after as its before, and nothing is lowered and raised back.
        Only a faulty core outputs a letter that after still holds; after
        is then not std raised, and the output goes into std raised."""
        cases, failures, undos = 0, [], []
        for r, row in enumerate(rows, start=1):
            cell = (len(row), r)
            if not _is_virtuous(rows, cell):
                continue
            work = list(rows)
            output, route = _rapture_from(work, cell)
            after = tuple(work)
            undos.append((cell, output, route, after))
            std = after if output is INF else tuple(
                [tuple([x - (x > output) for x in row]) for row in after])
            if not ssyct(std):
                failures.append(("rapture", rows, cell))
            elif output is INF:
                failures.append(("inf", rows, cell))
            else:
                cases += 1
                found = inserted.get((std, output))
                if found is None:
                    if any(output in row for row in after):
                        found = insert(std, output)
                    else:
                        new_cell, path = _insert_into(work, output)
                        found = inserted[std, output] = after, tuple(work), new_cell, path
                # Equal to rows, the insert result is a tableau; no separate check.
                _, back, _, path = found
                if back != rows or path != route[::-1]:
                    failures.append(("reinsert", rows, cell))
        return cases, tuple(failures), tuple(undos)

    @cache
    def step(p, v):
        """(after, cases, failures) of the step from a word with tableau p
        to its child with last letter v (see _insert_raised); after is None
        when it is not a tableau.  The insertion is a case, plus after's
        rapture total; rapture at new_cell must undo it (return v, the path
        mirrored and before), and that rapture's own re-insert check is this
        insertion, so it passes within the total."""
        before, after, new_cell, path = insert(p, v)
        if not ssyct(after):
            return None, 1, (("insert", before, v),)
        cases, failures, undos = raptures(after)
        if (new_cell, v, path[::-1], before) not in undos:
            failures += (("undo", before, v),)
        return after, 1 + cases, failures

    return step


# Failure texts by record kind; x is a letter for "insert" and "undo" and a
# cell otherwise.
_MESSAGES = {
    "insert": "insert of {x} into {rows} is not a Young composition tableau",
    "undo": "rapture(insert) failed: {rows} + {x}",
    "rapture": "rapture of {rows} at {x} is not a Young composition tableau",
    "inf": "rapture of {rows} at {x} outputs INF",
    "reinsert": "insert(rapture) failed at {rows} cell {x}",
}


def _in_report_order(failed, max_n: int) -> list[str]:
    """The messages of (alpha, key, message) records sorted by degree,
    composition in compositions(n) order, and key: a word's failures have
    the word, or the word and a rank among its checks, as key, and a
    composition's own checks a key after all its words.  The sort is
    stable, so the messages of one key keep their order."""
    order = {alpha: i for i, alpha in enumerate(
        alpha for n in range(max_n + 1) for alpha in compositions(n))}
    failed.sort(key=lambda record: (order[record[0]], record[1]))
    return [message for _, _, message in failed]


def verify_inverse(max_n: int) -> SuiteResult:
    """Both compositions of insertion and rapture are identities with
    mirrored bumping paths and escape routes, on every tableau arising
    while inserting every immaculate reading word, letter by letter; a step
    that is not a tableau ends the word.  The unchecked cores run here.

    Each check gives one verdict per order type (see _insert_raised), so
    the suite walks standardized prefixes (see _reading_words) with one set
    of cached checks (see _inverse_checks): each insertion runs once per
    standard (tableau, letter), and each standard tableau's raptures once,
    kept as one total of cases and failures.  A word's state is its
    tableau, its steps' summed cases and their failure records; after a
    step that is not a tableau the state stays, so cases count every
    insertion of every word up to its first broken one.  A frontier node's
    leaves are not walked: each letter of its two ranges adds the node's
    cases and its cached step from the node's tableau.  A word renders its
    records, only when it has some, with its own prefixes' letters, and
    failures are reported by degree, composition and reading word."""
    result = SuiteResult("inverse", max_n)
    step = _inverse_checks()

    def grow(state, v, _):
        p, cases, records = state
        if p is None:
            return state
        after, more, failures = step(p, v)
        if failures:
            # The degree of the child, whose letters the records use.
            records += ((sum(map(len, p)) + 1, failures),)
        return after, cases + more, records

    failed = []

    def render(alpha, word, records):
        for j, failures in records:
            letters = (0,) + tuple(sorted(word[:j]))
            for kind, rows, x in failures:
                rows = tuple([tuple([letters[y] for y in row]) for row in rows])
                if kind in ("insert", "undo"):
                    x = letters[x]
                failed.append((alpha, word, _MESSAGES[kind].format(rows=rows, x=x)))

    for prefix, v, alpha, (p, cases, records), leaves in _reading_words(max_n, grow, ((), 0, ())):
        result.cases += cases
        if records:
            render(alpha, _child_word(prefix, v), records)
        for letters, new_run in zip(leaves, (True, False)):
            result.cases += cases * len(letters)
            for w in letters:
                leaf = records
                if p is not None:
                    _, more, failures = step(p, w)
                    result.cases += more
                    if failures:
                        leaf += ((max_n, failures),)
                if leaf:
                    shape = (1,) + alpha if new_run else (alpha[0] + 1,) + alpha[1:]
                    render(shape, _child_word(_child_word(prefix, v), w), leaf)
    result.failures += _in_report_order(failed, max_n)
    return result


def _one_cell(shape, last, r, opens):
    """(grown, col, ok) for n + 1 put at the landing (r, opens) (see
    _landing) in a recording tableau Q of shape shape whose n is in column
    last (0 for the empty Q): the shape of Q with n + 1, the column n + 1
    lands in, and the one-cell rule: Q with n + 1 is a DIRT exactly when Q
    is one and ok.

    n + 1, the largest value, may open the bottom row, or end row r at a
    column right of n's, so that the strips stay in column order, with no
    lower row ending in that column, where the triple condition would fail.
    Nothing else about Q changes, and removing n + 1 from a DIRT leaves a
    DIRT (see dirt._dirt_strip_shape)."""
    if opens:
        return shape[:r] + (1,) + shape[r:], 1, r == 0
    col = shape[r] + 1
    return shape[:r] + (col,) + shape[r + 1:], col, col > last and col not in shape[:r]


# The recording walk's tables, lists indexed by the ids of Ps (p_rows,
# p_shape) and of (alpha, Q) pairs (q_alpha, q_shape, q_good).  A leaf's P
# keeps only its shape: its rows are None.
_Tables = namedtuple("_Tables", "p_rows p_shape q_alpha q_shape q_good")

# A memo value or child key packs an id into its low _ID_BITS bits; a walk
# with 2**40 ids would not fit in memory.
_ID_BITS = 40
_ID_MASK = (1 << _ID_BITS) - 1


def _recording_walk(max_n: int):
    """(words, tables, leaf_groups) for triple-agreement: words is
    _reading_words with (p, q) as each node's state, p the id of its P and
    q the id of (alpha, Q), (P, Q) being insert_word of the word.
    leaf_groups(p, q, letters, new_run) gives (packed, ids) for one of a
    frontier node's letter ranges: packed holds each letter's move, and ids
    maps each distinct move to the leaf state (p', q') it gives, p' the id
    of the leaf P's shape; the letters of one move are a leaf group.
    tables (see _Tables) fills in as the walk runs.  Shapes are interned,
    one object each.

    A word's P is its parent's P through _insert_raised.  One memo for the
    whole walk maps each (P, v) to P' and the new cell's code, one code per
    distinct cell, so the core runs once per standard (P, v).  A leaf's P'
    is never inserted into again, so a leaf step inserts v - 1/2 into P as
    it stands: the cores only compare letters, and v - 1/2 sits among P's
    letters as v does among them raised.  Only the shape of that P' is
    kept, one id per distinct leaf shape.  A frontier P's leaf moves sit in
    one list per P id, indexed by v and filled letter by letter as ranges
    first need them, so a range's moves are a slice of that list, and one
    leaf state is looked up per distinct move: 11,785 for the 21,147
    leaves at 9.

    No Q is built: Q' is Q with n + 1 at the cell's _landing, so (alpha',
    Q') is fixed by (alpha, Q), whether v opens a run and the landing, and
    one id per such triple is one id per distinct (alpha, Q).  _landing
    reads a cell only by its row and whether it is in column 1, so cells
    get one code per such pair, and a child is looked up by its cell's
    code.  A cell off Q's rows, which only a faulty core reports, lands
    where an in-range cell reads; a miss on it looks the child up by that
    cell's code, so the two share the id.  A new id takes its shape and
    verdict, Q a DIRT of row strip shape reverse(alpha), from its parent's
    by _one_cell: a DIRT's strips gain a strip exactly when its new value
    is in column 1, and reverse(alpha) a part exactly when v opens a run."""
    width = max_n + 1
    interned = {(): ()}
    p_ids = {(): 0}
    leaf_ids = {}
    tables = _Tables([()], [()], [()], [()], [True])
    p_rows, p_shape, q_alpha, q_shape, q_good = tables
    q_col = [0]
    codes, cells = {}, []
    moves, leaf_moves, children = {}, {}, {}

    def code_of(read):
        code = codes.get(read)
        if code is None:
            code = codes[read] = len(cells)
            cells.append(read)
        return code

    def move(p, v, leaf):
        if leaf:
            work = list(p_rows[p])
            cell, _ = _insert_into(work, v - 0.5)
            shape = shape_of(work)
            found = leaf_ids.get(shape)
            if found is None:
                found = leaf_ids[shape] = len(p_rows)
                p_rows.append(None)
                p_shape.append(interned.setdefault(shape, shape))
        else:
            _, after, cell, _ = _insert_raised(p_rows[p], v)
            after = tuple([interned.setdefault(row, row) for row in after])
            found = p_ids.get(after)
            if found is None:
                found = p_ids[after] = len(p_rows)
                p_rows.append(after)
                shape = shape_of(after)
                p_shape.append(interned.setdefault(shape, shape))
        col, row = cell
        return code_of((row, col == 1)) << _ID_BITS | found

    def land(q, code, new_run):
        row, first = cells[code]
        # Column 2 stands for every column but 1.
        r, opens = _landing(len(q_shape[q]), (1 if first else 2, row))
        if (r + 1, opens) != (row, first):
            # Off Q's rows: the child of the cell that lands there.
            code = code_of((r + 1, opens))
            key = (code << _ID_BITS | q) << 1 | new_run
            child = children.get(key)
            if child is None:
                child = children[key] = land(q, code, new_run)
            return child
        shape, col, ok = _one_cell(q_shape[q], q_col[q], r, opens)
        alpha = q_alpha[q]
        alpha = (1,) + alpha if new_run else (alpha[0] + 1,) + alpha[1:]
        q_alpha.append(interned.setdefault(alpha, alpha))
        q_shape.append(interned.setdefault(shape, shape))
        q_col.append(col)
        q_good.append(q_good[q] and ok and (col == 1) == new_run)
        return len(q_col) - 1

    def step(state, v, new_run):
        p, q = state
        key = p * width + v
        found = moves.get(key)
        if found is None:
            found = moves[key] = move(p, v, False)
        p = found & _ID_MASK
        # found with q for p: the cell's code, q and new_run in one int.
        key = (found ^ p | q) << 1 | new_run
        child = children.get(key)
        if child is None:
            child = children[key] = land(q, found >> _ID_BITS, new_run)
        return p, child

    def leaf_groups(p, q, letters, new_run):
        row = leaf_moves.get(p)
        if row is None:
            row = leaf_moves[p] = [None] * width
        packed = row[letters.start:letters.stop]
        ids = dict.fromkeys(packed)
        # A slot stays None until some range first needs its letter.
        if None in ids:
            for w in letters:
                if row[w] is None:
                    row[w] = move(p, w, True)
            packed = row[letters.start:letters.stop]
            ids = dict.fromkeys(packed)
        # step's child lookup, once per distinct move.
        for found in ids:
            leaf = found & _ID_MASK
            key = (found ^ leaf | q) << 1 | new_run
            child = children.get(key)
            if child is None:
                child = children[key] = land(q, found >> _ID_BITS, new_run)
            ids[found] = leaf, child
        return packed, ids

    return _reading_words(max_n, step, (0, 0)), tables, leaf_groups


def _tableau_of(word, alpha):
    """The immaculate tableau of shape alpha whose reading word is word, for
    failure messages."""
    rows, end = [], len(word)
    for part in alpha:
        rows.append(tuple(word[end - part:end]))
        end -= part
    return tuple(rows)


def verify_triple_agreement(max_n: int) -> SuiteResult:
    """Three computations of the same coefficient table coincide: insertion
    shape multisets, direct recording-tableau counts, and the forward
    rule's leaves, counted leaf by leaf over row lengths by
    rw._forward_counts, so no forward tree is built; dually, yns_to_imm
    (the dual rule, counted by row lengths, so no dual tree is built, from
    alpha[1:]'s levels, kept once per tail, and one forced last level)
    matches the DIRT column at alpha, read from the transposed _dirt_row
    rows of its degree.  Each distinct recording tableau of each
    composition must be a DIRT of row strip shape reverse(alpha), reported
    for the least word that records it, and each word's P must have its
    Q's shape.

    The words come from _recording_walk, which keeps one shape and one
    verdict per distinct (alpha, Q), so the table checks run after the
    walk, over compositions(n) for n in 0..max_n.  A frontier node's leaves
    are checked in leaf groups, the letters of one range with one move and
    so one leaf state: one child lookup and one pair of checks per group
    (11,785 lookups for the 21,147 leaves at 9, 564 for 877 at 7), and only
    a group that fails builds its words.  Failures are sorted back into
    report order (see _in_report_order) by their keys: (least word, 0) for
    a bad recording tableau, (word, 1) for a shape mismatch, so a least
    word's bad recording comes before its shape mismatch, and ((n + 1,),)
    for a table check, after every word of degree n.  Each table in a table
    check's message is in compositions(n) order."""
    result = SuiteResult("triple-agreement", max_n)
    failed = []
    words, (_, p_shape, q_alpha, q_shape, q_good), leaf_groups = _recording_walk(max_n)
    # The least word that records each bad (alpha, Q).
    bad = {}

    def record(p, q, group):
        """The failures of the words group, which share P's shape and (alpha, Q)."""
        if not q_good[q]:
            least = min(group)
            if bad.get(q, least) >= least:
                bad[q] = least
        if p_shape[p] is not q_shape[q]:
            alpha = q_alpha[q]
            failed.extend((alpha, (word, 1), f"shape mismatch for {_tableau_of(word, alpha)}")
                          for word in group)

    for prefix, v, _, (p, q), leaves in words:
        # Interned shapes: equal exactly when the same object.
        if not q_good[q] or p_shape[p] is not q_shape[q]:
            record(p, q, [_child_word(prefix, v)])
        for letters, new_run in zip(leaves, (True, False)):
            packed, ids = leaf_groups(p, q, letters, new_run)
            for found, (leaf, child) in ids.items():
                if not q_good[child] or p_shape[leaf] is not q_shape[child]:
                    word = _child_word(prefix, v)
                    record(leaf, child, [_child_word(word, w)
                                         for w, move in zip(letters, packed) if move == found])
    failed += [(q_alpha[q], (word, 0), f"bad recording tableau for {_tableau_of(word, q_alpha[q])}")
               for q, word in bad.items()]
    # Each composition's distinct recording tableaux counted by shape; the
    # root is the empty word's.
    recording = {}
    for alpha, shape in zip(q_alpha, q_shape):
        counts = recording.setdefault(alpha, {})
        counts[shape] = counts.get(shape, 0) + 1
    for n in range(max_n + 1):
        # After every word of degree n, whose letters are at most n.
        after = ((n + 1,),)
        columns = {}
        for beta in compositions(n):
            for alpha, c in _dirt_row(beta).items():
                if c:
                    columns.setdefault(alpha, {})[beta] = c
        for alpha in compositions(n):
            by_insertion = recording.pop(alpha)
            counted = dimm_to_yqs(alpha).coeffs
            forward = _forward_counts(alpha)
            result.cases += 1
            if not (by_insertion == counted == forward):
                # compositions(n) is in lexicographically decreasing order.
                tables = " vs ".join(str(dict(sorted(table.items(), reverse=True)))
                                     for table in (by_insertion, counted, forward))
                failed.append((alpha, after, f"coefficient tables differ at {alpha}: {tables}"))
            result.cases += 1
            if yns_to_imm(alpha).coeffs != columns.get(alpha, {}):
                failed.append((alpha, after, f"dual tree disagrees at {alpha}"))
    result.failures += _in_report_order(failed, max_n)
    return result


def verify_symmetry(max_n: int) -> SuiteResult:
    """A dual immaculate element is symmetric exactly when its composition
    has all parts after the first equal to one, and those elements are the
    corresponding Schur functions."""
    result = SuiteResult("symmetry", max_n)
    for n in range(1, max_n + 1):
        for alpha in compositions(n):
            hook = all(p == 1 for p in alpha[1:])
            result.cases += 1
            if is_symmetric(dual_immaculate_mexpr(alpha)) != hook:
                result.fail(f"symmetry test wrong at {alpha}")
            if hook and dual_immaculate_mexpr(alpha) != schur_m_expansion(alpha):
                result.fail(f"hook element differs from Schur at {alpha}")
    return result


def verify_positivity(max_n: int) -> SuiteResult:
    """Products of a Schur element with a dual immaculate element expand
    nonnegatively in the Young quasisymmetric Schur basis; the classical
    small product witnesses that the dual immaculate basis lacks this.
    Each product is multiplied and peeled in packed monomial coordinates
    with no dict between the two (qsym._product_in), which gives what
    expand_in(quasi_shuffle(...)) gives."""
    result = SuiteResult("positivity", max_n)
    for total in range(2, max_n + 1):
        for k in range(1, total):
            for lam in partitions(k):
                s = schur_m_expansion(lam)
                for alpha in compositions(total - k):
                    result.cases += 1
                    try:
                        table = _product_in(s, dual_immaculate_mexpr(alpha), YOUNG_QS)
                    except NotUnitriangularError as exc:
                        result.fail(f"{exc}, expanding s_{lam} * {alpha}")
                        continue
                    if any(c < 0 for c in table.coeffs.values()):
                        result.fail(f"negative coefficient for s_{lam} * {alpha}")
    result.cases += 1
    try:
        witness = _product_in(
            schur_m_expansion((2, 1)), dual_immaculate_mexpr((1,)), DUAL_IMMACULATE)
    except NotUnitriangularError as exc:
        result.fail(f"{exc}, expanding s_(2,1)*(1)")
    else:
        if not any(c < 0 for c in witness.coeffs.values()):
            result.fail("expected a negative dual immaculate coefficient in s_(2,1)*(1)")
    return result


def verify_dominance(max_n: int) -> SuiteResult:
    """Nonzero expansion coefficients only appear at dominated compositions
    of the same length, the diagonal coefficient is one, and a partition
    index is hit only by itself: its coefficient column is a delta, its
    table on the immaculate side is a singleton, and every rearrangement of
    a partition appears positively in the partition's own table.  The
    DIRT-count table times the table that expand_in peels from the Young
    quasisymmetric Schur elements is exactly the identity."""
    result = SuiteResult("dominance", max_n)
    for n in range(1, max_n + 1):
        tables = {alpha: dimm_to_yqs(alpha).coeffs for alpha in compositions(n)}
        for alpha, table in tables.items():
            result.cases += 1
            for beta, c in table.items():
                if c and (len(beta) != len(alpha) or not dominates(alpha, beta)):
                    result.fail(f"support violates dominance: {alpha} -> {beta}")
            if table.get(alpha) != 1:
                result.fail(f"diagonal coefficient is not 1 at {alpha}")
            result.cases += 1
            # Both peels check the table they invert is unitriangular; one
            # that is not raises, and fails this check.
            try:
                same = yqs_to_dimm(alpha) == expand_in(young_qs_mexpr(alpha), DUAL_IMMACULATE)
            except NotUnitriangularError:
                same = False
            if not same:
                result.fail(f"DIRT counts times the peeled table is not the identity at {alpha}")
        for lam in partitions(n):
            result.cases += 1
            for alpha, table in tables.items():
                want = 1 if alpha == lam else 0
                if table.get(lam, 0) != want:
                    result.fail(f"partition column not a delta: {alpha} -> {lam}")
            if yns_to_imm(lam).coeffs != {lam: 1}:
                result.fail(f"partition table not singleton on the immaculate side: {lam}")
            if any(tables[lam].get(beta, 0) < 1 for beta in rearrangements(lam)):
                result.fail(f"missing rearrangement in the table of {lam}")
    return result


def verify_descents(max_n: int) -> SuiteResult:
    """A duplicate-free word's descent set {i : i + 1 comes before i}, for a
    reading word its tableau's immaculate one, is its P's Young descent set.
    Per step of _standard_steps, v appended to a word on 1..k with descent
    set D gives {i in D : i < v - 1}, v if v <= k, and {i + 1 : i in D,
    i >= v}; after's set must be that update of p's, and induction does
    the rest.  An after that is not standard fails as it stands."""
    result = SuiteResult("descents", max_n)
    for p, v, (before, after, _, _) in _standard_steps(max_n):
        result.cases += 1
        if not is_standard(after):
            result.fail(f"insert of {v} into {before} is not standard")
            continue
        # The cores move letters without changing them, so p is standard too.
        want = {i + (i >= v) for i in _young_descent_set(p) if i != v - 1}
        if _young_descent_set(after) != (want | {v} if v <= sum(map(len, p)) else want):
            result.fail(f"descents differ for insert of {v} into {before}")
    return result


def verify_round_trip(max_n: int) -> SuiteResult:
    """uninsert inverts insert_word on every duplicate-free word of length
    at most max_n: per step of _standard_steps, rapture at new_cell returns
    v, the path mirrored and before, and uninsert raptures that cell first."""
    result = SuiteResult("round-trip", max_n)
    for _, v, (before, after, (col, row), path) in _standard_steps(max_n):
        result.cases += 1
        work = list(after)
        # A cell past its row's end is no cell the insertion added.
        if not (0 < row <= len(work) and col == len(work[row - 1])) or (
                *_rapture_from(work, (col, row)), tuple(work)) != (v, path[::-1], before):
            result.fail(_MESSAGES["undo"].format(rows=before, x=v))
    return result


SUITES = {
    "inverse": verify_inverse,
    "descents": verify_descents,
    "triple-agreement": verify_triple_agreement,
    "symmetry": verify_symmetry,
    "positivity": verify_positivity,
    "dominance": verify_dominance,
    "round-trip": verify_round_trip,
}

DEFAULT_MAX_N = {
    "inverse": 9,
    "descents": 9,
    "triple-agreement": 9,
    "symmetry": 9,
    "positivity": 9,
    "dominance": 9,
    "round-trip": 9,
}


def run_suite(name: str, max_n: int) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    # The package's one integer rule, as the CLI's degree check: exactly int.
    if type(max_n) is not int or max_n < 1:
        raise ValueError(f"max_n must be a positive integer, got {max_n!r}")
    return SUITES[name](max_n)
