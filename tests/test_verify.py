import re
from ast import literal_eval
from collections import Counter

import pytest

from qsc import qsym, rw, verify
from qsc.cli import DEGREE_GUARD, main
from qsc.compositions import compositions, reverse
from qsc.dirt import _dirt_strip_shape, is_dirt, row_strip_shape
from qsc.insertion import _is_virtuous, _landing, _record, insert, insert_word
from qsc.qsym import (
    DUAL_IMMACULATE,
    YOUNG_QS,
    BasisExpansion,
    dimm_to_yqs,
    dual_immaculate_mexpr,
    expand_in,
    quasi_shuffle,
    schur_m_expansion,
    yns_to_imm,
)
from qsc.tableaux import (INF, immaculate_descent_set, immaculate_reading_word, is_ssyct,
                          shape_of, standard_tableaux, young_descent_set)
from qsc.verify import DEFAULT_MAX_N, SUITES, SuiteResult, run_suite


def test_registry_is_consistent():
    assert set(SUITES) == {
        "inverse", "descents", "triple-agreement", "symmetry",
        "positivity", "dominance", "round-trip",
    }
    assert set(DEFAULT_MAX_N) == set(SUITES)
    assert all(n >= 1 for n in DEFAULT_MAX_N.values())
    # qsc verify checks the default against the guard too; above it, a bare
    # --suite would exit 2.
    assert all(n <= DEGREE_GUARD for n in DEFAULT_MAX_N.values())


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("telepathy", 3)


@pytest.mark.parametrize("max_n", [True, 0, -1, 2.0])
def test_run_suite_takes_a_positive_int_degree(max_n):
    for name in SUITES:
        with pytest.raises(ValueError, match="max_n must be a positive integer"):
            run_suite(name, max_n)


def test_suite_result_mechanics():
    result = SuiteResult("demo", 3)
    assert result.passed and result.cases == 0
    result.fail("broken at (2,1)")
    assert not result.passed
    assert result.failures == ["broken at (2,1)"]
    fresh = SuiteResult("demo", 3)
    assert fresh.passed and fresh.failures == [] and fresh.failures is not result.failures
    assert (fresh.suite, fresh.max_n, fresh.cases) == ("demo", 3, 0)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_at_small_degree(name):
    result = run_suite(name, 4)
    assert result.suite == name
    assert result.max_n == 4
    assert result.cases > 0
    assert result.passed, result.failures[:3]


def word_of(codes):
    """The word whose letters, appended one by one with every earlier letter
    >= the new one raised by one, are codes."""
    word = ()
    for v in codes:
        word = tuple(x + (x >= v) for x in word) + (v,)
    return word


def expanded(walk, leaf_states):
    """(prefix, v, alpha, state) for every word of a _reading_words walk,
    each frontier node followed by its leaves: its extending letters, then
    its opening ones, each in decreasing order, as a stack of the leaves
    would pop them.  leaf_states(state, letters, new_run) gives the states
    of the leaves with letters under a frontier node whose state is state."""
    for prefix, v, alpha, state, leaves in walk:
        yield prefix, v, alpha, state
        if leaves:
            word = verify._child_word(prefix, v)
            opens, extends = leaves
            for letters, new_run, shape in ((extends, False, (alpha[0] + 1,) + alpha[1:]),
                                            (opens, True, (1,) + alpha)):
                states = list(zip(letters, leaf_states(state, letters, new_run)))
                for w, leaf in reversed(states):
                    yield word, w, shape, leaf


def stepped(step):
    """expanded's leaf_states for a walk's own step."""
    return lambda state, letters, new_run: [step(state, w, new_run) for w in letters]


def recorded_words(max_n):
    """(words, tables): expanded over the recording walk, each leaf state
    read from its range's leaf group."""
    walk, tables, leaf_groups = verify._recording_walk(max_n)

    def leaf_states(state, letters, new_run):
        packed, ids = leaf_groups(*state, letters, new_run)
        return [ids[found] for found in packed]

    return expanded(walk, leaf_states), tables


def test_reading_words_walk_each_standard_immaculate_reading_word_once():
    walked = []
    steps = 0

    def step(state, v, new_run):
        nonlocal steps
        steps += 1
        return state + ((v, new_run),)

    walk = list(verify._reading_words(7, step, ()))
    # The walk steps each word of degree below 7 once, not each of the 1,155
    # words: expanded steps the 877 leaves of degree 7 itself.
    assert len(walk) == steps == 278
    for prefix, v, alpha, state in expanded(walk, stepped(step)):
        word = verify._child_word(prefix, v)
        # Each word's state is threaded through its standardized prefixes,
        # and a letter that opens a run puts a new bottom row under alpha.
        assert word_of([v for v, _ in state]) == word
        shape = ()
        for _, new_run in state:
            shape = (1,) + shape if new_run else (shape[0] + 1,) + shape[1:]
        assert shape == alpha
        walked.append((alpha, word))
    assert len(set(walked)) == len(walked)
    assert sorted(walked) == sorted(
        (alpha, immaculate_reading_word(u)) for n in range(1, 8) for alpha in compositions(n)
        for u in standard_tableaux(alpha, "immaculate"))


def order_type(rows):
    """rows relabelled onto 1, 2, ... in the order of its letters."""
    rank = {x: i for i, x in enumerate(sorted(x for row in rows for x in row), start=1)}
    return tuple(tuple(rank[x] for x in row) for row in rows)


def test_insertion_cores_see_only_the_order_of_letters():
    # The inverse suite checks one tableau and letter per order type; that
    # is sound because the cores give the same cells, and letters that map
    # back, on every tableau of one order type.
    reached = {insert_word(word[:j])[0] for word in reading_words(6) for j in range(len(word) + 1)}
    assert len(reached) == 400
    for rows in reached:
        letters = sorted(x for row in rows for x in row)

        def lifted(std, letters=letters):
            return tuple(tuple(letters[x - 1] for x in row) for row in std)

        std = order_type(rows)
        assert lifted(std) == rows
        assert is_ssyct(std) == is_ssyct(rows)
        for r, row in enumerate(rows, start=1):
            for c in range(1, len(row) + 1):
                assert _is_virtuous(std, (c, r)) == _is_virtuous(rows, (c, r))
                work, std_work = list(rows), list(std)
                output, route = verify._rapture_from(work, (c, r))
                std_output, std_route = verify._rapture_from(std_work, (c, r))
                assert std_route == route
                assert (INF if std_output is INF else letters[std_output - 1]) == output
                assert lifted(std_work) == tuple(work)
                assert is_ssyct(tuple(std_work)) == is_ssyct(tuple(work))
        for k in set(range(1, len(letters) + 2)) - set(letters):
            # k relabelled with the letters: insertion sees rows and k jointly.
            joint = sorted(letters + [k])
            work, std_work = list(rows), list(order_type(rows + ((k,),))[:-1])
            cells = verify._insert_into(work, k)
            assert verify._insert_into(std_work, joint.index(k) + 1) == cells
            assert lifted(std_work, joint) == tuple(work)
            assert is_ssyct(tuple(std_work)) == is_ssyct(tuple(work))


def break_top_rows(monkeypatch):
    real = verify._insert_into

    def broken(work, k, events=None):
        result = real(work, k, events)
        # A top row that starts above all entries no longer increases.
        work[-1] = (max(x for row in work for x in row) + 1,) + work[-1]
        return result

    monkeypatch.setattr(verify, "_insert_into", broken)


def settle_raptures(monkeypatch):
    real = verify._rapture_from

    def settles(work, cell, events=None):
        return INF, real(work, cell, events)[1]

    monkeypatch.setattr(verify, "_rapture_from", settles)


# The faults below fire on every tableau of one order type, as the cores'
# verdicts do, so the suite, which checks tableaux standardized, and the
# plain word loop, which does not, see the same faults.

# 45 insertions of words with n <= 6 start from a tableau of this order
# type: from 15 tableaux, after 27 distinct prefixes.
INSERTED_INTO = ((1,), (2, 3, 4))


def corrupt_paths_into(monkeypatch):
    real = verify._insert_into

    def corrupt(work, k, events=None):
        before = order_type(work)
        new_cell, path = real(work, k, events)
        return new_cell, path + ((0, 0),) if before == INSERTED_INTO else path

    monkeypatch.setattr(verify, "_insert_into", corrupt)


def misreport_cells_into(monkeypatch):
    # A cell one column right of the one added; steps and paths are right.
    real = verify._insert_into

    def misreport(work, k, events=None):
        before = order_type(work)
        (col, row), path = real(work, k, events)
        return ((col + 1, row) if before == INSERTED_INTO else (col, row)), path

    monkeypatch.setattr(verify, "_insert_into", misreport)


# 111 insertions of words with n <= 6 reach a tableau of this order type,
# which the suite raptures at (2, 2) once, as ((1,), (2, 3)).
RAPTURED = ((1,), (2, 3))


def corrupt_one_rapture(monkeypatch):
    real = verify._rapture_from

    def corrupt(work, cell, events=None):
        before = order_type(work)
        output, route = real(work, cell, events)
        return output, route + ((0, 0),) if (before, cell) == (RAPTURED, (2, 2)) else route

    monkeypatch.setattr(verify, "_rapture_from", corrupt)


def raise_outputs_from(monkeypatch):
    # Rapture of a tableau of order type INSERTED_INTO outputs one more.
    real = verify._rapture_from

    def raised(work, cell, events=None):
        before = order_type(work)
        output, route = real(work, cell, events)
        return output + (before == INSERTED_INTO), route

    monkeypatch.setattr(verify, "_rapture_from", raised)


def test_round_trip_counts_one_case_per_standard_tableau_and_letter():
    for max_n in range(1, 8):
        standard = [sum(len(standard_tableaux(alpha, "ssyct")) for alpha in compositions(k))
                    for k in range(max_n)]
        result = run_suite("round-trip", max_n)
        assert result.passed
        assert result.cases == sum(s * (k + 1) for k, s in enumerate(standard))


@pytest.mark.parametrize("fault", [corrupt_paths_into, misreport_cells_into, raise_outputs_from])
def test_round_trip_records_a_core_fault(monkeypatch, capsys, fault):
    fault(monkeypatch)
    result = run_suite("round-trip", 6)
    undone = [literal_eval(re.fullmatch(r"rapture\(insert\) failed: (.*) \+ (\d+)", f)
                           .expand(r"(\1, \2)")) for f in result.failures]
    if fault is raise_outputs_from:
        # The two (P, v) that insert to ((1,), (2, 3, 4)), which alone
        # rapture a tableau of that order type.
        assert len(undone) == 2
        assert all(insert(before, v).rows == INSERTED_INTO for before, v in undone)
    else:
        # Each v inserted into ((1,), (2, 3, 4)) raised; a misreported cell
        # past its row's end fails its case rather than ending the run.
        assert undone == [(tuple(tuple(x + (x >= v) for x in row) for row in INSERTED_INTO), v)
                          for v in range(1, 6)]
    code, lines = verify_cli(capsys, "round-trip", 6)
    assert code == 1
    assert lines[:2] == ["suite round-trip: FAIL (231 cases, max_n=6)",
                         f"  counterexample: {result.failures[0]}"]


def test_inverse_inserts_exactly_the_round_trip_pairs(monkeypatch):
    # Every standard tableau is the P of some standard immaculate reading
    # word, so inverse's undo checks are round-trip's cases, and descents
    # reads round-trip's walk.  inverse re-inserts a rapture's output into
    # the rapture's result as it stands, so each suite's core insertions are
    # counted by order type: (before, letter) relabelled onto 1, 2, ...
    counts = {"inverse": Counter(), "round-trip": Counter(), "descents": Counter()}
    real = verify._insert_into
    for name, seen in counts.items():
        def collected(work, k, events=None, seen=seen):
            *before, (v,) = order_type(tuple(work) + ((k,),))
            seen[tuple(before), v] += 1
            return real(work, k, events)

        monkeypatch.setattr(verify, "_insert_into", collected)
        assert run_suite(name, 8).passed
    assert counts["inverse"] == counts["round-trip"] == counts["descents"]
    assert set(counts["round-trip"].values()) == {1}
    assert len(counts["round-trip"]) == run_suite("round-trip", 8).cases == 2619


def raised_from(before, k):
    """_insert_raised(std, k) for the standard std that before, which skips
    k, is std raised from: the step its core insertion of k must be."""
    std = tuple(tuple(x - (x > k) for x in row) for row in before)
    return verify._insert_raised(std, k)


@pytest.mark.parametrize("fault", [None, raise_outputs_from])
def test_inverse_memo_holds_only_raised_insertions(monkeypatch, fault):
    # The memo is keyed by (before, v), the tableau v goes into as it
    # stands.  A re-insert goes into the rapture's result as it stands and
    # is kept under (result, output), where the steps look up their raised
    # befores, so its entry must be _insert_raised(std, output).  Under
    # raise_outputs_from one rapture outputs 2 and leaves ((2, 3, 4),),
    # which still holds 2: that result is not std raised, so its output is
    # inserted into std raised.
    if fault is not None:
        fault(monkeypatch)
    real_insert, real_rapture = verify._insert_into, verify._rapture_from
    inserted, held = [], []

    def recorded(work, k, events=None):
        before = tuple(work)
        new_cell, path = real_insert(work, k, events)
        inserted.append(((before, tuple(work), new_cell, path), k))
        return new_cell, path

    def checked(work, cell, events=None):
        output, route = real_rapture(work, cell, events)
        if any(output in row for row in work):
            held.append((tuple(work), output))
        return output, route

    monkeypatch.setattr(verify, "_insert_into", recorded)
    monkeypatch.setattr(verify, "_rapture_from", checked)
    verify.verify_inverse(6)
    assert held == ([] if fault is None else [(((2, 3, 4),), 2)])
    monkeypatch.setattr(verify, "_insert_into", real_insert)
    for entry, k in inserted:
        assert raised_from(entry[0], k) == entry
    # Once per memo key: the befores differ exactly when their keys do.
    assert len({(entry[0], k) for entry, k in inserted}) == len(inserted)


def test_inverse_records_a_non_tableau_core_result(monkeypatch):
    break_top_rows(monkeypatch)
    result = run_suite("inverse", 3)
    assert not result.passed
    assert any("not a Young composition tableau" in f for f in result.failures)


def test_inverse_records_an_inf_rapture_output(monkeypatch):
    settle_raptures(monkeypatch)
    result = run_suite("inverse", 2)
    assert any("outputs INF" in f for f in result.failures)


def check_inverse_pair(result: SuiteResult, rows, new_cell, undone) -> None:
    """insert after rapture returns the original tableau with the route
    mirrored, for every virtuous cell.  Rapture at new_cell, the cell the
    last insertion added, must undo that insertion: return undone, the
    inserted value with the bumping path mirrored and the tableau before.
    That insertion is then the insert after rapture, and is not rerun."""
    undoes = False
    for r, row in enumerate(rows, start=1):
        cell = (len(row), r)
        if not _is_virtuous(rows, cell):
            continue
        work = list(rows)
        output, route = verify._rapture_from(work, cell)
        after = tuple(work)
        if cell == new_cell and (output, route, after) == undone:
            # The tableau before was checked, and the output is an entry.
            undoes = True
            result.cases += 1
            continue
        if not is_ssyct(after):
            result.fail(f"rapture of {rows} at {cell} is not a Young composition tableau")
            continue
        if output is INF:
            result.fail(f"rapture of {rows} at {cell} outputs INF")
            continue
        result.cases += 1
        # Equal to rows, the insert result is a tableau; no separate check.
        _, path = verify._insert_into(work, output)
        if tuple(work) != rows or path != tuple(reversed(route)):
            result.fail(f"insert(rapture) failed at {rows} cell {cell}")
    if not undoes:
        result.fail(f"rapture(insert) failed: {undone[2]} + {undone[0]}")


def reading_words(max_n):
    for n in range(1, max_n + 1):
        for alpha in compositions(n):
            for u in standard_tableaux(alpha, "immaculate"):
                yield immaculate_reading_word(u)


def plain_inverse(max_n):
    """The inverse sweep word by word: every insertion of every word is
    checked, with nothing shared between words and no code shared with the
    suite's memo."""
    result = SuiteResult("inverse", max_n)
    for word in reading_words(max_n):
        rows = ()
        for k in word:
            work = list(rows)
            new_cell, path = verify._insert_into(work, k)
            step = tuple(work)
            result.cases += 1
            if not is_ssyct(step):
                result.fail(f"insert of {k} into {rows} is not a Young composition tableau")
                break
            check_inverse_pair(result, step, new_cell, (k, tuple(reversed(path)), rows))
            rows = step
    return result


FAULTS = [None, break_top_rows, settle_raptures, corrupt_paths_into, misreport_cells_into,
          corrupt_one_rapture, raise_outputs_from]


@pytest.mark.parametrize("fault", FAULTS)
def test_inverse_replay_matches_a_plain_word_loop(monkeypatch, fault):
    if fault is not None:
        fault(monkeypatch)
    result = verify.verify_inverse(6)
    plain = plain_inverse(6)
    assert result.cases == plain.cases
    assert result.failures == plain.failures
    assert result.passed == (fault is None)
    if fault is corrupt_paths_into:
        # A failure is repeated for each word that reaches the insertion.
        assert len(set(result.failures)) < len(result.failures)
    if fault is misreport_cells_into:
        # Only the undo lookup sees the cell: every failure is that miss.
        for f in result.failures:
            rows = re.fullmatch(r"rapture\(insert\) failed: (.*) \+ \d+", f).group(1)
            assert order_type(literal_eval(rows)) == INSERTED_INTO
    if fault is corrupt_one_rapture:
        # The one corrupted rapture is replayed for each insertion reaching
        # its order type.
        reached = sum(order_type(insert_word(word[:j])[0]) == RAPTURED
                      for word in reading_words(6) for j in range(1, len(word) + 1))
        assert reached == 111
        raptured = [re.fullmatch(r"insert\(rapture\) failed at (.*) cell \(2, 2\)", f)
                    for f in result.failures]
        raptured = [literal_eval(m.group(1)) for m in raptured if m]
        assert len(raptured) == reached
        assert all(order_type(rows) == RAPTURED for rows in raptured)


def test_inverse_runs_each_insertion_and_rapture_once(monkeypatch):
    calls = {"_insert_into": 0, "_rapture_from": 0}

    def counted(name):
        real = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, name, wrapper)

    counted("_insert_into")
    counted("_rapture_from")
    # One of each per standard (tableau, virtuous cell) the walk reaches,
    # against 691 each when tableaux were kept with their own letters.
    assert verify.verify_inverse(6).cases == 3971
    assert calls == {"_insert_into": 231, "_rapture_from": 231}


def test_inverse_checks_each_standard_tableau_once(monkeypatch):
    calls = 0
    real = verify.is_ssyct

    def counted(rows):
        nonlocal calls
        calls += 1
        return real(rows)

    monkeypatch.setattr(verify, "is_ssyct", counted)
    assert verify.verify_inverse(7).passed
    # A rapture result is checked standardized, and only when its re-insert
    # misses the memo, so each check is one standard Young composition
    # tableau of degree 1..7 (995 calls unstandardized).  The empty tableau
    # is the root: a rapture that empties a tableau hits the root's step.
    assert calls == 351 == sum(len(standard_tableaux(alpha, "ssyct"))
                               for n in range(1, 8) for alpha in compositions(n))


def test_insertions_insert_once_per_standard_tableau_and_letter(monkeypatch):
    calls = 0
    real = verify._insert_into

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "_insert_into", counted)
    assert sum(1 for _ in recorded_words(7)[0]) == 1155
    # One per (standard P, v) a reading word's prefixes reach, against 1,148
    # when each bottom-row prefix was inserted once per tail entry.
    steps = {(order_type(insert_word(w[:k - 1])[0]), sorted(w[:k]).index(w[k - 1]) + 1)
             for w in reading_words(7) for k in range(1, len(w) + 1)}
    assert calls == len(steps) == 557


def walked_records(max_n):
    """Per word of the recording walk, (word, alpha, P, P's shape, Q's
    shape, Q's verdict), sorted, and each word's (alpha, Q) id.  A leaf, a
    word of degree max_n, keeps only P's shape: its P is None."""
    words, tables = recorded_words(max_n)
    records, ids, leaves = [], [], set()
    for prefix, v, alpha, (p, q) in words:
        word = verify._child_word(prefix, v)
        records.append((word, alpha, tables.p_rows[p], tables.p_shape[p], tables.q_shape[q],
                        tables.q_good[q]))
        ids.append((word, q))
        if len(word) == max_n:
            leaves.add(p)
    # Every id but the empty word's is some word's, and the leaves have one
    # P id per distinct shape.
    assert len({q for _, q in ids}) == len(tables.q_shape) - 1
    assert len(leaves) == len({tables.p_shape[p] for p in leaves})
    return sorted(records), dict(ids)


def plain_records(max_n, insertion):
    """walked_records from insertion(word) = (P, Q), word by word, and each
    word's (alpha, Q)."""
    records, pairs = [], {}
    for n in range(1, max_n + 1):
        for alpha in compositions(n):
            for u in standard_tableaux(alpha, "immaculate"):
                word = immaculate_reading_word(u)
                p, q = insertion(word)
                records.append((word, alpha, p if n < max_n else None, shape_of(p), shape_of(q),
                                _dirt_strip_shape(q) == reverse(alpha)))
                pairs[word] = (alpha, q)
    return sorted(records), pairs


def assert_one_id_per_distinct_q(ids, pairs):
    # Words share an id exactly when they share alpha and Q.
    assert ids.keys() == pairs.keys()
    assert len(set(ids.values())) == len(set(pairs.values()))
    assert len({(ids[word], pairs[word]) for word in ids}) == len(set(ids.values()))


def test_word_insertions_yield_each_reading_word_with_its_insertion():
    # Each word's P is insert_word's, and its Q's shape and verdict, read off
    # the landing path, are those of insert_word's Q.
    walked, ids = walked_records(8)
    assert len(walked) == 5295
    plain, pairs = plain_records(8, insert_word)
    assert walked == plain
    assert all(good for *_, good in walked)
    assert_one_id_per_distinct_q(ids, pairs)
    assert len(set(ids.values())) == 1593


def test_a_leaf_step_inserts_half_a_letter_into_p_unraised():
    # The recording walk inserts v - 1/2 into a leaf's parent P as it
    # stands: the cell, path and shape of v inserted into P raised.  Every
    # (P, v) of a word of degree at most 8, so every leaf step of a walk
    # with max_n <= 8.
    steps = set()

    def step(p, v, new_run):
        steps.add((p, v))
        return verify._insert_raised(p, v)[1]

    for _ in expanded(verify._reading_words(8, step, ()), stepped(step)):
        pass
    # 557 steps reach degree at most 7, and 1,310 reach degree 8.
    assert len(steps) == 1867
    for p, v in steps:
        work = list(p)
        cell, path = verify._insert_into(work, v - 0.5)
        _, after, raised_cell, raised_path = verify._insert_raised(p, v)
        assert (cell, path, shape_of(tuple(work))) == (raised_cell, raised_path, shape_of(after))


def test_one_cell_rule_matches_the_dirt_checker():
    # Every row-increasing standard filling of 1..7 cells, grown by _record
    # from its parent (its largest value removed) at every landing _record
    # takes: a new row at each height and an append to each row.  Along the
    # landing path, the shape, the verdict (the parent's and the one-cell
    # rule) and the strip shape (a new strip exactly at column 1) are those
    # of the filling.
    level = [((), (), 0, True, ())]
    landings = 0
    for n in range(7):
        grown = []
        for q, shape, last, dirt, strips in level:
            cells = [(1, h) for h in range(1, len(q) + 2)]
            cells += [(len(row) + 1, r) for r, row in enumerate(q, start=1)]
            for cell in cells:
                work = list(q)
                _record(work, cell, n + 1)
                child = tuple(work)
                shape2, col, ok = verify._one_cell(shape, last, *_landing(len(q), cell))
                dirt2 = dirt and ok
                strips2 = strips + (1,) if col == 1 else strips[:-1] + (strips[-1] + 1,)
                assert shape2 == shape_of(child)
                assert col == len(next(row for row in child if row[-1] == n + 1))
                assert _dirt_strip_shape(child) == (strips2 if dirt2 else None)
                grown.append((child, shape2, col, dirt2, strips2))
        landings += len(grown)
        level = grown
    # Each row-increasing standard filling once: as many as the ordered set
    # partitions of 1..n, for n = 1..7.
    assert landings == 52609
    assert len({q for q, *_ in level}) == len(level) == 47293
    # The DIRTs of 7 cells, as the DIRT counts have them.
    assert sum(dirt for *_, dirt, _ in level) == sum(
        sum(qsym._dirt_row(alpha).values()) for alpha in compositions(7))


# Two more faults on insertions from a tableau of order type INSERTED_INTO,
# for the word walk.

def move_cells_to_the_corner(monkeypatch):
    # The step is right, but the cell it reports is (1, 1).
    real = verify._insert_into

    def moved(work, k, events=None):
        before = order_type(work)
        new_cell, path = real(work, k, events)
        return ((1, 1) if before == INSERTED_INTO else new_cell), path

    monkeypatch.setattr(verify, "_insert_into", moved)


def swap_lowest_row_ends(monkeypatch):
    real = verify._insert_into

    def swapped(work, k, events=None):
        before = order_type(work)
        result = real(work, k, events)
        if before == INSERTED_INTO:
            low, next_low = work[0], work[1]
            work[0], work[1] = low[:-1] + next_low[-1:], next_low[:-1] + low[-1:]
        return result

    monkeypatch.setattr(verify, "_insert_into", swapped)


def replay(word):
    """(P, Q) of word through verify's core, which a test may patch."""
    p, q = [], []
    for j, k in enumerate(word, start=1):
        _record(q, verify._insert_into(p, k)[0], j)
    return tuple(p), tuple(q)


@pytest.mark.parametrize("fault", [move_cells_to_the_corner, swap_lowest_row_ends])
def test_insertions_match_a_plain_word_loop_under_a_core_fault(monkeypatch, fault):
    # Every letter of every word goes through the core, letter 1 too: a
    # fault there shows in the walk as in the loop.  A leaf keeps only P's
    # shape, so the P rows of degree 6 are compared at max_n 7.
    fault(monkeypatch)
    for max_n in (6, 7):
        walked, ids = walked_records(max_n)
        plain, pairs = plain_records(max_n, replay)
        assert walked == plain
        assert_one_id_per_distinct_q(ids, pairs)
        # The fault changes some entries, so the comparison is not vacuous.
        assert any(replay(word) != insert_word(word) for word in pairs)


def record_in_one_row(monkeypatch):
    # Every insertion reports the cell (2, 1): P is right, and Q is the one
    # row 1..n, a DIRT of strip shape (n,).
    real = verify._insert_into

    def in_one_row(work, k, events=None):
        return (2, 1), real(work, k, events)[1]

    monkeypatch.setattr(verify, "_insert_into", in_one_row)


def least_reading_words(alphas):
    """The tableau of each alpha's least reading word."""
    return [min(standard_tableaux(alpha, "immaculate"), key=immaculate_reading_word)
            for alpha in alphas]


def test_triple_agreement_reports_each_bad_recording_tableau_once(monkeypatch):
    record_in_one_row(monkeypatch)
    result = run_suite("triple-agreement", 4)
    # Every word of alpha records the one row, a DIRT of strip shape (n,):
    # one report per composition other than (n,), not one per word (7
    # reports against 14 words at n = 4), for its least reading word.
    bad = [f for f in result.failures if f.startswith("bad recording tableau for ")]
    alphas = [alpha for n in (2, 3, 4) for alpha in compositions(n) if len(alpha) > 1]
    assert bad == [f"bad recording tableau for {u}" for u in least_reading_words(alphas)]
    assert len(bad) == 11
    # The words 2134, 3124 and 4123 of alpha = (3, 1) record the same row.
    assert "bad recording tableau for ((1, 3, 4), (2,))" in result.failures
    assert "bad recording tableau for ((1, 2, 4), (3,))" not in result.failures
    assert result.failures == triple_agreement_word_by_word(4)


def triple_agreement_word_by_word(max_n):
    """The triple-agreement failures built word by word from
    standard_tableaux, with replay(word) as each word's (P, Q), so a patched
    core reaches both: each composition's words in reading word order, then
    its table checks."""
    failures = []
    for n in range(max_n + 1):
        for alpha in compositions(n):
            shapes = {} if n else {(): ()}
            tableaux = sorted(standard_tableaux(alpha, "immaculate"), key=immaculate_reading_word)
            for u in tableaux if n else ():
                word = immaculate_reading_word(u)
                p, q = replay(word)
                if q not in shapes:
                    shapes[q] = shape_of(q)
                    if not (is_dirt(q) and row_strip_shape(q) == reverse(alpha)):
                        failures.append(f"bad recording tableau for {u}")
                if shape_of(p) != shapes[q]:
                    failures.append(f"shape mismatch for {u}")
            tables = [dict(Counter(shapes.values())), verify.dimm_to_yqs(alpha).coeffs,
                      rw.rw_forward(alpha)[1].coeffs]
            if not tables[0] == tables[1] == tables[2]:
                # Each key in the order of compositions of its degree.
                tables = [{beta: t[beta] for beta in sorted(
                    t, key=lambda beta: compositions(sum(beta)).index(beta))} for t in tables]
                failures.append(f"coefficient tables differ at {alpha}: "
                                f"{tables[0]} vs {tables[1]} vs {tables[2]}")
            column = {beta: qsym._dirt_row(beta).get(alpha, 0) for beta in compositions(n, len(alpha))}
            if yns_to_imm(alpha).coeffs != {beta: c for beta, c in column.items() if c}:
                failures.append(f"dual tree disagrees at {alpha}")
    return failures


# Failure counts at max_n 5, 6 and 7 under each fault; corrupt_paths_into
# changes only paths, which the suite does not read.
WORD_BY_WORD_FAULTS = [
    (break_top_rows, (87, 328, 1344)),
    (corrupt_paths_into, (0, 0, 0)),
    (misreport_cells_into, (9, 45, 177)),
    (move_cells_to_the_corner, (12, 43, 152)),
    (swap_lowest_row_ends, (0, 5, 21)),
    (record_in_one_row, (122, 386, 1388)),
]


@pytest.mark.parametrize("max_n", [5, 6, 7])
@pytest.mark.parametrize("fault,counts", WORD_BY_WORD_FAULTS)
def test_triple_agreement_matches_the_word_by_word_oracle_under_a_core_fault(
        monkeypatch, fault, counts, max_n):
    # A leaf group that fails reports each of its words, with their P and Q
    # from the patched core.
    fault(monkeypatch)
    failures = run_suite("triple-agreement", max_n).failures
    assert len(failures) == counts[max_n - 5]
    assert failures == triple_agreement_word_by_word(max_n)


def test_triple_agreement_keeps_the_word_order_under_a_two_check_fault(monkeypatch):
    # Q opens a bottom row where P does not: no DIRT of the right strips,
    # and of another shape than P.
    move_cells_to_the_corner(monkeypatch)
    result = run_suite("triple-agreement", 7)
    assert result.failures[:2] == ["bad recording tableau for ((1, 3, 4, 5), (2,))",
                                   "shape mismatch for ((1, 3, 4, 5), (2,))"]
    assert len(result.failures) == 152
    assert result.failures == triple_agreement_word_by_word(7)
    # The walk meets one such Q first at a word other than its least, yet
    # its report comes first among the least word's failures.
    words, tables = recorded_words(7)
    first, least = {}, {}
    for prefix, v, alpha, (_, q) in words:
        word = verify._child_word(prefix, v)
        first.setdefault(q, word)
        least[q] = min(least.get(q, word), word)
    late = [q for q, word in least.items() if first[q] != word]
    assert len(late) == 1 and not tables.q_good[late[0]]
    u = verify._tableau_of(least[late[0]], tables.q_alpha[late[0]])
    at = result.failures.index(f"bad recording tableau for {u}")
    assert result.failures[at + 1] == f"shape mismatch for {u}"


def test_triple_agreement_reports_a_table_after_its_words_in_composition_order(monkeypatch):
    real_counts = verify.dimm_to_yqs

    def miscounted(alpha):
        # (2, 1)'s table, reversed and with its diagonal raised by one.
        table = real_counts(alpha)
        if alpha != (2, 1):
            return table
        coeffs = {beta: c + (beta == alpha) for beta, c in reversed(table.coeffs.items())}
        return BasisExpansion(table.basis, table.degree, coeffs)

    record_in_one_row(monkeypatch)
    monkeypatch.setattr(verify, "dimm_to_yqs", miscounted)
    result = run_suite("triple-agreement", 7)
    # The count holds (1, 2) before (2, 1), but each table prints in
    # compositions(3) order.
    message = ("coefficient tables differ at (2, 1): "
               "{(3,): 1} vs {(2, 1): 2, (1, 2): 1} vs {(2, 1): 1, (1, 2): 1}")
    # After (2, 1)'s bad recording report and its words' shape mismatches,
    # and before (1, 2)'s report.
    at = result.failures.index(message)
    assert result.failures[at - 3:at] == ["bad recording tableau for ((1, 3), (2,))",
                                          "shape mismatch for ((1, 3), (2,))",
                                          "shape mismatch for ((1, 2), (3,))"]
    assert result.failures[at + 1] == "bad recording tableau for ((1,), (2, 3))"
    assert result.failures == triple_agreement_word_by_word(7)


def test_triple_agreement_builds_no_dual_tree(monkeypatch):
    def refuse(alpha):
        raise AssertionError("rw_dual called")

    monkeypatch.setattr(rw, "rw_dual", refuse)
    monkeypatch.setattr(verify, "rw_dual", refuse, raising=False)
    result = run_suite("triple-agreement", 7)
    assert result.passed and result.cases == 256


def test_triple_agreement_builds_no_forward_tree(monkeypatch):
    def refuse(alpha):
        raise AssertionError("rw_forward called")

    monkeypatch.setattr(rw, "rw_forward", refuse)
    monkeypatch.setattr(verify, "rw_forward", refuse, raising=False)
    result = run_suite("triple-agreement", 7)
    assert result.passed and result.cases == 256


def raised(rows, v):
    """rows with every letter >= v raised by one."""
    return tuple(tuple(x + (x >= v) for x in row) for row in rows)


def test_descents_reports_in_report_order(monkeypatch):
    real = verify._insert_raised

    def one_row(p, v):
        # A one-row after is standard and has no Young descents, so every
        # step whose update adds the descent v (v <= k) fails.
        before, after, new_cell, path = real(p, v)
        return before, (tuple(sorted(x for row in after for x in row)),), new_cell, path

    monkeypatch.setattr(verify, "_insert_raised", one_row)
    result = run_suite("descents", 5)
    # Only one-row tableaux grow: one p of each size k, k + 1 steps each.
    assert result.cases == 15
    assert result.failures == [
        f"descents differ for insert of {v} into {raised((tuple(range(1, k + 1)),), v)}"
        for k in range(1, 5) for v in range(1, k + 1)]


def test_descents_bridge_immaculate_descents_to_the_young_descents_of_p():
    # The walk's descent set {i : i + 1 comes before i} of a reading word is
    # its tableau's immaculate descent set, and insertion carries it.
    for n in range(1, 8):
        for alpha in compositions(n):
            for u in standard_tableaux(alpha, "immaculate"):
                word = immaculate_reading_word(u)
                at = {x: j for j, x in enumerate(word)}
                descents = {i for i in range(1, n) if at[i + 1] < at[i]}
                assert immaculate_descent_set(u) == descents
                assert young_descent_set(insert_word(word)[0]) == descents


def verify_cli(capsys, suite, max_n):
    """(exit code, stdout lines) of qsc verify; it prints nothing to stderr."""
    code = main(["verify", "--suite", suite, "--max-n", str(max_n)])
    out, err = capsys.readouterr()
    assert err == ""
    return code, out.splitlines()


def test_word_suites_report_a_cell_above_the_top_row(monkeypatch, capsys):
    # Some of the misreported cells lie past Q's top row: Q opens a row
    # there, and only triple-agreement, which reads Q, fails.
    misreport_cells_into(monkeypatch)

    result = run_suite("triple-agreement", 6)
    assert len(result.failures) == 45
    assert result.failures == triple_agreement_word_by_word(6)
    descents = run_suite("descents", 6)
    assert descents.passed and descents.cases == 231
    code, lines = verify_cli(capsys, "triple-agreement", 6)
    assert code == 1
    assert lines[:2] == ["suite triple-agreement: FAIL (128 cases, max_n=6)",
                         f"  counterexample: {result.failures[0]}"]


def repeat_a_letter_into(monkeypatch):
    # P's bottom row ends in a copy of its top row's last letter; the shape
    # is right.
    real = verify._insert_into

    def repeated(work, k, events=None):
        before = order_type(work)
        result = real(work, k, events)
        if before == INSERTED_INTO:
            work[0] = work[0][:-1] + work[-1][-1:]
        return result

    monkeypatch.setattr(verify, "_insert_into", repeated)


def test_descents_records_a_p_that_is_not_standard(monkeypatch, capsys):
    repeat_a_letter_into(monkeypatch)
    # Each v inserted into INSERTED_INTO raised fails, and so does every
    # step from the afters, which keep their repeated letter as they grow.
    expected, grown = [], {}
    for v in range(1, 6):
        before = raised(INSERTED_INTO, v)
        work = list(before)
        verify._insert_into(work, v)
        expected.append(f"insert of {v} into {before} is not standard")
        grown[tuple(work)] = None
    expected += [f"insert of {v} into {raised(p, v)} is not standard"
                 for p in grown for v in range(1, 7)]
    result = run_suite("descents", 6)
    # The 5 afters are 5 more tableaux of size 5, with 6 steps each.
    assert result.cases == 231 + 30
    assert len(expected) == 35 and result.failures == expected
    # Not exit 2, which means bad input.
    code, lines = verify_cli(capsys, "descents", 6)
    assert code == 1
    assert lines[:2] == ["suite descents: FAIL (261 cases, max_n=6)",
                         f"  counterexample: {expected[0]}"]


def test_dominance_records_a_dirt_table_that_is_not_unitriangular(dirt_diagonal_2, capsys):
    result = run_suite("dominance", 4)
    assert result.failures[:2] == [
        "diagonal coefficient is not 1 at (2, 1)",
        "DIRT counts times the peeled table is not the identity at (2, 1)"]
    code, lines = verify_cli(capsys, "dominance", 4)
    assert code == 1
    assert lines[:2] == [f"suite dominance: FAIL ({result.cases} cases, max_n=4)",
                         "  counterexample: diagonal coefficient is not 1 at (2, 1)"]


def perturb_mexpr_diagonal(monkeypatch, basis):
    # 2 on the diagonal of basis's monomial expansion at (2, 1), as the peel
    # reads it: a packed row whose field 0 is the diagonal, so adding 1 turns
    # that field's 1 into 2.
    real = qsym._mexpr_row

    def perturbed(b, alpha, width):
        row, largest = real(b, alpha, width)
        if (b, alpha) == (basis, (2, 1)):
            row, largest = row + 1, max(largest, 2)
        return row, largest

    monkeypatch.setattr(qsym, "_mexpr_row", perturbed)


def test_positivity_records_an_expansion_that_is_not_unitriangular(monkeypatch, capsys):
    # Exactly the products whose Young qs table has a term at (2, 1) reach the
    # bad element; the witness, in degree 4, does not.
    expected = [
        f"young-qs element at 2,1 is not unitriangular, expanding s_{lam} * {alpha}"
        for lam, alpha in [((1,), (2,)), ((1,), (1, 1)), ((2,), (1,)), ((1, 1), (1,))]
        if expand_in(quasi_shuffle(schur_m_expansion(lam), dual_immaculate_mexpr(alpha)),
                     YOUNG_QS).coefficient((2, 1))]
    assert expected
    perturb_mexpr_diagonal(monkeypatch, YOUNG_QS)
    result = run_suite("positivity", 4)
    assert result.failures == expected
    code, lines = verify_cli(capsys, "positivity", 4)
    assert code == 1
    assert lines[:2] == [f"suite positivity: FAIL ({result.cases} cases, max_n=4)",
                         f"  counterexample: {expected[0]}"]


def test_dominance_records_an_expansion_that_is_not_unitriangular(monkeypatch, capsys):
    # Of the Young qs elements of degree 3, only (2, 1) has a dual immaculate
    # term at (2, 1), so only its peel reaches the bad element.
    perturb_mexpr_diagonal(monkeypatch, DUAL_IMMACULATE)
    result = run_suite("dominance", 3)
    assert result.failures == [
        "DIRT counts times the peeled table is not the identity at (2, 1)"]
    code, lines = verify_cli(capsys, "dominance", 3)
    assert code == 1
    assert lines[1] == f"  counterexample: {result.failures[0]}"


def test_dominance_records_a_perturbed_peeled_table(monkeypatch):
    real = verify.expand_in

    def perturbed(f, basis):
        table = real(f, basis)
        coeffs = dict(table.coeffs)
        coeffs[(1,) * f.degree] = coeffs.get((1,) * f.degree, 0) + 1
        return BasisExpansion(table.basis, table.degree, coeffs)

    monkeypatch.setattr(verify, "expand_in", perturbed)
    result = run_suite("dominance", 3)
    assert not result.passed
    assert all("not the identity" in f for f in result.failures)
