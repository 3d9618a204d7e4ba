"""Exhaustive verification suites for the package's structural guarantees.

Each suite sweeps every composition up to a degree bound and reports counted
cases plus any counterexamples.  All suites are deterministic and complete;
nothing is sampled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations

from .compositions import compositions, dominates, partitions, rearrangements, reverse
from .dirt import is_dirt, row_strip_shape
from .insertion import _freeze, _insert_into, _is_virtuous, _rapture_from
from .insertion import insert_word, uninsert
from .qsym import (
    DUAL_IMMACULATE,
    YOUNG_QS,
    dimm_to_yqs,
    dual_immaculate_mexpr,
    expand_in,
    is_symmetric,
    quasi_shuffle,
    schur_m_expansion,
    yns_to_imm,
    young_qs_mexpr,
    yqs_to_dimm,
)
from .rw import rw_dual, rw_forward
from .tableaux import (
    INF,
    immaculate_descent_set,
    immaculate_reading_word,
    is_ssyct,
    shape_of,
    standard_tableaux,
    young_descent_set,
)


@dataclass
class SuiteResult:
    suite: str
    max_n: int
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _check_inverse_pair(result: SuiteResult, rows, new_cell, undone) -> None:
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
        work = [list(x) for x in rows]
        output, route = _rapture_from(work, cell)
        after = _freeze(work)
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
        _, path = _insert_into(work, output)
        if _freeze(work) != rows or path != tuple(reversed(route)):
            result.fail(f"insert(rapture) failed at {rows} cell {cell}")
    if not undoes:
        result.fail(f"rapture(insert) failed: {undone[2]} + {undone[0]}")


def _insert_step(rows, k, check: bool):
    """Insert k into rows with the unchecked core.  Returns (step, ok,
    cases, failures); with check, the inverse suite's checks of this
    insertion run and ok says whether step is a tableau."""
    work = [list(r) for r in rows]
    new_cell, path = _insert_into(work, k)
    step = _freeze(work)
    if not check:
        return step, True, 0, []
    record = SuiteResult("inverse", 0, cases=1)
    if not is_ssyct(step):
        record.fail(f"insert of {k} into {rows} is not a Young composition tableau")
        return step, False, record.cases, record.failures
    _check_inverse_pair(record, step, new_cell, (k, tuple(reversed(path)), rows))
    return step, True, record.cases, record.failures


def _walk_reading_words(n: int, check: bool):
    """Insert the immaculate reading word of every standard immaculate
    tableau u of degree n, one letter at a time.  Yields (index, u, p,
    cases, failures) per word: index is u's place in enumeration order, p
    the last tableau reached, and cases and failures those of its
    insertions (see _insert_step).  A step that is not a tableau ends the
    word.

    The words are walked in buckets by first letter, and each distinct
    (tableau, letter) insertion runs once per bucket; a repeat replays the
    recorded step, cases and failures.  No sharing is lost: a letter opens
    a row only when it is smaller than every row's first entry, and
    _insert_into writes column 1 only then, so a word's first letter stays
    on top of column 1 and words with different first letters never reach
    the same tableau."""
    buckets: dict[int, list] = {}
    tableaux = (u for alpha in compositions(n) for u in standard_tableaux(alpha, "immaculate"))
    for index, u in enumerate(tableaux):
        word = immaculate_reading_word(u)
        buckets.setdefault(word[0], []).append((index, u, word))
    for bucket in buckets.values():
        memo: dict = {}
        for index, u, word in bucket:
            rows: tuple = ()
            cases, failures = 0, []
            for k in word:
                entry = memo.get((rows, k))
                if entry is None:
                    entry = memo[rows, k] = _insert_step(rows, k, check)
                step, ok, step_cases, step_failures = entry
                cases += step_cases
                failures += step_failures
                if not ok:
                    break
                rows = step
            yield index, u, rows, cases, failures


def verify_inverse(max_n: int) -> SuiteResult:
    """Both compositions of insertion and rapture are identities with
    mirrored bumping paths and escape routes, on every tableau arising
    while inserting every immaculate reading word.  The unchecked cores run
    here.  Each distinct (tableau, letter) insertion is checked once per
    degree and first letter, and its result is replayed for each word that
    repeats it, so cases count every insertion of every word.  Failures
    are reported per degree in word order."""
    result = SuiteResult("inverse", max_n)
    for n in range(1, max_n + 1):
        failed = []
        for index, _, _, cases, failures in _walk_reading_words(n, check=True):
            result.cases += cases
            if failures:
                failed.append((index, failures))
        for _, failures in sorted(failed):
            result.failures += failures
    return result


def verify_descents(max_n: int) -> SuiteResult:
    """Insertion carries the immaculate descent set of the input tableau to
    the Young descent set of the inserted tableau."""
    result = SuiteResult("descents", max_n)
    for n in range(1, max_n + 1):
        failed = []
        for index, u, p, _, _ in _walk_reading_words(n, check=False):
            result.cases += 1
            if young_descent_set(p) != immaculate_descent_set(u):
                failed.append((index, f"descents differ for {u}"))
        result.failures += [message for _, message in sorted(failed)]
    return result


def verify_triple_agreement(max_n: int) -> SuiteResult:
    """Three computations of the same coefficient table coincide: insertion
    shape multisets, direct recording-tableau counts, and forward tree
    leaves; dually, dual tree leaves match the transposed counts.  Each
    distinct recording tableau is checked once to be a DIRT of row strip
    shape reverse(alpha), and reported for the first word that records it."""
    result = SuiteResult("triple-agreement", max_n)
    for n in range(0, max_n + 1):
        for alpha in compositions(n):
            recording: set = set()
            for u in standard_tableaux(alpha, "immaculate"):
                p, q = insert_word(immaculate_reading_word(u))
                if q not in recording:
                    recording.add(q)
                    if not is_dirt(q) or row_strip_shape(q) != reverse(alpha):
                        result.fail(f"bad recording tableau for {u}")
                if shape_of(p) != shape_of(q):
                    result.fail(f"shape mismatch for {u}")
            by_insertion = dict(Counter(shape_of(q) for q in recording))
            counted = dimm_to_yqs(alpha).coeffs
            forward = rw_forward(alpha)[1].coeffs
            result.cases += 1
            if not (by_insertion == counted == forward):
                result.fail(
                    f"coefficient tables differ at {alpha}: "
                    f"{by_insertion} vs {counted} vs {forward}"
                )
            result.cases += 1
            if rw_dual(alpha)[1].coeffs != yns_to_imm(alpha).coeffs:
                result.fail(f"dual tree disagrees at {alpha}")
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
    small product witnesses that the dual immaculate basis lacks this."""
    result = SuiteResult("positivity", max_n)
    for total in range(2, max_n + 1):
        for k in range(1, total):
            for lam in partitions(k):
                s = schur_m_expansion(lam)
                for alpha in compositions(total - k):
                    table = expand_in(quasi_shuffle(s, dual_immaculate_mexpr(alpha)), YOUNG_QS)
                    result.cases += 1
                    if any(c < 0 for c in table.coeffs.values()):
                        result.fail(f"negative coefficient for s_{lam} * {alpha}")
    witness = expand_in(
        quasi_shuffle(schur_m_expansion((2, 1)), dual_immaculate_mexpr((1,))),
        DUAL_IMMACULATE,
    )
    result.cases += 1
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
            # yqs_to_dimm checks the DIRT table is unitriangular and inverts it.
            if yqs_to_dimm(alpha) != expand_in(young_qs_mexpr(alpha), DUAL_IMMACULATE):
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


def verify_round_trip(max_n: int) -> SuiteResult:
    """uninsert inverts insert_word on every permutation of 1..n."""
    result = SuiteResult("round-trip", max_n)
    for n in range(1, max_n + 1):
        for word in permutations(range(1, n + 1)):
            result.cases += 1
            try:
                back = uninsert(*insert_word(word))
            except ValueError as exc:
                result.fail(f"uninsert rejected the insertion of {word}: {exc}")
                continue
            if back != word:
                result.fail(f"uninsert(insert_word({word})) gave {back}")
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
    "inverse": 8,
    "descents": 8,
    "triple-agreement": 8,
    "symmetry": 8,
    "positivity": 7,
    "dominance": 8,
    "round-trip": 7,
}


def run_suite(name: str, max_n: int) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](max_n)
