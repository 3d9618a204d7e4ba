"""Compositions of a nonnegative integer.

A composition is represented as a plain tuple of positive ints; the empty
tuple is the unique composition of 0.  Functions here are the shared
vocabulary for everything else in the package: subset encodings, refinement,
dominance, and deterministic enumeration.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from operator import sub

Composition = tuple[int, ...]


def _check_count(name: str, value) -> None:
    # The package's one integer rule: exactly int, so bool, IntEnum and
    # other int subclasses are refused, and the typed caches never see them.
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def _parse_int(text: str) -> int:
    """An integer written as an optional '-' and ASCII digits, spaces around
    it allowed.  Python's int also takes '1_0', '+1' and non-ASCII digits."""
    if re.fullmatch(r"-?[0-9]+", text.strip()) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def check_composition(alpha) -> Composition:
    """Return alpha as a tuple after validating that all parts are >= 1."""
    parts = tuple(alpha)
    for p in parts:
        if type(p) is not int or p < 1:
            raise ValueError(f"composition parts must be positive integers, got {parts!r}")
    return parts


def size(alpha: Composition) -> int:
    return sum(alpha)


def reverse(alpha: Composition) -> Composition:
    return tuple(reversed(alpha))


def to_string(alpha: Composition) -> str:
    """Comma-separated parts; the empty composition serializes to ''."""
    return ",".join(str(p) for p in alpha)


def from_string(text: str) -> Composition:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(_parse_int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse composition from {text!r}") from None
    return check_composition(parts)


def composition_to_subset(alpha: Composition) -> frozenset[int]:
    """Proper partial sums of alpha, a subset of {1, ..., n-1}."""
    out, total = [], 0
    for p in alpha[:-1]:
        total += p
        out.append(total)
    return frozenset(out)


def subset_to_composition(subset, n: int) -> Composition:
    """Inverse of composition_to_subset for subsets of {1, ..., n-1}."""
    _check_count("n", n)
    marks = list(subset)
    for m in marks:
        if type(m) is not int:
            raise ValueError(f"subset elements must be integers, got {m!r}")
    marks.sort()
    if marks and (marks[0] < 1 or marks[-1] > n - 1):
        raise ValueError(f"subset {marks} not contained in {{1..{n - 1}}}")
    if len(set(marks)) != len(marks):
        raise ValueError("subset has repeated elements")
    if n == 0:
        return ()
    prev, parts = 0, []
    for m in marks:
        parts.append(m - prev)
        prev = m
    parts.append(n - prev)
    return tuple(parts)


@lru_cache(maxsize=None, typed=True)
def compositions(n: int, length: int | None = None) -> tuple[Composition, ...]:
    """All compositions of n, largest-first-part first (lexicographically
    decreasing).  With length given, only those with that many parts,
    enumerated as one block; without, each first part k from n down to 1
    followed by the compositions of n - k, cached, so each smaller n is
    built once."""
    _check_count("n", n)
    if length is None:
        if n == 0:
            return ((),)
        return tuple([(k,) + rest for k in range(n, 0, -1) for rest in compositions(n - k)])
    _check_count("length", length)
    if length == 0 or length > n:
        return ((),) if n == length else ()
    # A block is the sets of length - 1 cuts in {1..n-1}, in reverse lex
    # order: cut tuples of one length order as their compositions do.  The
    # parts are the differences of consecutive cuts, with 0 and n as ends.
    cuts = reversed(list(itertools.combinations(range(1, n), length - 1)))
    return tuple([tuple(map(sub, c + (n,), (0,) + c)) for c in cuts])


@lru_cache(maxsize=None, typed=True)
def partitions(n: int) -> tuple[Composition, ...]:
    """All partitions of n (weakly decreasing compositions), lexicographically
    decreasing."""
    _check_count("n", n)

    def gen(remaining: int, biggest: int) -> list[Composition]:
        if remaining == 0:
            return [()]
        out = []
        for first in range(min(remaining, biggest), 0, -1):
            out.extend((first,) + rest for rest in gen(remaining - first, first))
        return out

    return tuple(gen(n, n))


def is_partition(alpha: Composition) -> bool:
    return all(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1))


def refinements(alpha: Composition) -> tuple[Composition, ...]:
    """All compositions obtained by splitting parts of alpha in place.

    The count is the product of 2**(p-1) over the parts p.
    """
    choices = [compositions(p) for p in alpha]
    out = []
    for combo in itertools.product(*choices):
        out.append(tuple(itertools.chain.from_iterable(combo)))
    return tuple(out)


def coarsenings(alpha: Composition) -> tuple[Composition, ...]:
    """All compositions that alpha refines (merging adjacent parts)."""
    n = len(alpha)
    if n == 0:
        return ((),)
    out = []
    # Each subset of the n-1 gaps marks where a new part starts.
    for mask in range(1 << (n - 1)):
        parts, run = [], alpha[0]
        for i in range(1, n):
            if mask >> (i - 1) & 1:
                parts.append(run)
                run = alpha[i]
            else:
                run += alpha[i]
        parts.append(run)
        out.append(tuple(parts))
    return tuple(dict.fromkeys(out))


def refines(beta: Composition, alpha: Composition) -> bool:
    """True if beta can be obtained by splitting parts of alpha."""
    it = iter(beta)
    for p in alpha:
        total = 0
        while total < p:
            try:
                total += next(it)
            except StopIteration:
                return False
        if total != p:
            return False
    return next(it, None) is None


def dominates(alpha: Composition, beta: Composition) -> bool:
    """Prefix-sum dominance.  Both arguments must be compositions of the same
    integer; missing prefix sums count as 0 on the shorter side."""
    if size(alpha) != size(beta):
        raise ValueError("dominance compares compositions of the same integer")
    total_a = total_b = 0
    for i in range(max(len(alpha), len(beta))):
        total_a += alpha[i] if i < len(alpha) else 0
        total_b += beta[i] if i < len(beta) else 0
        if total_a < total_b:
            return False
    return True


def is_rearrangement(alpha: Composition, beta: Composition) -> bool:
    return sorted(alpha) == sorted(beta)


def rearrangements(alpha: Composition) -> tuple[Composition, ...]:
    """Distinct orderings of the parts of alpha, lexicographically decreasing:
    each distinct part, largest first, followed by the orderings of the rest."""
    parts = sorted(alpha, reverse=True)
    if not parts:
        return ((),)
    return tuple((p,) + rest for i, p in enumerate(parts) if i == 0 or p != parts[i - 1]
                 for rest in rearrangements(parts[:i] + parts[i + 1:]))
