"""Exact arithmetic for quasisymmetric functions of one degree.

Everything reduces to the monomial basis: an MExpr maps compositions of a
fixed degree to integer coefficients.  Fundamental expansions come from
descent sets of standard fillings, products from the quasi-shuffle rule, and
changes of basis from integer leading-term peeling: both Schur-like bases are
unitriangular in monomial coordinates under lexicographic order, which is
checked on every element used rather than assumed.  Between the two
Schur-like bases the DIRT counts give the table directly, and the same
checked peel inverts it.  Bases dual to these live in the noncommutative
world and are handled purely as coefficient tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache
from math import comb

from .compositions import (
    Composition,
    check_composition,
    compositions,
    from_string,
    partitions,
    rearrangements,
    refinements,
    reverse,
    subset_to_composition,
    to_string,
)
from .dirt import _dirts
from .tableaux import (
    immaculate_descent_set,
    standard_tableaux,
    weighted_tableaux,
    young_descent_set,
)

MONOMIAL = "monomial"
FUNDAMENTAL = "fundamental"
YOUNG_QS = "young-qs"
DUAL_IMMACULATE = "dual-immaculate"
IMMACULATE = "immaculate"
YOUNG_NCSCHUR = "young-ncschur"

BASES = frozenset(
    {MONOMIAL, FUNDAMENTAL, YOUNG_QS, DUAL_IMMACULATE, IMMACULATE, YOUNG_NCSCHUR}
)


class MExpr:
    """A quasisymmetric function of fixed degree in monomial coordinates."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: dict[Composition, int] | None = None):
        if not isinstance(degree, int) or degree < 0:
            raise ValueError("degree must be a nonnegative integer")
        clean: dict[Composition, int] = {}
        for alpha, c in (coeffs or {}).items():
            alpha = check_composition(alpha)
            if sum(alpha) != degree:
                raise ValueError(f"{alpha} is not a composition of {degree}")
            if not isinstance(c, int):
                raise ValueError("coefficients must be integers")
            if c:
                clean[alpha] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MExpr is immutable")

    def coefficient(self, alpha: Composition) -> int:
        return self.coeffs.get(tuple(alpha), 0)

    def items(self):
        return self.coeffs.items()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MExpr)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.coeffs.items())))

    def __add__(self, other: "MExpr") -> "MExpr":
        if not isinstance(other, MExpr):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("cannot add expressions of different degrees")
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            out[alpha] = out.get(alpha, 0) + c
        return MExpr(self.degree, out)

    def __neg__(self) -> "MExpr":
        return MExpr(self.degree, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other: "MExpr") -> "MExpr":
        if not isinstance(other, MExpr):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return MExpr(self.degree, {a: c * other for a, c in self.coeffs.items()})
        if isinstance(other, MExpr):
            return quasi_shuffle(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        if not self.coeffs:
            return f"MExpr({self.degree}, 0)"
        ordered = sorted(self.coeffs.items(), key=lambda kv: tuple(-p for p in kv[0]))
        return " + ".join(f"{c}*M({to_string(a)})" for a, c in ordered)


def monomial(alpha: Composition) -> MExpr:
    alpha = check_composition(alpha)
    return MExpr(sum(alpha), {alpha: 1})


@dataclass(frozen=True)
class BasisExpansion:
    """Integer coefficients of one element against one named basis."""

    basis: str
    degree: int
    coeffs: dict[Composition, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis tag {self.basis!r}")
        clean = {}
        for alpha, c in self.coeffs.items():
            alpha = check_composition(alpha)
            if sum(alpha) != self.degree:
                raise ValueError(f"{alpha} is not a composition of {self.degree}")
            if c:
                clean[alpha] = int(c)
        object.__setattr__(self, "coeffs", clean)

    def coefficient(self, alpha: Composition) -> int:
        return self.coeffs.get(tuple(alpha), 0)

    def to_json_obj(self) -> dict:
        ordered = {
            to_string(alpha): self.coeffs[alpha]
            for alpha in compositions(self.degree)
            if alpha in self.coeffs
        }
        return {"basis": self.basis, "degree": self.degree, "coeffs": ordered}

    @staticmethod
    def from_json_obj(obj: dict) -> "BasisExpansion":
        coeffs = {from_string(k): int(v) for k, v in obj["coeffs"].items()}
        return BasisExpansion(obj["basis"], int(obj["degree"]), coeffs)


def f_to_m(alpha: Composition) -> MExpr:
    """The fundamental element indexed by alpha, in monomial coordinates."""
    alpha = check_composition(alpha)
    return MExpr(sum(alpha), {beta: 1 for beta in refinements(alpha)})


def m_to_f(f: MExpr) -> BasisExpansion:
    """Rewrite monomial coordinates in the fundamental basis.

    Uses the inclusion-exclusion inverse of the refinement sum: a single
    monomial element equals the signed sum of fundamentals over its
    refinements, with sign given by the length difference.
    """
    out: dict[Composition, int] = {}
    for gamma, c in f.items():
        for alpha in refinements(gamma):
            sign = -1 if (len(alpha) - len(gamma)) % 2 else 1
            out[alpha] = out.get(alpha, 0) + sign * c
    return BasisExpansion(FUNDAMENTAL, f.degree, out)


# The filling kind whose standard tableaux give each Schur-like basis its
# fundamental expansion, and the descent set read off each such tableau.
_FILLINGS = {
    YOUNG_QS: ("ssyct", young_descent_set),
    DUAL_IMMACULATE: ("immaculate", immaculate_descent_set),
}


def _f_expansion(basis: str, alpha: Composition) -> BasisExpansion:
    kind, descents = _FILLINGS[basis]
    alpha = check_composition(alpha)
    n = sum(alpha)
    out: dict[Composition, int] = {}
    for t in standard_tableaux(alpha, kind):
        beta = subset_to_composition(descents(t), n)
        out[beta] = out.get(beta, 0) + 1
    return BasisExpansion(FUNDAMENTAL, n, out)


def _mexpr(basis: str, alpha: Composition) -> MExpr:
    expansion = _f_expansion(basis, alpha)
    out: dict[Composition, int] = {}
    for beta, c in expansion.coeffs.items():
        for gamma in refinements(beta):
            out[gamma] = out.get(gamma, 0) + c
    return MExpr(expansion.degree, out)


def yqs_f_expansion(alpha: Composition) -> BasisExpansion:
    """Fundamental expansion of a Young quasisymmetric Schur element, by
    bucketing standard tableaux of the shape over their descent sets."""
    return _f_expansion(YOUNG_QS, alpha)


def dimm_f_expansion(alpha: Composition) -> BasisExpansion:
    """Fundamental expansion of a dual immaculate element."""
    return _f_expansion(DUAL_IMMACULATE, alpha)


@cache
def young_qs_mexpr(alpha: Composition) -> MExpr:
    return _mexpr(YOUNG_QS, alpha)


@cache
def dual_immaculate_mexpr(alpha: Composition) -> MExpr:
    return _mexpr(DUAL_IMMACULATE, alpha)


def monomial_coefficient_oracle(basis: str, alpha: Composition, gamma: Composition) -> int:
    """Monomial coefficient at gamma computed by direct filling counts,
    independent of any descent-set bookkeeping."""
    if basis not in _FILLINGS:
        raise ValueError(f"no filling model for basis {basis!r}")
    alpha = check_composition(alpha)
    gamma = check_composition(gamma)
    if sum(alpha) != sum(gamma):
        raise ValueError("degree mismatch between shape and weight")
    return len(weighted_tableaux(alpha, _FILLINGS[basis][0], gamma))


def schur_m_expansion(lam: Composition) -> MExpr:
    """A Schur symmetric function in monomial coordinates: the sum of Young
    quasisymmetric Schur elements over all rearrangements of the partition."""
    lam = check_composition(lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("Schur elements are indexed by partitions")
    total = MExpr(sum(lam))
    for alpha in rearrangements(lam):
        total = total + young_qs_mexpr(alpha)
    return total


@cache
def _shuffle_pair(u: Composition, v: Composition) -> tuple[tuple[Composition, int], ...]:
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out: dict[Composition, int] = {}
    for tail, c in _shuffle_pair(u[1:], v):
        key = (u[0],) + tail
        out[key] = out.get(key, 0) + c
    for tail, c in _shuffle_pair(u, v[1:]):
        key = (v[0],) + tail
        out[key] = out.get(key, 0) + c
    for tail, c in _shuffle_pair(u[1:], v[1:]):
        key = (u[0] + v[0],) + tail
        out[key] = out.get(key, 0) + c
    return tuple(sorted(out.items()))


def quasi_shuffle(f: MExpr, g: MExpr) -> MExpr:
    """Product of two monomial-coordinate expressions: parts of the two index
    compositions interleave in order, with adjacent parts optionally merged."""
    out: dict[Composition, int] = {}
    for u, cu in f.items():
        for v, cv in g.items():
            for w, m in _shuffle_pair(u, v):
                out[w] = out.get(w, 0) + cu * cv * m
    return MExpr(f.degree + g.degree, out)


def _peel(rest: dict[Composition, int], element, basis: str) -> dict[Composition, int]:
    # Coefficients of rest, which is used up, against the basis whose element
    # at alpha has the terms element(alpha).  The lex-largest remaining term
    # alpha, with coefficient c, gives coefficient c at alpha, and c times
    # element(alpha) is subtracted, until nothing is left.  An element whose
    # lex-largest term is not alpha with coefficient 1 raises RuntimeError.
    out: dict[Composition, int] = {}
    while rest:
        alpha = max(rest)
        c = out[alpha] = rest[alpha]
        terms = element(alpha)
        lead = max(terms, default=None)
        if lead != alpha or terms[lead] != 1:
            raise RuntimeError(
                f"{basis} element at {to_string(alpha)} is not unitriangular")
        for gamma, x in terms.items():
            left = rest.get(gamma, 0) - c * x
            if left:
                rest[gamma] = left
            else:
                rest.pop(gamma, None)
    return out


def expand_in(f: MExpr, basis: str) -> BasisExpansion:
    """Exact integer coefficients of f against the named basis of its degree.

    The fundamental case has a closed-form inverse.  The two Schur-like bases
    are unitriangular in monomial coordinates under lexicographic order, so f
    is peeled against their monomial expansions, each checked (see _peel).
    yqs_to_dimm peels the DIRT-count table instead, with no monomials.
    """
    if basis == MONOMIAL:
        return BasisExpansion(MONOMIAL, f.degree, dict(f.coeffs))
    if basis == FUNDAMENTAL:
        return m_to_f(f)
    if basis not in _FILLINGS:
        raise ValueError(f"cannot expand in basis {basis!r}")
    element = young_qs_mexpr if basis == YOUNG_QS else dual_immaculate_mexpr
    return BasisExpansion(
        basis, f.degree, _peel(dict(f.coeffs), lambda alpha: element(alpha).coeffs, basis))


def is_symmetric(f: MExpr) -> bool:
    """True when coefficients are constant across rearrangement classes."""
    seen: set[Composition] = set()
    for alpha in f.coeffs:
        key = tuple(sorted(alpha, reverse=True))
        if key in seen:
            continue
        seen.add(key)
        ref = f.coefficient(key)
        if any(f.coefficient(beta) != ref for beta in rearrangements(key)):
            return False
    return True


@cache
def _dirt_counts(n: int, ell: int) -> dict[Composition, dict[Composition, int]]:
    # Recording-tableau counts by row strip shape, then by shape, over the
    # compositions of n with ell parts: one DIRT walk per strip shape.  Row
    # reverse(alpha) is dual immaculate alpha in Young quasisymmetric Schur terms.
    table = {}
    for strips in compositions(n, ell):
        counts = table[strips] = {}
        for rows in _dirts(strips):
            shape = tuple(map(len, rows))
            counts[shape] = counts.get(shape, 0) + 1
    return table


def dimm_to_yqs(alpha: Composition) -> BasisExpansion:
    """Young quasisymmetric Schur expansion of a dual immaculate element:
    the coefficient at beta counts recording tableaux of shape beta whose row
    strip shape is the reverse of alpha."""
    alpha = check_composition(alpha)
    n = sum(alpha)
    row = _dirt_counts(n, len(alpha))[reverse(alpha)]
    return BasisExpansion(YOUNG_QS, n, {beta: row.get(beta, 0)
                                        for beta in compositions(n, len(alpha))})


def yqs_to_dimm(alpha: Composition) -> BasisExpansion:
    """Dual immaculate expansion of a Young quasisymmetric Schur element:
    the DIRT-count table of dimm_to_yqs inverted by peeling, which checks
    that the table is unitriangular (see _peel)."""
    alpha = check_composition(alpha)
    table = _dirt_counts(sum(alpha), len(alpha))
    return BasisExpansion(DUAL_IMMACULATE, sum(alpha), _peel(
        {alpha: 1}, lambda beta: table[reverse(beta)], DUAL_IMMACULATE))


def yns_to_imm(alpha: Composition) -> BasisExpansion:
    """Immaculate expansion of a Young noncommutative Schur element: the
    transpose of the dual immaculate coefficient table."""
    alpha = check_composition(alpha)
    n = sum(alpha)
    table = _dirt_counts(n, len(alpha))
    out = {beta: table[reverse(beta)].get(alpha, 0)
           for beta in compositions(n, len(alpha))}
    return BasisExpansion(IMMACULATE, n, out)


def principal_specialization(f: MExpr, m: int) -> int:
    """Value after substituting 1 for the first m variables and 0 beyond:
    each monomial element contributes a binomial count of support sets."""
    if not isinstance(m, int) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    return sum(c * comb(m, len(alpha)) for alpha, c in f.items())


def _is_ones_then_tail(alpha: Composition) -> bool:
    return all(p == 1 for p in alpha[:-1]) if alpha else False


def _sign(perm: tuple[int, ...]) -> int:
    n = len(perm)
    return (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))


def check_conjectures(n: int) -> dict:
    """Empirical report on the two open expansion conjectures at degree n.

    Computes every Young quasisymmetric Schur element in the dual immaculate
    basis by inverting the DIRT-count table (yqs_to_dimm), so no monomial
    expansion is built.  Reports whether all coefficients stay in {-1, 0, 1},
    whether the coefficient sums are 1 exactly on reversed hooks (all parts 1
    except the last) and 0 elsewhere, and whether each distinct-part
    partition's table is the signed sum of its rearrangements; a violation
    of that rule reports, in monomial coordinates, that signed sum minus the
    element.  Findings are returned, never raised.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("degree must be a positive integer")
    bounded_violations: list[dict] = []
    sum_violations: list[dict] = []
    expansions: dict[str, dict[str, int]] = {}
    tables = {alpha: yqs_to_dimm(alpha).coeffs for alpha in compositions(n)}
    for alpha, table in tables.items():
        expansions[to_string(alpha)] = {
            to_string(beta): table[beta] for beta in compositions(n) if beta in table}
        for beta, b in table.items():
            if b not in (-1, 0, 1):
                bounded_violations.append(
                    {"alpha": to_string(alpha), "beta": to_string(beta), "value": b})
        total = sum(table.values())
        want = 1 if _is_ones_then_tail(alpha) else 0
        if total != want:
            sum_violations.append({"alpha": to_string(alpha), "sum": total, "expected": want})
    alternating_violations: list[dict] = []
    checked: list[str] = []
    for lam in partitions(n):
        if len(set(lam)) != len(lam):
            continue
        checked.append(to_string(lam))
        signs = {tuple(lam[i] for i in perm): _sign(perm)
                 for perm in itertools.permutations(range(len(lam)))}
        table = tables[lam]
        if table != signs:
            difference = sum(
                ((signs.get(beta, 0) - table.get(beta, 0)) * dual_immaculate_mexpr(beta)
                 for beta in sorted(signs.keys() | table.keys(), reverse=True)), MExpr(n))
            alternating_violations.append({
                "lambda": to_string(lam),
                "difference": {to_string(g): c for g, c in difference.items()},
            })
    return {
        "degree": n,
        "bounded": {"holds": not bounded_violations, "violations": bounded_violations},
        "sum_rule": {"holds": not sum_violations, "violations": sum_violations},
        "alternating": {
            "holds": not alternating_violations,
            "checked": checked,
            "violations": alternating_violations,
        },
        "expansions": expansions,
    }
