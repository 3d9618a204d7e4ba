"""Exact arithmetic for quasisymmetric functions of one degree.

Everything reduces to the monomial basis.  One type, BasisExpansion, holds
every element: integer coefficients on the compositions of one degree,
tagged with the basis they are taken against.  Fundamental expansions come
from standard fillings counted by descent set, monomial ones from those
counts by subset sums over only the masks the result has, products from
the quasi-shuffle rule, and changes of basis from one integer leading-term
peel in lexicographic order: both Schur-like bases are unitriangular in
monomial coordinates under that order, and unitriangularity is checked on
every element used rather than assumed.  quasi_shuffle follows the terms
of each pair's shuffle, so sparse products of any degree stay small.  For
the basis changes, monomial coordinates are packed: an element of degree n
is one int whose field j holds, as a balanced digit, the coefficient at
lex index j of compositions(n).  Each pair's shuffle is packed from its
three tails' by shifts, a product is one multiply-add per pair of terms
and a peel step one subtraction of a whole packed row; a packed result is
used only once bounds show that no field overflowed, and is computed again
at a wider field otherwise.
Between the two Schur-like bases the DIRT counts give each row directly,
and a list peel over the lex index of compositions(n, len(alpha)) inverts
them, counting only the rows it pivots on.  It is not packed: those rows
are sparse in that wide block, so a packed row would be mostly empty
fields.  In the dual, noncommutative world, a Young noncommutative Schur
element expands in the immaculate basis by the paper's dual rule, counted
over row-length states as the DIRTs are.  Inputs are validated where they enter;
expansions the package builds from checked inputs are not validated again.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from math import comb
from types import MappingProxyType

from .compositions import (
    Composition,
    check_composition,
    compositions,
    from_string,
    is_partition,
    partitions,
    rearrangements,
    refinements,
    to_string,
)
from .tableaux import _descent_counts, weighted_tableaux

MONOMIAL = "monomial"
FUNDAMENTAL = "fundamental"
YOUNG_QS = "young-qs"
DUAL_IMMACULATE = "dual-immaculate"
IMMACULATE = "immaculate"
YOUNG_NCSCHUR = "young-ncschur"

BASES = frozenset(
    {MONOMIAL, FUNDAMENTAL, YOUNG_QS, DUAL_IMMACULATE, IMMACULATE, YOUNG_NCSCHUR}
)


class NotUnitriangularError(RuntimeError):
    """A peel met an element that is not unitriangular: a table the package
    built breaks the fact its basis changes rely on."""


class BasisExpansion:
    """Integer coefficients of one element against one named basis of one
    degree, the package's one coefficient type.  Expansions of a basis and
    degree add and subtract, any expansion scales by an int, and monomial
    expansions multiply by the quasi-shuffle.  The fields are frozen and
    coeffs is a read-only view, so the cached expansions can be shared
    safely; an omitted coeffs is the zero element."""

    __slots__ = ("basis", "degree", "coeffs")

    def __init__(self, basis: str, degree: int, coeffs: dict[Composition, int] | None = None):
        if type(basis) is not str or basis not in BASES:
            raise ValueError(f"unknown basis tag {basis!r}")
        if type(degree) is not int or degree < 0:
            raise ValueError(f"degree must be a nonnegative integer, got {degree!r}")
        clean = {}
        for alpha, c in (coeffs.items() if coeffs is not None else ()):
            alpha = check_composition(alpha)
            if sum(alpha) != degree:
                raise ValueError(f"{alpha} is not a composition of {degree}")
            if type(c) is not int:
                raise ValueError(f"coefficients must be integers, got {c!r}")
            if c:
                clean[alpha] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    @classmethod
    def _built(cls, basis: str, degree: int, coeffs: dict[Composition, int]) -> "BasisExpansion":
        # For coefficients the package computed from checked inputs: the
        # keys are compositions of degree and the values ints, so only the
        # zeros are dropped, and nothing is validated again.
        self = object.__new__(cls)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", MappingProxyType({a: c for a, c in coeffs.items() if c}))
        return self

    def coefficient(self, alpha: Composition) -> int:
        return self.coeffs.get(tuple(alpha), 0)

    def items(self):
        return self.coeffs.items()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return BasisExpansion._built, (self.basis, self.degree, dict(self.coeffs))

    def __repr__(self):
        return f"BasisExpansion(basis={self.basis!r}, degree={self.degree!r}, coeffs={self.coeffs!r})"

    def __eq__(self, other):
        if not isinstance(other, BasisExpansion):
            return NotImplemented
        return (self.basis, self.degree, self.coeffs) == (other.basis, other.degree, other.coeffs)

    def __hash__(self):
        return hash((self.basis, self.degree, frozenset(self.coeffs.items())))

    def __add__(self, other: "BasisExpansion") -> "BasisExpansion":
        if not isinstance(other, BasisExpansion):
            return NotImplemented
        if (self.basis, self.degree) != (other.basis, other.degree):
            raise ValueError("cannot add expansions of different bases or degrees")
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            out[alpha] = out.get(alpha, 0) + c
        return BasisExpansion._built(self.basis, self.degree, out)

    def __neg__(self) -> "BasisExpansion":
        return self * -1

    def __sub__(self, other: "BasisExpansion") -> "BasisExpansion":
        if not isinstance(other, BasisExpansion):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is int:
            return BasisExpansion._built(
                self.basis, self.degree, {a: c * other for a, c in self.coeffs.items()})
        if isinstance(other, BasisExpansion):
            return quasi_shuffle(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def to_json_obj(self) -> dict:
        # compositions(n) order: lexicographically decreasing.
        ordered = {to_string(alpha): self.coeffs[alpha]
                   for alpha in sorted(self.coeffs, reverse=True)}
        return {"basis": self.basis, "degree": self.degree, "coeffs": ordered}

    @staticmethod
    def from_json_obj(obj: dict) -> "BasisExpansion":
        """Inverse of to_json_obj; raises ValueError on any malformed object."""
        if not isinstance(obj, dict) or not {"basis", "degree", "coeffs"} <= obj.keys():
            raise ValueError("expected an object with 'basis', 'degree' and 'coeffs' fields")
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, dict) or not all(isinstance(k, str) for k in coeffs):
            raise ValueError("coeffs must be an object keyed by composition strings")
        coeffs = {from_string(k): v for k, v in coeffs.items()}
        return BasisExpansion(obj["basis"], obj["degree"], coeffs)


def _monomial_only(*fs: BasisExpansion) -> None:
    for f in fs:
        if f.basis != MONOMIAL:
            raise ValueError(f"expected a monomial expansion, got basis {f.basis!r}")


def monomial(alpha: Composition) -> BasisExpansion:
    alpha = check_composition(alpha)
    return BasisExpansion(MONOMIAL, sum(alpha), {alpha: 1})


def f_to_m(alpha: Composition) -> BasisExpansion:
    """The fundamental element indexed by alpha, in monomial coordinates."""
    alpha = check_composition(alpha)
    return BasisExpansion(MONOMIAL, sum(alpha), {beta: 1 for beta in refinements(alpha)})


def m_to_f(f: BasisExpansion) -> BasisExpansion:
    """Rewrite monomial coordinates in the fundamental basis.

    Uses the inclusion-exclusion inverse of the refinement sum: a single
    monomial element equals the signed sum of fundamentals over its
    refinements, with sign given by the length difference.
    """
    _monomial_only(f)
    out: dict[Composition, int] = {}
    for gamma, c in f.items():
        for alpha in refinements(gamma):
            sign = -1 if (len(alpha) - len(gamma)) % 2 else 1
            out[alpha] = out.get(alpha, 0) + sign * c
    return BasisExpansion(FUNDAMENTAL, f.degree, out)


# The filling kind whose standard tableaux give each Schur-like basis its
# fundamental expansion.
_FILLINGS = {YOUNG_QS: "ssyct", DUAL_IMMACULATE: "immaculate"}


@cache
def _mask_composition(mask: int, n: int) -> Composition:
    # The composition of n whose descent set the mask spells: bit n-1-i is
    # descent i (see _descent_counts).  Degree 0 has the one composition ().
    # Cached, so the expansions share one tuple per composition they use.
    parts, prev = [], 0
    for i in range(1, n):
        if mask >> (n - 1 - i) & 1:
            parts.append(i - prev)
            prev = i
    return (*parts, n - prev) if n else ()


def _f_expansion(basis: str, alpha: Composition) -> tuple[int, dict[Composition, int]]:
    # (degree, fundamental coefficients) at alpha; alpha must be checked first.
    n = sum(alpha)
    return n, {_mask_composition(m, n): c
               for m, c in _descent_counts(alpha, _FILLINGS[basis]).items()}


@cache
def _mexpr(basis: str, alpha: Composition) -> BasisExpansion:
    # alpha must be checked first: the cache takes (True, 1) for (1, 1).
    # F_beta is the sum of M_gamma over the gamma whose descent sets contain
    # beta's, so the fundamental counts by descent mask are summed over
    # subsets one bit at a time.  Only masks that contain some fundamental
    # mask are ever written, so every pass touches at most as many entries
    # as the result has terms, however many bits n - 1 has.  A larger mask
    # is a lex-smaller composition, so ascending masks give the terms in
    # compositions(n) order.
    n = sum(alpha)
    sums = _descent_counts(alpha, _FILLINGS[basis])
    for b in range(n - 1):
        bit = 1 << b
        for m in [m for m in sums if not m & bit]:
            sums[m | bit] = sums.get(m | bit, 0) + sums[m]
    return BasisExpansion._built(
        MONOMIAL, n, {_mask_composition(m, n): sums[m] for m in sorted(sums)})


def yqs_f_expansion(alpha: Composition) -> BasisExpansion:
    """Fundamental expansion of a Young quasisymmetric Schur element: the
    standard tableaux of the shape counted by descent set."""
    return BasisExpansion._built(FUNDAMENTAL, *_f_expansion(YOUNG_QS, check_composition(alpha)))


def dimm_f_expansion(alpha: Composition) -> BasisExpansion:
    """Fundamental expansion of a dual immaculate element."""
    return BasisExpansion._built(
        FUNDAMENTAL, *_f_expansion(DUAL_IMMACULATE, check_composition(alpha)))


def young_qs_mexpr(alpha: Composition) -> BasisExpansion:
    return _mexpr(YOUNG_QS, check_composition(alpha))


def dual_immaculate_mexpr(alpha: Composition) -> BasisExpansion:
    return _mexpr(DUAL_IMMACULATE, check_composition(alpha))


def monomial_coefficient_oracle(basis: str, alpha: Composition, gamma: Composition) -> int:
    """Monomial coefficient at gamma computed by direct filling counts,
    independent of any descent-set bookkeeping."""
    if basis not in _FILLINGS:
        raise ValueError(f"no filling model for basis {basis!r}")
    fillings = weighted_tableaux(alpha, _FILLINGS[basis], gamma)
    if sum(alpha) != sum(gamma):
        raise ValueError("degree mismatch between shape and weight")
    return len(fillings)


def schur_m_expansion(lam: Composition) -> BasisExpansion:
    """A Schur symmetric function in monomial coordinates: the sum of Young
    quasisymmetric Schur elements over all rearrangements of the partition."""
    lam = check_composition(lam)
    if not is_partition(lam):
        raise ValueError("Schur elements are indexed by partitions")
    total = BasisExpansion(MONOMIAL, sum(lam))
    for alpha in rearrangements(lam):
        total = total + _mexpr(YOUNG_QS, alpha)
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


def quasi_shuffle(f: BasisExpansion, g: BasisExpansion) -> BasisExpansion:
    """Product of two monomial expansions: parts of the two index
    compositions interleave in order, with adjacent parts optionally merged.

    One dict update per term of each pair's shuffle (_shuffle_pair), so the
    work follows the terms, not the compositions of the degree, and sparse
    inputs of any degree multiply cheaply.  The terms come out in
    compositions(n) order."""
    _monomial_only(f, g)
    out: dict[Composition, int] = {}
    for u, cu in f.items():
        for v, cv in g.items():
            for w, m in _shuffle_pair(u, v):
                out[w] = out.get(w, 0) + cu * cv * m
    return BasisExpansion._built(
        MONOMIAL, f.degree + g.degree, {w: out[w] for w in sorted(out, reverse=True)})


@cache
def _lex_index(n: int, ell: int | None) -> dict[Composition, int]:
    # Each composition's position in compositions(n, ell): lexicographically
    # decreasing, so a larger index is a lex-smaller composition.
    return {alpha: i for i, alpha in enumerate(compositions(n, ell))}


# Packed monomial coordinates: an element of degree n is one int whose
# field j, bits [width*j, width*(j+1)), holds the coefficient at lex index j
# of compositions(n) as a balanced (signed) digit.  Its fields are readable
# only while every coefficient lies in [-2**(width-1), 2**(width-1)), so
# each packed result is used only after bounds show that it does; when one
# fails, the whole computation runs again at twice the width (_widths).
_W = 32

# The signed array typecode of each width in bits: packing at these widths
# is one pass in C.
_ARRAY_CODES = {array(code).itemsize * 8: code for code in "qlihb"}


def _widths():
    # _W, read when the computation starts, then doubled each time.
    width = _W
    while True:
        yield width
        width *= 2


@cache
def _signs(size: int, width: int) -> int:
    # The top bit of each of size fields.  XOR with it maps two's complement
    # fields to digits offset by 2**(width-1).
    return ((1 << width * size) - 1) // ((1 << width) - 1) << (width - 1)


def _pack(dense: list[int], width: int) -> int:
    # sum(c << width * j for j, c in enumerate(dense)), exact whatever the
    # entries; from an array in one pass when they fit the width's type.
    code = _ARRAY_CODES.get(width)
    if code is not None:
        try:
            raw = int.from_bytes(array(code, dense).tobytes(), sys.byteorder)
        except OverflowError:
            pass
        else:
            signs = _signs(len(dense), width)
            return (raw ^ signs) - signs
    packed = 0
    for c in reversed(dense):
        packed = (packed << width) + c
    return packed


def _pack_terms(terms, n: int, width: int) -> int:
    # (composition of n, coefficient) pairs, packed at width.
    index = _lex_index(n, None)
    dense = [0] * len(index)
    for gamma, c in terms:
        dense[index[gamma]] = c
    return _pack(dense, width)


def _first_offset(n: int, k: int) -> int:
    # The lex index in compositions(n) of the first composition with first
    # part k, 1 <= k <= n.  compositions(n) lists (k,) + compositions(n - k)
    # for k from n down to 1, so (n,) is at 0 and the block of k < n starts
    # after 1 + 1 + 2 + ... + 2**(n-k-2) compositions.
    return 1 << (n - 1 - k) if k < n else 0


@cache
def _packed_pair(u: Composition, v: Composition, width: int) -> tuple[int, int]:
    # The terms of _shuffle_pair(u, v) packed at width over
    # compositions(|u| + |v|), and their total multiplicity, from the three
    # tails' packed pairs: the quasi-shuffle rule puts u[0], v[0] or
    # u[0] + v[0] in front of a tail's terms, and (k,) + tail sits at
    # _first_offset(n, k) plus the tail's own lex index, so each branch is
    # its tail's packed pair shifted by that many fields.  The multiplicities
    # are nonnegative and the shifted pairs are added as ints, so the result
    # is the exact sum of m << width * j over the terms, whatever the width.
    if not u and not v:
        return 1, 1
    n = sum(u) + sum(v)
    packed = mass = 0
    if u:
        tail, m = _packed_pair(u[1:], v, width)
        packed, mass = tail << width * _first_offset(n, u[0]), m
    if v:
        tail, m = _packed_pair(u, v[1:], width)
        packed += tail << width * _first_offset(n, v[0])
        mass += m
        if u:
            tail, m = _packed_pair(u[1:], v[1:], width)
            packed += tail << width * _first_offset(n, u[0] + v[0])
            mass += m
    return packed, mass


def _packed_product(f: BasisExpansion, g: BasisExpansion, width: int) -> tuple[int, int]:
    # The quasi-shuffle of f and g packed at width, one multiply-add per
    # pair of terms, and the bound sum(|c_u c_v| * the pair's multiplicity)
    # on the absolute value of every coefficient of the product.  The
    # product's fields are exact when the bound is below 2**(width-1).
    rest = bound = 0
    for u, cu in f.items():
        part = mass = 0
        for v, cv in g.items():
            pair, m = _packed_pair(u, v, width)
            part += cv * pair
            mass += abs(cv) * m
        rest += cu * part
        bound += abs(cu) * mass
    return rest, bound


def _peel(rest, row, basis: str, n: int, ell: int | None = None) -> dict[Composition, int]:
    # The list peel, which yqs_to_dimm runs over the DIRT rows (see the module
    # docstring).  Coefficients of rest against the basis whose element at
    # alpha is row(alpha): its terms as (lex index, coefficient) pairs over
    # compositions(n, ell).  rest is laid out densely by lex index, and the
    # pivot walks it forward: the entry c at index i, when nonzero, is the
    # coefficient at alpha = compositions(n, ell)[i], and c times the element
    # at alpha is subtracted.  That touches no earlier entry and clears entry
    # i, because the element is unitriangular: its term at alpha is 1 and
    # every other term has a larger index.  Both are checked, on every
    # element used, and a failure raises NotUnitriangularError.  out comes out
    # lexicographically decreasing, as compositions(n, ell) lists it.
    order = compositions(n, ell)
    index = _lex_index(n, ell)
    dense = [0] * len(order)
    for gamma, c in rest.items():
        dense[index[gamma]] = c
    out: dict[Composition, int] = {}
    for i in range(min(map(index.__getitem__, rest), default=len(order)), len(order)):
        c = dense[i]
        if not c:
            continue
        alpha = order[i]
        out[alpha] = c
        for j, x in row(alpha):
            if j < i:
                break
            dense[j] -= c * x
        else:
            # Entry i is c minus c times the diagonal, 0 only when that is 1.
            if not dense[i]:
                continue
        raise NotUnitriangularError(
            f"{basis} element at {to_string(alpha)} is not unitriangular")
    return out


@cache
def _mexpr_row(basis: str, alpha: Composition, width: int) -> tuple[int | None, int]:
    # _mexpr(basis, alpha) as _packed_peel reads it: packed at width from
    # alpha's own lex index in compositions(n), so field 0 is the diagonal,
    # and the largest absolute value of its coefficients.  The packed row is
    # None when a term comes before alpha, as none of a unitriangular
    # element does.  alpha must be checked first.
    terms = _mexpr(basis, alpha).coeffs
    index = _lex_index(sum(alpha), None)
    first = index[alpha]
    dense = [0] * (len(index) - first)
    for gamma, c in terms.items():
        j = index[gamma] - first
        if j < 0:
            return None, 0
        dense[j] = c
    return _pack(dense, width), max(map(abs, terms.values()), default=0)


# The fields a peel step first looks through for the next pivot: most pivots
# lie within a few fields of the last, and only on a miss is the whole
# remainder read.
_LOOK = 8


def _packed_peel(rest: int, top: int, basis: str, n: int,
                 width: int) -> dict[Composition, int] | None:
    # Coefficients against a Schur-like basis of rest, an element of degree
    # n packed at width whose coefficients are at most top in absolute
    # value; None when a bound fails at this width.  Each step finds the
    # next pivot as the lowest set bit, reads that field's digit c, checks
    # the row there (_mexpr_row: diagonal 1, no term before the pivot),
    # subtracts c times the row in one operation and shifts the cleared
    # field out.  When rest ends at 0 with every pivot inside
    # compositions(n), rest equals sum(c_i * row_i) as an integer; with
    # top and (sum |c_i|) * (the largest row entry) both below
    # 2**(width-1), both sides' fields are their balanced digits, so the
    # equality holds coefficient by coefficient and the c_i are exact.  A
    # bad row raises NotUnitriangularError only once the same bounds, taken
    # over the pivots before it, show it is the pivot the list peel meets.
    half = 1 << (width - 1)
    if top >= half:
        return None
    mask = (1 << width) - 1
    order = compositions(n)
    size = len(order)
    out: dict[Composition, int] = {}
    near = (1 << width * _LOOK) - 1
    pos = used = high = 0
    while rest:
        low = rest & near or rest
        skip = ((low & -low).bit_length() - 1) // width
        pos += skip
        if pos >= size:
            return None
        rest >>= width * skip
        c = rest & mask
        if c >= half:
            c -= mask + 1
        alpha = order[pos]
        row, largest = _mexpr_row(basis, alpha, width)
        if row is None or row & mask != 1:
            if top + used * high >= half:
                return None
            raise NotUnitriangularError(
                f"{basis} element at {to_string(alpha)} is not unitriangular")
        out[alpha] = c
        used += abs(c)
        if largest > high:
            high = largest
        # Field 0 is now 0; the next step's shift takes it out.
        rest -= c * row
    return out if used * high < half else None


def expand_in(f: BasisExpansion, basis: str) -> BasisExpansion:
    """Exact integer coefficients of the monomial expansion f against the
    named basis of its degree.

    The monomial case is f itself, and the fundamental case has a
    closed-form inverse.  The two Schur-like bases are unitriangular in
    monomial coordinates under lexicographic order, so f is packed and
    peeled against their packed monomial expansions (see _packed_peel),
    one subtraction of a whole row per pivot.  Each row is cached, and the
    peel checks it is unitriangular every time it is used.  The terms come
    out in compositions(n) order.  yqs_to_dimm peels the DIRT rows instead,
    with no monomials.
    """
    _monomial_only(f)
    if basis == MONOMIAL:
        return f
    if basis == FUNDAMENTAL:
        return m_to_f(f)
    if basis not in _FILLINGS:
        raise ValueError(f"cannot expand in basis {basis!r}")
    top = max(map(abs, f.coeffs.values()), default=0)
    for width in _widths():
        out = _packed_peel(_pack_terms(f.items(), f.degree, width), top, basis, f.degree, width)
        if out is not None:
            return BasisExpansion._built(basis, f.degree, out)


def _product_in(f: BasisExpansion, g: BasisExpansion, basis: str) -> BasisExpansion:
    # expand_in(quasi_shuffle(f, g), basis) for monomial f and g and a
    # Schur-like basis, with the packed product handed straight to the peel.
    n = f.degree + g.degree
    for width in _widths():
        rest, bound = _packed_product(f, g, width)
        out = _packed_peel(rest, bound, basis, n, width)
        if out is not None:
            return BasisExpansion._built(basis, n, out)


def is_symmetric(f: BasisExpansion) -> bool:
    """True when the monomial coefficients of f are constant across
    rearrangement classes."""
    _monomial_only(f)
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


# The DIRT rows counted so far, by alpha (see _dirt_row); a route reads a
# row through _dirt_row, and _dirt_row looks a tail's row up here.
_DIRT_ROWS: dict[Composition, dict[Composition, int]] = {}


def _dirt_row(alpha: Composition) -> dict[Composition, int]:
    # Dual immaculate alpha in Young quasisymmetric Schur terms: the counts,
    # by shape, of the recording tableaux whose row strip shape is
    # reversed(alpha); alpha must be checked first.  The placement rule reads
    # only row lengths and the previous value's column, so the count carries
    # {(lengths, last column): count} and lists no DIRT: strip s opens row
    # ell - s - 1, and each later member ends row r at col = lengths[r] + 1
    # when col > last and no row below r ends at col (an unopened row offers
    # col 1 <= last).  rw_forward enumerates the same tableaux independently.
    # The strips before the last are alpha[1:]'s, one row higher, and the
    # unopened bottom row takes none of them, so when alpha[1:]'s row is
    # cached the count starts from it, a 0 put in front of each state, and
    # places only the last strip; no row is counted that no caller asked for.
    # A step per cell: a degree past sys.maxsize is refused, not looped over.
    row = _DIRT_ROWS.get(alpha)
    if row is not None:
        return row
    if sum(alpha) > sys.maxsize:
        raise OverflowError(f"degree {sum(alpha)} is too large to count")
    ell = len(alpha)
    tail = _DIRT_ROWS.get(alpha[1:]) if alpha else None
    if tail is None:
        states, anchors = {(0,) * ell: 1}, reversed(range(ell))
    else:
        states, anchors = {(0,) + lengths: c for lengths, c in tail.items()}, (0,)
    for anchor in anchors:
        grown = {(lengths[:anchor] + (1,) + lengths[anchor + 1:], 1): c
                 for lengths, c in states.items()}
        for _ in range(alpha[anchor] - 1):
            placed = {}
            for (lengths, last), c in grown.items():
                for r, length in enumerate(lengths):
                    col = length + 1
                    if col > last and col not in lengths[:r]:
                        key = (lengths[:r] + (col,) + lengths[r + 1:], col)
                        placed[key] = placed.get(key, 0) + c
            grown = placed
        states = {}
        for (lengths, _), c in grown.items():
            states[lengths] = states.get(lengths, 0) + c
    _DIRT_ROWS[alpha] = states
    return states


def _row_runs(alpha: Composition, lens: list[int] | tuple[int, ...],
              top: int) -> list[tuple[int, int]]:
    """The dual tree's placement rule for one level, read as row runs:
    (r, end) for each started row r in top..ell-1, in row order, whose next
    cell may take one of the level's values, with lens the row lengths once
    the level's first value is in column 1 of row top.  A later value may
    go in the cell right of row r's end when that cell lies right of the
    previous value's, inside alpha, and not in a column where a row below
    ended when the level began.  Only the first of these tests changes
    within a level, and filling a cell moves the row's next cell one column
    right, so row r is open to the next value after column last exactly
    when last <= lens[r] < end, end the first length whose next cell the
    rule refuses.  The readers take the open rows in (next column, row)
    order, a stable sort of the row lengths."""
    runs, ended = [], set()
    for r in range(top, len(alpha)):
        start = end = lens[r]
        # ended holds row top's 1, not its 0, but no started row's next
        # cell is in column 1.
        while end < alpha[r] and end + 1 not in ended:
            end += 1
        if end > start:
            runs.append((r, end))
        ended.add(start)
    return runs


# The dual rule's levels by composition sigma, for the compositions that have
# sigma as their tail (see _dual_row): (steps, reached, tail), with steps
# sigma's own bottom-row level as {tail state: [states reached]}, each
# reached state once in reached, and tail sigma[1:]'s entry.  The empty
# composition's entry is _NO_LEVELS and is not stored.
_DUAL_LEVELS: dict[Composition, tuple] = {}
_NO_LEVELS = ({}, {(): ()}, None)


def _dual_levels(sigma: Composition) -> tuple:
    # sigma's entry in _DUAL_LEVELS, built after its missing tails' entries,
    # shortest first, with no recursion.  Each level fills the bottom row
    # from column 1 and then every placement _row_runs allows, dead ends
    # included: a composition with tail sigma fills more cells later.
    missing = []
    while sigma and sigma not in _DUAL_LEVELS:
        missing.append(sigma)
        sigma = sigma[1:]
    entry = _DUAL_LEVELS[sigma] if sigma else _NO_LEVELS
    for sigma in reversed(missing):
        steps, reached = {}, {}
        for lens in entry[1]:
            first = (1,) + lens
            runs = _row_runs(sigma, first, 0)
            afters = []
            stack = [(first, 1)]
            while stack:
                now, last = stack.pop()
                afters.append(reached.setdefault(now, now))
                rows = [r for r, end in runs if last <= now[r] < end]
                if len(rows) > 1:
                    rows.sort(key=now.__getitem__)
                for r in rows:
                    col = now[r] + 1
                    stack.append((now[:r] + (col,) + now[r + 1:], col))
            steps[lens] = afters
        entry = _DUAL_LEVELS[sigma] = (steps, reached, entry)
    return entry


def _dual_row(alpha: Composition) -> dict[Composition, int]:
    # rw_dual's complete fillings by value multiplicities, last level first,
    # over row-length states (_row_runs reads no more); alpha must be checked
    # first.  The levels before the last fill rows ell-1 .. 1, and the rule
    # reads only the started rows, so they are alpha[1:]'s levels, one row
    # higher, read from _dual_levels.  The last level must fill every empty
    # cell, in strictly increasing columns, so from a state it has one path
    # at most: it has one when the empty cells' column intervals are
    # disjoint and each row with empty cells has a run to its end.  A
    # backward fold then takes tails {state: (cells, {later levels'
    # multiplicities: count})} from alpha along the chain of tails' levels.
    # A step per cell: a degree past sys.maxsize is refused, not looped over.
    n = sum(alpha)
    if n > sys.maxsize:
        raise OverflowError(f"degree {n} is too large to count")
    if not alpha:
        return {(): 1}
    entry = _dual_levels(alpha[1:])
    tails = {}
    for lens in entry[1]:
        first = (1,) + lens
        # Row r's empty cells are columns first[r] + 1 .. alpha[r]; taken in
        # order of their first columns, the rows' spans are disjoint when
        # each starts past the end of the one before.
        end = 0
        for length, part in sorted(zip(first, alpha)):
            if length < part:
                if length < end:
                    break
                end = part
        else:
            ends = dict(_row_runs(alpha, first, 0))
            if all(ends.get(r) == part
                   for r, (length, part) in enumerate(zip(first, alpha)) if length < part):
                size = sum(lens)
                tails[lens] = (size, {(n - size,): 1})
    while entry is not _NO_LEVELS:
        steps, _, entry = entry
        folded = {}
        for lens, afters in steps.items():
            size, row = sum(lens), {}
            for placed, tail in (tails[after] for after in afters if after in tails):
                for gamma, m in tail.items():
                    beta = gamma + (placed - size,)
                    row[beta] = row.get(beta, 0) + m
            folded[lens] = (size, row)
        tails = folded
    return tails[()][1]


def dimm_to_yqs(alpha: Composition) -> BasisExpansion:
    """Young quasisymmetric Schur expansion of a dual immaculate element:
    the coefficient at beta counts recording tableaux of shape beta whose row
    strip shape is the reverse of alpha."""
    alpha = check_composition(alpha)
    return BasisExpansion._built(YOUNG_QS, sum(alpha), _dirt_row(alpha))


def yqs_to_dimm(alpha: Composition) -> BasisExpansion:
    """Dual immaculate expansion of a Young quasisymmetric Schur element:
    the DIRT counts of dimm_to_yqs inverted by peeling over the lex index of
    compositions(n, len(alpha)).  A row is counted only when the peel pivots
    on it, and the peel checks each row it uses is unitriangular (see
    _peel)."""
    alpha = check_composition(alpha)
    n, ell = sum(alpha), len(alpha)
    index = _lex_index(n, ell)

    def row(beta):
        terms = _dirt_row(beta)
        return zip(map(index.__getitem__, terms), terms.values())

    return BasisExpansion._built(
        DUAL_IMMACULATE, n, _peel({alpha: 1}, row, DUAL_IMMACULATE, n, ell))


def yns_to_imm(alpha: Composition) -> BasisExpansion:
    """Immaculate expansion of a Young noncommutative Schur element: the
    dual tree's complete fillings counted by value multiplicities (the
    paper's dual rule), over row-length states."""
    alpha = check_composition(alpha)
    return BasisExpansion._built(IMMACULATE, sum(alpha), _dual_row(alpha))


def principal_specialization(f: BasisExpansion, m: int) -> int:
    """Value of the monomial expansion f after substituting 1 for the first
    m variables and 0 beyond: each monomial element contributes a binomial
    count of support sets."""
    if type(m) is not int or m < 0:
        raise ValueError("m must be a nonnegative integer")
    _monomial_only(f)
    return sum(c * comb(m, len(alpha)) for alpha, c in f.items())


def _is_ones_then_tail(alpha: Composition) -> bool:
    return all(p == 1 for p in alpha[:-1]) if alpha else False


def check_conjectures(n: int) -> dict:
    """Empirical report on the two open expansion conjectures at degree n.

    Computes every Young quasisymmetric Schur element in the dual immaculate
    basis by inverting the DIRT rows (yqs_to_dimm), so no monomial
    expansion is built.  Reports whether all coefficients stay in {-1, 0, 1},
    whether the coefficient sums are 1 exactly on reversed hooks (all parts 1
    except the last) and 0 elsewhere, and whether each distinct-part
    partition's table is the signed sum of its rearrangements; a violation
    of that rule reports, in monomial coordinates, that signed sum minus the
    element.  Findings are returned, never raised; a DIRT row that is not
    unitriangular raises NotUnitriangularError from yqs_to_dimm.
    """
    if type(n) is not int or n < 1:
        raise ValueError("degree must be a positive integer")
    bounded_violations: list[dict] = []
    sum_violations: list[dict] = []
    expansions: dict[str, dict[str, int]] = {}
    tables = {alpha: yqs_to_dimm(alpha) for alpha in compositions(n)}
    for alpha, element in tables.items():
        expansions[to_string(alpha)] = element.to_json_obj()["coeffs"]
        table = element.coeffs
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
        # The sign of a rearrangement is -1 to its number of ascending pairs.
        ell = len(lam)
        signs = {beta: (-1) ** sum(beta[i] < beta[j] for i in range(ell) for j in range(i + 1, ell))
                 for beta in rearrangements(lam)}
        table = tables[lam].coeffs
        if table != signs:
            difference = sum(
                ((signs.get(beta, 0) - table.get(beta, 0)) * dual_immaculate_mexpr(beta)
                 for beta in sorted(signs.keys() | table.keys(), reverse=True)),
                BasisExpansion(MONOMIAL, n))
            alternating_violations.append({
                "lambda": to_string(lam),
                "difference": difference.to_json_obj()["coeffs"],
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
