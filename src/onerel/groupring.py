"""Exact group-ring arithmetic over pluggable oracles, with support analysis.

Elements are finite formal sums stored sparsely as ``{element: coefficient}``,
each coefficient in its domain's normal form and none of them zero; group
elements are their oracle's canonical hashable values, so they key the map
themselves.  On top of the arithmetic this module implements the
support-based checks used elsewhere: k-unique products for finite subsets,
an exhaustive engulfing-witness search over finite groups, and the
order-backed non-engulfing certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .domains import Domain, PrimeFieldDomain, RationalDomain
from .errors import InputError, InternalCheckError, UnsupportedError
from .intlinalg import nullspace
from .oracles import GroupOracle


class GroupRingElement:
    __slots__ = ("oracle", "domain", "terms")

    def __init__(self, oracle: GroupOracle, domain: Domain, terms=()):
        self.oracle = oracle
        self.domain = domain
        coerce = domain.coerce
        acc = {}
        for elem, coeff in terms:
            coeff = coerce(coeff)
            acc[elem] = coerce(acc[elem] + coeff) if elem in acc else coeff
        self.terms = {elem: coeff for elem, coeff in acc.items() if coeff}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, oracle, domain):
        return cls(oracle, domain)

    @classmethod
    def one(cls, oracle, domain):
        return cls(oracle, domain, [(oracle.identity(), 1)])

    @classmethod
    def of(cls, oracle, domain, elem, coeff=1):
        return cls(oracle, domain, [(elem, coeff)])

    # -- structure -----------------------------------------------------------

    def support(self):
        return set(self.terms)

    def support_elements(self):
        return list(self.terms)

    def coefficient(self, elem):
        return self.terms.get(elem, self.domain.zero)

    def is_zero(self):
        return not self.terms

    def is_scalar(self):
        """Whether the element lies in the coefficient ring R.1."""
        return not self.terms or (len(self.terms) == 1
                                  and self.oracle.identity() in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.oracle is other.oracle
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _check_compatible(self, other):
        if self.oracle is not other.oracle or self.domain != other.domain:
            raise InputError("group-ring elements over different oracles or domains")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check_compatible(other)
        return GroupRingElement(self.oracle, self.domain,
                                [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return GroupRingElement(self.oracle, self.domain,
                                [(e, -c) for e, c in self.terms.items()])

    def __sub__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check_compatible(other)
        multiply = self.oracle.multiply
        return GroupRingElement(self.oracle, self.domain, [
            (multiply(e1, e2), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()])

    def scale(self, coeff):
        coeff = self.domain.coerce(coeff)
        return GroupRingElement(self.oracle, self.domain,
                                [(e, coeff * c) for e, c in self.terms.items()])

    def render(self):
        if not self.terms:
            return "0"
        one, minus_one = self.domain.one, self.domain.coerce(-1)
        parts = []
        for elem in sorted(self.terms, key=self.oracle.term_order):
            coeff = self.terms[elem]
            ge = self.oracle.render(elem)
            if ge == "1":
                piece = str(coeff)
            elif coeff == one:
                piece = ge
            elif coeff == minus_one:
                piece = f"-{ge}"
            else:
                piece = f"{coeff}*{ge}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self):
        return f"<{self.render()} over {self.domain.name}[{self.oracle.name}]>"


class GroupRingMatrix:
    """Rectangular grid of group-ring elements over one oracle and domain."""

    def __init__(self, oracle, domain, entries, row_labels=None, col_labels=None,
                 ncols=None):
        self.oracle = oracle
        self.domain = domain
        self.entries = [list(row) for row in entries]
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise InputError("ragged matrix")
        self.nrows = len(self.entries)
        self.ncols = widths.pop() if widths else (ncols or 0)
        for row in self.entries:
            for e in row:
                if e.oracle is not oracle or e.domain != domain:
                    raise InputError("matrix entry over a different oracle or domain")
        self.row_labels = list(row_labels) if row_labels else [str(i) for i in range(self.nrows)]
        self.col_labels = list(col_labels) if col_labels else [str(j) for j in range(self.ncols)]

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i, j):
        return self.entries[i][j]

    def pattern(self):
        """Zero/nonzero support pattern as a list of bool rows."""
        return [[not e.is_zero() for e in row] for row in self.entries]

    def render_rows(self):
        return [[e.render() for e in row] for row in self.entries]


# -- unique products ----------------------------------------------------------


@dataclass
class UniqueProductsReport:
    side: str
    k: int
    product_count: int
    unique_products: list = field(default_factory=list)  # (a, b, product) triples
    distinct_factor_count: int = 0
    verdict: bool = False


def unique_products_check(oracle, A, B, k, side="plain"):
    """Count uniquely represented products in A*B.

    ``plain`` asks for k uniquely represented products (requires |AB| >= k);
    ``left`` asks additionally for pairwise distinct left factors (requires
    |A| >= k) and ``right`` for distinct right factors (|B| >= k).
    """
    if side not in ("plain", "left", "right"):
        raise InputError(f"unknown side {side!r}")
    if k < 1:
        raise InputError("k must be a positive integer")
    A = list(dict.fromkeys(A))
    B = list(dict.fromkeys(B))
    if not A or not B:
        raise InputError("A and B must be non-empty")

    reps = {}
    for a in A:
        for b in B:
            reps.setdefault(oracle.multiply(a, b), []).append((a, b))
    if side == "plain" and len(reps) < k:
        raise InputError(f"plain mode requires |AB| >= k, got |AB| = {len(reps)}")
    if side == "left" and len(A) < k:
        raise InputError(f"left mode requires |A| >= k, got |A| = {len(A)}")
    if side == "right" and len(B) < k:
        raise InputError(f"right mode requires |B| >= k, got |B| = {len(B)}")

    unique = [(pairs[0][0], pairs[0][1]) for pairs in reps.values() if len(pairs) == 1]
    if side == "left":
        distinct = len({a for a, _ in unique})
    elif side == "right":
        distinct = len({b for _, b in unique})
    else:
        distinct = len(unique)
    verdict = distinct >= k
    return UniqueProductsReport(
        side=side, k=k, product_count=len(reps),
        unique_products=[(a, b, oracle.multiply(a, b)) for a, b in unique],
        distinct_factor_count=distinct, verdict=verdict)


# -- engulfing ----------------------------------------------------------------


@dataclass
class EngulfingReport:
    status: str  # "witness" | "none" | "certified_by_order"
    side: str
    witness: GroupRingElement | None = None
    kernel_dimension: int | None = None
    note: str = ""

    @property
    def engulfing(self):
        return self.status == "witness"


def _verify_witness(r, m, side):
    if r.is_scalar():
        raise InternalCheckError("engulfing witness lies in the coefficient ring")
    product = r * m if side == "left" else m * r
    if not product.support() <= m.support():
        raise InternalCheckError("engulfing witness fails support re-verification")


def engulfing_search_finite(m: GroupRingElement, side="left") -> EngulfingReport:
    """Exhaustive engulfing search over a finite group and field coefficients.

    Solves the linear system forcing the coefficients of ``r*m`` (or ``m*r``)
    to vanish outside ``supp(m)``.  Returns a re-verified witness when the
    solution space holds anything beyond the scalars, otherwise the solution
    space dimension as a proof of absence.
    """
    if side not in ("left", "right"):
        raise InputError(f"unknown side {side!r}")
    if m.is_zero():
        raise InputError("engulfing is defined for non-zero elements")
    dom = m.domain
    if not dom.is_field or not isinstance(dom, (RationalDomain, PrimeFieldDomain)):
        raise UnsupportedError("finite engulfing search needs Q or F_p coefficients")
    oracle = m.oracle
    if not oracle.is_finite():
        raise UnsupportedError("finite engulfing search needs a finite group oracle")

    elems = oracle.elements()
    index = {g: i for i, g in enumerate(elems)}
    inside = {index[me] for me in m.terms}
    index_map = oracle.right_index_map if side == "left" else oracle.left_index_map

    # x @ A = 0 with x the coefficients of r: column h of A, for each element
    # index h outside supp(m), is the coefficient of elements[h] in r*m (or
    # m*r), which collects mc from the g with g*me = h (or me*g = h), one g
    # per term of m; the index maps give h for every g at once
    a_matrix = [{} for _ in elems]
    for me, mc in m.terms.items():
        for g, h in enumerate(index_map(index[me])):
            if h not in inside:
                a_matrix[g][h] = mc
    basis = nullspace(a_matrix, dom)

    dim = len(basis)
    id_index = index[oracle.identity()]
    for vec in basis:
        support = [i for i, c in enumerate(vec) if c]
        if support and support != [id_index]:
            witness = GroupRingElement(
                oracle, dom, [(elems[i], vec[i]) for i in support])
            _verify_witness(witness, m, side)
            return EngulfingReport(status="witness", side=side, witness=witness,
                                   kernel_dimension=dim)
    return EngulfingReport(status="none", side=side, kernel_dimension=dim,
                           note="solution space is spanned by the scalars")


def non_engulfing_certificate_ordered(m: GroupRingElement, side="left") -> EngulfingReport:
    """Certificate that an element over an ordered oracle is not engulfing.

    Requires the oracle to carry a right-invariant total order; the order
    axioms are spot-checked on the support of ``m`` before certifying.
    """
    if side not in ("left", "right"):
        raise InputError(f"unknown side {side!r}")
    oracle = m.oracle
    if oracle.compare is None:
        raise UnsupportedError(f"oracle {oracle.name} carries no total order")
    if m.is_zero():
        raise InputError("engulfing is defined for non-zero elements")

    sample = m.support_elements()
    for x in sample:
        if oracle.compare(x, x) != 0:
            raise InternalCheckError("order is not reflexive on sampled elements")
    for x in sample:
        for y in sample:
            cxy = oracle.compare(x, y)
            if cxy != -oracle.compare(y, x):
                raise InternalCheckError("order is not antisymmetric on sampled elements")
            for g in sample:
                if cxy != oracle.compare(oracle.multiply(x, g), oracle.multiply(y, g)):
                    raise InternalCheckError("order is not right-invariant on sampled elements")
    return EngulfingReport(
        status="certified_by_order", side=side,
        note="right-invariant total order implies 2-unique products, hence no engulfing")
