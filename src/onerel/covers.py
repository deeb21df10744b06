"""Finite-cover chain complexes, exact homology and subword scans.

Pushing a presentation's derivative matrix through the regular representation
of a finite quotient, a :class:`~onerel.foxcalc.QuotientMap` whose oracle
enumerates its elements, gives the integer boundary maps of the corresponding
cover of the presentation complex.  Chains are row vectors acted on from the
right, so the composite ``D2 @ D1`` must vanish.  ``D2`` is kept as sparse
rows, a handful of +-1 entries each, walked off the quotient's Cayley table;
``D1`` is the incidence of the 1-skeleton, the Cayley graph of the quotient.
A 1-cycle is fixed by its coefficients on the edges outside a spanning
forest, here the BFS tree the quotient's enumeration recorded, so homology
and lattice generation questions are settled in spanning-forest
coordinates: ranks and Smith invariants of ``D2`` restricted to the
non-forest edges, from the sparse elimination kernel in
:mod:`onerel.intlinalg`.  Homology eliminates each distinct restricted row
once: a proper-power relator repeats its rows along the cyclic subgroup of
its root, and a repeat adds nothing to the row span.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import Domain, ZZ
from .errors import InputError, UnsupportedError
from .foxcalc import QuotientMap
from .graphs import Graph
# ``solve_left`` is unused; the benchmark's tracer test patches ``covers.solve_left``.
from .intlinalg import field_rank, quotient_invariants, solve_left, spans_saturated
from .presentations import Presentation
from .words import Word

# The longest relator that weinbaum_scan takes.  A relator of n letters has
# n(n - 1) proper cyclic subwords before deduplication, each a line of output:
# 64 letters give at most 4,032; the workloads reach 24 and the tests 12.
MAX_WEINBAUM_LETTERS = 64


@dataclass
class CoverComplex:
    """The cover's boundary maps: ``d2`` as sparse rows, ``d1`` as the skeleton.

    Row ``i * |Q| + k`` of ``d2`` is the 2-cell of relator ``i`` at element
    ``k``, a dict ``{column: coefficient}``; column ``s * |Q| + k`` is the edge
    of generator ``s`` at element ``k``, which is edge ``s * |Q| + k`` of the
    skeleton.  ``d1`` is the skeleton's incidence matrix.  ``forest`` lists
    the skeleton edges of a spanning forest, the enumeration's BFS tree.
    """

    presentation: Presentation
    quotient: QuotientMap
    domain: Domain
    rows: list                # the rows of d2
    skeleton: Graph           # the 1-skeleton; its edges are the rows of d1
    forest: list              # skeleton edges of a spanning forest

    @property
    def d2(self):
        """Dense read-only copy of ``d2``, for readers outside the library."""
        width = self.skeleton.n_edges()
        return [[row.get(j, 0) for j in range(width)] for row in self.rows]

    def _d1_rows(self):
        return [self.skeleton.boundary({e: 1}) for e in range(self.skeleton.n_edges())]

    @property
    def shape(self):
        """(2-cells, edges, vertices), with no vertex columns when there is no edge."""
        edges = self.skeleton.n_edges()
        return len(self.rows), edges, len(self.skeleton.vertices) if edges else 0

    def to_triplet_text(self):
        """Sparse triplet serialisation: header then ``row col value`` lines."""
        rows, edges, vertices = self.shape
        out = []
        for name, mat, cols in (("d2", self.rows, edges if rows else 0),
                                ("d1", self._d1_rows(), vertices)):
            out.append(f"matrix {name} {len(mat)} {cols}")
            for i, row in enumerate(mat):
                out += [f"{i} {j} {v}" for j, v in sorted(row.items())]
        return "\n".join(out)


def build_cover_complex(p: Presentation, q: QuotientMap,
                        domain: Domain = ZZ) -> CoverComplex:
    """Boundary maps of the cover of the presentation complex at ``q``.

    Row ``(i, g)`` of ``d2`` is ``{j * |Q| + idx(g * h): c for (h, c) in J[i][j]}``,
    the right-regular image of the derivative row ``J[i]``.  A walk along relator
    ``i`` over the Cayley table keeps ``cur[k] = idx(elements[k] * prefix)``,
    moved by a column per letter (its inverse for an inverse letter); Fox terms
    of one generator at one image ``cur[0]`` merge.  The edge ``(s, g)`` runs
    from vertex ``g`` to vertex ``g * phi(s)``.  Every row's boundary is summed
    in plain ints and verified to vanish.  A quotient whose oracle cannot
    enumerate its elements, such as Z^k or a group above the order cap, is
    refused with :class:`~onerel.errors.UnsupportedError`.  The forest is the
    oracle's BFS tree: element ``k``, first reached as ``elements[parent] * h``,
    hangs on the edge ``(s, parent)`` of the least ``s`` with image ``h``.  A
    one-element quotient has an empty forest.
    """
    n = len(q.oracle.elements())
    first = {q.images[s]: s for s in reversed(range(p.rank))}
    forest = [first[h] * n + parent
              for h, parent in (q.oracle.cayley_tree()[1:] if n > 1 else ())]
    columns = [q.oracle.cayley_column(q.images[s]) for s in range(p.rank)]
    inverses = [sorted(range(n), key=column.__getitem__) for column in columns]
    rows = []
    for w in p.relators:
        cur = list(range(n))
        sums = [{} for _ in range(p.rank)]   # per generator: {cur[0]: [cur, coefficient]}
        for j, sign in w.letters:
            nxt = list(map((columns if sign > 0 else inverses)[j].__getitem__, cur))
            at = cur if sign > 0 else nxt      # the prefix without or with the letter
            sums[j].setdefault(at[0], [at, 0])[1] += sign
            cur = nxt
        terms = [(j * n, at, c) for j, m in enumerate(sums) for at, c in m.values() if c]
        rows += [{base + at[k]: c for base, at, c in terms} for k in range(n)]
    edges = [(k, head) for column in columns for k, head in enumerate(column)]
    for row in rows:
        boundary = {}
        for e, c in row.items():
            tail, head = edges[e]
            boundary[head] = boundary.get(head, 0) + c
            boundary[tail] = boundary.get(tail, 0) - c
        if any(boundary.values()):
            raise InputError("cover boundary matrices do not compose to zero")
    return CoverComplex(presentation=p, quotient=q, domain=domain, rows=rows,
                        skeleton=Graph(range(n), edges), forest=forest)


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
    """Rows of ``d2`` on the non-forest edges of the 1-skeleton, and their count.

    Restriction to the non-forest edges maps the cycle lattice ``ker d1``
    isomorphically onto their coordinate lattice: the fundamental cycles are
    a basis, each 1 on its own such edge and 0 on the others, and a cycle
    vanishing there lies on a forest, so it is 0.  Every row of ``d2`` is a
    cycle because its boundary was verified to vanish.  The forest is
    ``c.forest``, the BFS tree the quotient's enumeration recorded.  Row
    ``r`` of the result is row ``r`` of ``d2``.
    """
    position = [None] * c.skeleton.n_edges()
    non_forest = sorted(set(range(len(position))).difference(c.forest))
    for k, e in enumerate(non_forest):
        position[e] = k
    coords = [{position[e]: v for e, v in row.items() if position[e] is not None}
              for row in c.rows]
    return coords, len(non_forest)


def homology(c: CoverComplex) -> HomologyReport:
    """Invariant factors of H0 and H1 of the cover complex.

    This is the cellular homology of the finite cover at ``c.quotient``, not a
    test of exactness of the relation-module resolution over the full group
    ring: ``<a, b | a*b^-1>`` has H1 = Z here at every finite quotient, while
    its resolution over Z[Z] is exact.  It is computed in spanning-forest
    coordinates: H0 is free on the components of the 1-skeleton, and H1 is
    the coordinate lattice of the non-forest edges modulo the restricted rows
    of ``d2``.  A coordinate row equal to one already kept is dropped: it adds
    nothing to the row span, so ranks and Smith invariants stay the same.  A
    proper-power relator ``u^m`` repeats its row at ``g`` at ``g * u``
    (Lyndon's cyclic relation module), so each such orbit enters the
    elimination once.  Over Z this is Smith-form exact; over a field the
    torsion lists are empty and the free ranks are dimensions.
    """
    coords, n_cycles = _cycle_coordinates(c)
    coords = list({frozenset(row.items()): row for row in coords}.values())
    if c.domain.is_field:
        h1_free, h1_torsion = n_cycles - field_rank(coords, c.domain), []
    else:
        h1_free, h1_torsion = quotient_invariants(n_cycles, coords)
    return HomologyReport(domain=c.domain,
                          h0_free_rank=len(c.skeleton.vertices) - len(c.forest),
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
        if not 0 <= r < len(c.rows):
            raise InputError(f"row index {r} out of range")
    coords, n_cycles = _cycle_coordinates(c)
    return spans_saturated([coords[r] for r in rows], n_cycles, c.domain)


@dataclass
class SubwordStatus:
    subword: Word
    status: str            # "NontrivialCertified" | "Unknown"
    image: str


def weinbaum_scan(w: Word, q: QuotientMap) -> list:
    """Certify proper cyclic subwords nontrivial via their quotient images.

    A non-identity image proves the subword avoids the relators' normal
    closure; an identity image is inconclusive and reported as Unknown.  The
    subwords are those of the relator read cyclically: from each start
    position, those of lengths 1 to ``len(w) - 1``, each distinct subword
    once, in that order.  One walk from each start position gives the images
    of all its lengths.  A relator of more than ``MAX_WEINBAUM_LETTERS``
    letters is refused with :class:`~onerel.errors.UnsupportedError`.
    """
    ls = w.letters
    n = len(ls)
    if n > MAX_WEINBAUM_LETTERS:
        raise UnsupportedError(f"the relator has {n} letters; weinbaum scans relators of "
                               f"at most {MAX_WEINBAUM_LETTERS} letters, the supported maximum")
    if n and not w.is_cyclically_reduced():
        raise InputError("cyclic subword enumeration requires a cyclically reduced word")
    oracle = q.oracle
    ident, multiply = oracle.identity(), oracle.multiply
    doubled = ls + ls
    steps = list(map(q.letter_images.__getitem__, doubled))
    seen = set()
    out = []
    for start in range(n):
        img = ident
        for end in range(start + 1, start + n):
            img = multiply(img, steps[end - 1])
            sub = doubled[start:end]
            if sub not in seen:
                seen.add(sub)
                status = "Unknown" if img == ident else "NontrivialCertified"
                out.append(SubwordStatus(subword=Word.trusted(sub), status=status,
                                         image=oracle.render(img)))
    return out
