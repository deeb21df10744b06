"""Finite-cover chain complexes, exact homology and subword scans.

Pushing a presentation's derivative matrix through the regular representation
of a finite quotient, a :class:`~onerel.foxcalc.QuotientMap` whose oracle
enumerates its elements, gives the integer boundary maps of the corresponding
cover of the presentation complex.  Chains are row vectors acted on from the
right, so the composite ``D2 @ D1`` must vanish.  ``D2`` is walked off the
quotient's Cayley table, one walk per relator, and kept as the walk's merged
Fox terms, each an array of element indices: row ``k`` of a relator reads
entry ``k`` of every array.  ``D1`` is the incidence of the 1-skeleton, the
Cayley graph of the quotient.  The composite is verified once per relator,
exactly, as a formal sum over the arrays, which Fox's fundamental formula
makes telescope along the walk (see :func:`build_cover_complex`); the full
rows, the skeleton and a dense ``D2`` are built only when read.  A 1-cycle
is fixed by its coefficients on the edges outside a spanning forest, here
the BFS tree the quotient's enumeration recorded, so homology and lattice
generation questions are settled in spanning-forest coordinates, read
straight off the arrays: ranks and Smith invariants of ``D2`` restricted to
the non-forest edges, from the sparse elimination kernel in
:mod:`onerel.intlinalg`.  Homology eliminates each distinct restricted row
once: a proper-power relator repeats its rows along the cyclic subgroup of
its root, and a repeat adds nothing to the row span.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

from .domains import Domain, ZZ
from .errors import InputError, UnsupportedError
from .foxcalc import QuotientMap
from .graphs import Graph
# ``solve_left`` is unused; the benchmark's tracer test patches ``covers.solve_left``.
from .intlinalg import field_rank, quotient_invariants_in_place, solve_left, spans_saturated
from .presentations import Presentation
from .words import Word

# The longest relator that weinbaum_scan takes.  A relator of n letters has
# n(n - 1) proper cyclic subwords before deduplication, each a line of output:
# 64 letters give at most 4,032; the workloads reach 24 and the tests 12.
MAX_WEINBAUM_LETTERS = 64

COMPOSITE_REFUSAL = "cover boundary matrices do not compose to zero"


@dataclass
class CoverComplex:
    """The cover's boundary maps, held as the relator walks made them.

    ``cells[i]`` is relator ``i``'s 2-cell: its merged Fox terms ``(j, at,
    c)``, generator ``j``, the prefix images ``at[k] = idx(elements[k] *
    prefix)`` and coefficient ``c``.  ``columns[s]`` is generator ``s``'s
    Cayley-table column, ``[idx(elements[k] * phi(s)) for k]``.  ``forest`` lists the skeleton edges of a spanning
    forest, the enumeration's BFS tree.  The views below are built only when
    read.
    """

    presentation: Presentation
    quotient: QuotientMap
    domain: Domain
    order: int                # |Q|, the number of vertices
    columns: list             # generator s -> its Cayley-table column
    cells: list               # relator i -> its terms (j, at, c)
    forest: list              # skeleton edges of a spanning forest

    @cached_property
    def rows(self):
        """The rows of ``d2``, sparse.

        Row ``i * |Q| + k`` is the 2-cell of relator ``i`` at element ``k``,
        ``{j * |Q| + at[k]: c for (j, at, c) in cells[i]}``; column ``s * |Q| +
        k`` is the edge of generator ``s`` at element ``k``.
        """
        n = self.order
        return [{j * n + at[k]: c for j, at, c in terms}
                for terms in self.cells for k in range(n)]

    @cached_property
    def skeleton(self):
        """The 1-skeleton: edge ``s * |Q| + k`` runs from ``k`` to ``columns[s][k]``.

        Its incidence matrix is ``d1``.
        """
        return Graph(range(self.order), [(k, head) for column in self.columns
                                         for k, head in enumerate(column)])

    @property
    def d2(self):
        """Dense read-only copy of ``d2``, for readers outside the library."""
        width = len(self.columns) * self.order
        return [[row.get(j, 0) for j in range(width)] for row in self.rows]

    def _d1_rows(self):
        return [self.skeleton.boundary({e: 1}) for e in range(self.skeleton.n_edges())]

    @property
    def shape(self):
        """(2-cells, edges, vertices), with no vertex columns when there is no edge."""
        n = self.order
        edges = len(self.columns) * n
        return len(self.cells) * n, edges, n if edges else 0

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
    of one generator at one image ``cur[0]`` merge, and the merged terms
    ``(j, at, c)`` are the relator's 2-cell.  The edge ``(s, g)`` runs from
    vertex ``g`` to vertex ``g * phi(s)``.

    The composite ``d2 @ d1`` is verified once per relator, exactly, as a
    formal sum over arrays, ``sum c * ([columns[j] o at] - [at]) = 0``, with
    no two terms of one generator at one edge (``at[k]`` differs for every
    ``k``).  Row ``k``'s boundary is the image of the formal sum under
    ``[arr] -> vertex arr[k]``, so it vanishes, and with no collision row
    ``k`` holds every term.  The sum is Fox's fundamental formula
    ``sum_s (dr/ds)(s - 1) = r - 1`` (Ann. of Math. 57, 1953) on the table,
    and it telescopes: a letter's term spans one step of the walk,
    ``[cur after] - [cur before]``, for an inverse letter once its column
    composed with the inverse is the identity, so the sum is ``[walk end] -
    [identity]``.  Merging leaves it alone when it joins only equal arrays.
    So the check is that each inverted column inverts, each merge joins equal
    arrays, and the walk ends at the identity; a table that fails any part is
    refused with :class:`~onerel.errors.InputError`.  On a genuine table all
    hold: the relator is killed, and in a free action ``at[0]`` fixes the
    prefix's image and with it all of ``at``, so two distinct arrays differ
    at every ``k``.  An action that is not free, such as one on the cosets
    of a point stabiliser, can merge unequal arrays or put two terms on one
    edge; it is refused, not truncated.

    A quotient whose oracle cannot enumerate its elements, such as Z^k or a
    group above the order cap, is refused with
    :class:`~onerel.errors.UnsupportedError`.  The forest is the oracle's BFS
    tree: element ``k``, first reached as ``elements[parent] * h``, hangs on
    the edge ``(s, parent)`` of the least ``s`` with image ``h``.  A
    one-element quotient has an empty forest.
    """
    n = len(q.oracle.elements())
    first = {q.images[s]: s for s in reversed(range(p.rank))}
    forest = [first[h] * n + parent
              for h, parent in (q.oracle.cayley_tree()[1:] if n > 1 else ())]
    columns = [q.oracle.cayley_column(q.images[s]) for s in range(p.rank)]
    identity = tuple(range(n))
    inverses = {j: sorted(identity, key=columns[j].__getitem__)
                for w in p.relators for j, sign in w.letters if sign < 0}
    if any(tuple(map(columns[j].__getitem__, inverse)) != identity
           for j, inverse in inverses.items()):
        raise InputError(COMPOSITE_REFUSAL)
    cells = []
    for w in p.relators:
        cur = identity
        sums = [{} for _ in range(p.rank)]   # per generator: {cur[0]: [cur, coefficient]}
        for j, sign in w.letters:
            nxt = tuple(map((columns if sign > 0 else inverses)[j].__getitem__, cur))
            at = cur if sign > 0 else nxt      # the prefix without or with the letter
            merged = sums[j].get(at[0])
            if merged is None:
                sums[j][at[0]] = [at, sign]
            elif merged[0] == at:
                merged[1] += sign
            else:
                raise InputError(COMPOSITE_REFUSAL)
            cur = nxt
        if cur != identity:
            raise InputError(COMPOSITE_REFUSAL)
        terms = []
        for j, merged in enumerate(sums):
            kept = [(j, at, c) for at, c in merged.values() if c]
            # the edges of generator j in row k: one per term unless two collide
            if len(kept) > 1 and min(map(len, map(set, zip(*(at for _, at, _ in kept))))) \
                    < len(kept):
                raise InputError(COMPOSITE_REFUSAL)
            terms += kept
        cells.append(terms)
    return CoverComplex(presentation=p, quotient=q, domain=domain, order=n, columns=columns,
                        cells=cells, forest=forest)


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


def _coordinate_rows(c: CoverComplex):
    """The rows of ``d2`` on the non-forest edges, and the number of those edges.

    Restriction to the non-forest edges maps the cycle lattice ``ker d1``
    isomorphically onto their coordinate lattice: the fundamental cycles are
    a basis, each 1 on its own such edge and 0 on the others, and a cycle
    vanishing there lies on a forest, so it is 0.  Every row of ``d2`` is a
    cycle because its boundary was verified to vanish.  The forest is
    ``c.forest``, the BFS tree the quotient's enumeration recorded.

    The rows are read straight off the cells: ``cell_rows(terms)`` gives a
    cell's rows in order, each as the frozenset of its ``(coordinate,
    coefficient)`` pairs.  A term maps its array through its generator's
    slice of a table from each edge to its pair with the term's coefficient,
    ``None`` on a forest edge, and the ``None`` entries are dropped.  A row
    holds each term once, at distinct edges.
    """
    n = c.order
    n_edges = len(c.columns) * n
    non_forest = sorted(set(range(n_edges)).difference(c.forest))
    tables = {}      # coefficient v -> edge -> (its coordinate, v), or None on the forest

    def table(v):
        if v not in tables:
            pairs = dict(zip(non_forest, zip(range(len(non_forest)), repeat(v))))
            tables[v] = list(map(pairs.get, range(n_edges)))
        return tables[v]

    def cell_rows(terms):
        if not terms:
            return repeat(frozenset(), n)
        placed = [map(table(v)[j * n:(j + 1) * n].__getitem__, at) for j, at, v in terms]
        return map(frozenset, map(filter, repeat(None), zip(*placed)))

    return cell_rows, len(non_forest)


def _cycle_coordinates(c: CoverComplex):
    """Every row of ``d2`` in spanning-forest coordinates, in row order, and their count.

    Row ``r`` of the result is row ``r`` of ``d2`` restricted to the
    non-forest edges, as a ``{coordinate: coefficient}`` dict.
    """
    cell_rows, n_cycles = _coordinate_rows(c)
    return [dict(row) for terms in c.cells for row in cell_rows(terms)], n_cycles


def homology(c: CoverComplex) -> HomologyReport:
    """Invariant factors of H0 and H1 of the cover complex.

    This is the cellular homology of the finite cover at ``c.quotient``, not a
    test of exactness of the relation-module resolution over the full group
    ring: ``<a, b | a*b^-1>`` has H1 = Z here at every finite quotient, while
    its resolution over Z[Z] is exact.  It is computed in spanning-forest
    coordinates: H0 is free on the components of the 1-skeleton, and H1 is
    the coordinate lattice of the non-forest edges modulo the restricted rows
    of ``d2``.  A coordinate row equal to one already kept is dropped before
    it is built as a dict: it adds nothing to the row span, so ranks and
    Smith invariants stay the same.  A proper-power relator ``u^m`` repeats
    its row at ``g`` at ``g * u`` (Lyndon's cyclic relation module), so its
    rows are the commonest repeats.  Over Z the rows are handed to
    the elimination, which works on them in place, with no copy, and this is
    Smith-form exact; over a field the torsion lists are empty and the free
    ranks are dimensions.
    """
    cell_rows, n_cycles = _coordinate_rows(c)
    rows = chain.from_iterable(map(cell_rows, c.cells))
    coords = list(map(dict, dict.fromkeys(rows)))
    if c.domain.is_field:
        h1_free, h1_torsion = n_cycles - field_rank(coords, c.domain), []
    else:
        h1_free, h1_torsion = quotient_invariants_in_place(n_cycles, coords)
    return HomologyReport(domain=c.domain, h0_free_rank=c.order - len(c.forest),
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
        if not 0 <= r < c.shape[0]:
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
