"""Reference cover homology, built without onerel, for the output checks.

The cover of a two-complex with one vertex at a finite quotient ``Q`` has a
vertex per element, an edge per (generator, element) and a two-cell per
(relator, element).  Chains are row vectors acted on from the right, as in
onerel, but the element order here is the sorted order, so any agreement is
agreement on invariants only.  ``H1 = Z^(E - (|Q| - 1) - rank d2)`` plus the
torsion of the Smith form of ``d2``, because the cover is connected and the
cycle lattice is a direct summand of ``Z^E``.
"""

from __future__ import annotations

from . import groups


def _letter_image(images, gen, sign):
    return images[gen] if sign > 0 else groups.inverse(images[gen])


def fox_pushforward(letters, gen, images):
    """Terms ``{element: coeff}`` of the Fox derivative pushed into Z[Q]."""
    degree = len(images[0])
    prefix = groups.identity(degree)
    terms = {}
    for i, s in letters:
        after = groups.mul(prefix, _letter_image(images, i, s))
        if i == gen:
            g, c = (prefix, 1) if s > 0 else (after, -1)
            terms[g] = terms.get(g, 0) + c
        prefix = after
    return {g: c for g, c in terms.items() if c}


def cover_matrices(relators, images):
    """Integer boundary matrices ``(d2, d1)`` of the cover at ``<images>``."""
    elements = sorted(groups.closure(images))
    index = {g: k for k, g in enumerate(elements)}
    n, rank = len(elements), len(images)
    d1 = []
    for s in range(rank):
        for g in elements:
            row = [0] * n
            row[index[groups.mul(g, images[s])]] += 1
            row[index[g]] -= 1
            d1.append(row)
    d2 = []
    for letters in relators:
        derivs = [fox_pushforward(letters, s, images) for s in range(rank)]
        for g in elements:
            row = [0] * (rank * n)
            for s, terms in enumerate(derivs):
                for h, c in terms.items():
                    row[s * n + index[groups.mul(g, h)]] += c
            d2.append(row)
    return d2, d1


def integral_homology(relators, images):
    """``(order, edges, d2 rows, d2 nonzeros, b1, torsion)`` via sympy."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    d2, d1 = cover_matrices(relators, images)
    order, edges = len(d1[0]), len(d1)
    dm = DomainMatrix([[ZZ(x) for x in row] for row in d2], (len(d2), edges), ZZ)
    factors = [int(abs(d)) for d in invariant_factors(dm) if d]
    rank_d2 = len(factors)
    torsion = sorted(d for d in factors if d > 1)
    nnz = sum(1 for row in d2 for x in row if x)
    return {"order": order, "edges": edges, "d2_rows": len(d2), "d2_nnz": nnz,
            "b1": edges - (order - 1) - rank_d2, "torsion": torsion}
