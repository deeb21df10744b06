"""Exact linear algebra: unit-pivot elimination over Z, one echelon over fields.

A matrix is a list of rows, each a dense list or a sparse dict
``{column: value}``.  Conventions are row-centric throughout: lattices are
spanned by rows, kernels are left kernels ``{x : x @ M = 0}``, matching chain
complexes that act on row vectors from the right.  Integer routines use
Python's arbitrary-precision ints; field routines take a
:class:`~onerel.domains.Domain` with ``is_field`` set and work on plain ints
mod p over F_p, and over Q on ints where a value is integral and on
``Fraction`` elsewhere.

Over Z, :func:`_eliminate` takes only +-1 pivots, in Markowitz order: such a
row-and-column step is unimodular (a reduction in the sense of Kaczynski,
Mrozek and Slusarek, Comput. Math. Appl. 35, 1998), so each contributes a
Smith invariant 1 and leaves the invariants of the rest alone, as in the
elimination-based Smith form of Dumas, Saunders and Villard (J. Symbolic
Comput. 32, 2001).  The core left without a unit entry goes to the dense
:func:`snf_invariants`.  Over a field every route goes through one sparse
row echelon form, :func:`_echelon`, which eliminates in column order: its
length is the rank, and :func:`nullspace` back-substitutes it into the
canonical reduced form.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .errors import InputError


def _swap(m, i, j):
    m[i], m[j] = m[j], m[i]


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def row_hnf_transform(mat):
    """Row Hermite form with transform: returns (H, U) with U @ mat == H.

    U is unimodular.  H is in row-echelon form with positive pivots and
    entries above each pivot reduced into [0, pivot); zero rows sit at the
    bottom.
    """
    h = [list(r) for r in mat]
    rows = len(h)
    cols = len(h[0]) if h else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    pivot_row = 0
    for col in range(cols):
        # find a row at or below pivot_row with a nonzero entry in col
        nz = [r for r in range(pivot_row, rows) if h[r][col]]
        if not nz:
            continue
        r0 = min(nz, key=lambda r: abs(h[r][col]))
        _swap(h, pivot_row, r0)
        _swap(u, pivot_row, r0)
        for r in range(pivot_row + 1, rows):
            if not h[r][col]:
                continue
            a, b = h[pivot_row][col], h[r][col]
            g, x, y = _xgcd(a, b)
            ag, bg = a // g, b // g
            hp, hr = h[pivot_row], h[r]
            up, ur = u[pivot_row], u[r]
            for j in range(cols):
                hp[j], hr[j] = x * hp[j] + y * hr[j], -bg * hp[j] + ag * hr[j]
            for j in range(rows):
                up[j], ur[j] = x * up[j] + y * ur[j], -bg * up[j] + ag * ur[j]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        p = h[pivot_row][col]
        for r in range(pivot_row):
            q = h[r][col] // p
            if q:
                h[r] = [x - q * y for x, y in zip(h[r], h[pivot_row])]
                u[r] = [x - q * y for x, y in zip(u[r], u[pivot_row])]
        pivot_row += 1
        if pivot_row == rows:
            break
    return h, u


def solve_left(mat, target):
    """Solve ``x @ mat == target`` over Z; None when no integer solution."""
    if not mat:
        return None if any(target) else []
    h, u = row_hnf_transform(mat)
    cols = len(mat[0])
    if len(target) != cols:
        raise InputError("target length mismatch")
    residual = list(target)
    coeffs = [0] * len(mat)
    for r, row in enumerate(h):
        pivot_col = next((j for j, x in enumerate(row) if x), None)
        if pivot_col is None:
            continue
        num = residual[pivot_col]
        if num % row[pivot_col]:
            return None
        q = num // row[pivot_col]
        if q:
            residual = [x - q * y for x, y in zip(residual, row)]
        coeffs[r] = q
    if any(residual):
        return None
    # x = coeffs @ U
    x = [0] * len(mat)
    for r, c in enumerate(coeffs):
        if c:
            for j in range(len(mat)):
                x[j] += c * u[r][j]
    return x


def snf_invariants(mat):
    """Nonzero diagonal invariants d1 | d2 | ... of the Smith normal form."""
    m = [list(r) for r in mat]
    rows, cols = len(m), (len(m[0]) if m else 0)
    invariants = []
    top = 0
    while top < rows and top < cols:
        # locate a nonzero entry with minimal absolute value
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        _swap(m, top, bi)
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        # clear the pivot row and column
        dirty = True
        while dirty:
            dirty = False
            for i in range(top + 1, rows):
                if m[i][top]:
                    q = m[i][top] // m[top][top]
                    m[i] = [x - q * y for x, y in zip(m[i], m[top])]
                    if m[i][top]:
                        _swap(m, top, i)
                        dirty = True
            for j in range(top + 1, cols):
                if m[top][j]:
                    q = m[top][j] // m[top][top]
                    for row in m:
                        row[j] -= q * row[top]
                    if m[top][j]:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
        # divisibility fix-up: pivot must divide the remaining block
        fixed = False
        for i in range(top + 1, rows):
            if fixed:
                break
            for j in range(top + 1, cols):
                if m[i][j] % m[top][top]:
                    m[top] = [x + y for x, y in zip(m[top], m[i])]
                    fixed = True
                    break
        if fixed:
            continue
        invariants.append(abs(m[top][top]))
        top += 1
    return invariants


# -- the sparse kernel --------------------------------------------------------


def _sparse(rows, coerce=int):
    """Fresh ``{column: value}`` rows with values coerced and zeros dropped."""
    out = []
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        out.append({j: v for j, x in items if (v := coerce(x))})
    return out


def _rational(x):
    """``x`` over Q: an int when it is integral, otherwise a ``Fraction``."""
    if isinstance(x, int):
        return x
    v = Fraction(x)
    return v.numerator if v.denominator == 1 else v


def _field_rows(mat, field):
    """Sparse rows over ``field`` and its modulus, p for F_p and 0 for Q.

    Over Q integral values stay ints, so elimination by +-1 pivots, the
    common case on covers, builds no ``Fraction``.
    """
    p = getattr(field, "p", 0)
    return _sparse(mat, field.coerce if p else _rational), p


def _subtract(row, f, pivot, p=0):
    """``row -= f * pivot`` in place, mod p when p > 0.

    Returns the columns whose entry appeared or vanished.  No product
    ``f * y`` is zero (p is prime), so an entry vanishes only where it was.
    """
    flipped = []
    for j, y in pivot.items():
        x = row.get(j, 0) - f * y
        if p:
            x %= p
        if x:
            if j not in row:
                flipped.append(j)
            row[j] = x
        else:
            del row[j]
            flipped.append(j)
    return flipped


def _eliminate(rows):
    """Pivot the +-1 entries of integer ``rows`` (sparse, modified in place) away.

    Returns the pivot count.  Pivots follow Markowitz's rule, least
    ``(row nnz - 1) * (column nnz - 1)``, in its restricted form: the shortest
    row that holds a +-1 entry comes off a queue of rows bucketed by length,
    and of its +-1 entries the one in the shortest column is taken.  A pivot
    clears its column from the other rows, each of which is queued again, and
    then leaves with its row and column: the rows left nonempty hold no +-1
    entry.
    """
    cols = defaultdict(set)
    waiting = defaultdict(list)     # row length -> rows queued at that length
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
        if row:
            waiting[len(row)].append(i)
    pivots = 0
    while waiting:
        width = min(waiting)
        i = waiting[width].pop()
        if not waiting[width]:
            del waiting[width]
        row = rows[i]
        if len(row) != width:
            continue        # changed since it was queued; queued again then
        units = [j for j, x in row.items() if x == 1 or x == -1]
        if not units:
            continue
        j = min(units, key=lambda j: len(cols[j]))
        u = row[j]          # its own inverse
        for jj in row:
            cols[jj].discard(i)
        for k in list(cols[j]):
            other = rows[k]
            for jj in _subtract(other, other[j] * u, row):
                cols[jj].symmetric_difference_update((k,))   # k joins or leaves
            if other:
                waiting[len(other)].append(k)
        rows[i] = {}
        pivots += 1
    return pivots


def _invariants(rows):
    """Nonzero Smith invariants of an integer matrix: unit pivots, then the core."""
    rows = _sparse(rows)
    ones = [1] * _eliminate(rows)
    core = [row for row in rows if row]
    if not core:
        return ones
    cols = sorted({j for row in core for j in row})
    return ones + snf_invariants([[row.get(j, 0) for j in cols] for row in core])


def quotient_invariants(ambient_rank, relation_rows):
    """Structure of Z^ambient_rank / rowspan as (free_rank, torsion factors)."""
    inv = _invariants(relation_rows)
    return ambient_rank - len(inv), [d for d in inv if d > 1]


# -- field linear algebra ----------------------------------------------------


def field_rank(mat, field):
    """Rank over a field: the number of pivots of a row echelon form."""
    return len(_echelon(*_field_rows(mat, field)))


def spans_saturated(rows, rank, domain):
    """Whether ``rows`` span the saturated lattice of rank ``rank`` they lie in.

    Over a field the lattice is a subspace and this is a rank count.  Over Z
    equal rank leaves ``lattice / span`` torsion, and saturation makes it the
    torsion of ``Z^n / span``, so the Smith invariants must be ``rank`` ones.
    """
    if domain.is_field:
        return field_rank(rows, domain) == rank
    return _invariants(rows) == [1] * rank


def _echelon(rows, p):
    """Row echelon form of sparse ``rows``: ``{pivot column: row}``.

    Columns are taken in increasing order; of the rows leading at a column the
    sparsest becomes its pivot, scaled to 1 there, and the others move on to
    their next leading column.  The rows are modified in place.
    """
    waiting = defaultdict(list)      # leading column -> rows
    width = 0
    for row in rows:
        if row:
            waiting[min(row)].append(row)
            width = max(width, max(row) + 1)
    echelon = {}
    for c in range(width):
        if c not in waiting:
            continue
        group = sorted(waiting.pop(c), key=len)
        u = group[0][c]
        # over Q a unit +-1 is its own inverse, and an integral row stays integral
        inv = pow(u, -1, p) if p else u if u in (1, -1) else 1 / Fraction(u)
        pivot = {j: x * inv % p if p else x * inv for j, x in group[0].items()}
        echelon[c] = pivot
        for row in group[1:]:
            _subtract(row, row[c], pivot, p)
            if row:
                waiting[min(row)].append(row)
    return echelon


def _rref(echelon, p):
    """Reduce a row echelon form from :func:`_echelon` in place.

    Back-substitution from the last pivot clears every pivot column above its
    pivot.  The result is the unique reduced form of the row space, whatever
    rows were chosen as pivots.
    """
    for c in sorted(echelon, reverse=True):
        row = echelon[c]
        for q in [j for j in row if j != c and j in echelon]:
            _subtract(row, row[q], echelon[q], p)
    return echelon


def nullspace(mat, field):
    """Basis of {x : x @ mat = 0} over a field, one vector per free column.

    The equations are the columns of ``mat``.  Each basis vector is 1 at its
    free coordinate and minus that coordinate's entries at the pivots of the
    equations' reduced row echelon form; that form is unique, so the basis
    does not depend on the elimination order.
    """
    n = len(mat)
    rows, p = _field_rows(mat, field)
    equations = defaultdict(dict)
    for i, row in enumerate(rows):
        for j, x in row.items():
            equations[j][i] = x
    reduced = _rref(_echelon(equations.values(), p), p)
    basis = {c: [field.zero] * n for c in range(n) if c not in reduced}
    for pc, row in reduced.items():
        for fc, x in row.items():
            if fc != pc:
                basis[fc][pc] = field.coerce(-x)
    for fc, vec in basis.items():
        vec[fc] = field.one
    return list(basis.values())
