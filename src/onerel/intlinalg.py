"""Exact linear algebra: one sparse Smith kernel over Z, one echelon over fields.

A matrix is a list of rows, each a dense list or a sparse dict
``{column: value}``.  Conventions are row-centric throughout: lattices are
spanned by rows, kernels are left kernels ``{x : x @ M = 0}``, matching chain
complexes that act on row vectors from the right.  Integer routines use
Python's arbitrary-precision ints; field routines take a
:class:`~onerel.domains.Domain` with ``is_field`` set and work on plain ints
mod p over F_p, and over Q on ints where a value is integral and on
``Fraction`` elsewhere.

Over Z one sparse kernel, :func:`_eliminate`, gives the Smith invariants:
each pivot divides every entry of its row and of its column, so clearing it
splits off a cyclic factor of the cokernel.  Unit pivots come first, in
Markowitz order; each such row-and-column step is unimodular (a reduction in
the sense of Kaczynski, Mrozek and Slusarek, Comput. Math. Appl. 35, 1998),
as in the elimination-based Smith form of Dumas, Saunders and Villard
(J. Symbolic Comput. 32, 2001).  Rows without a unit entry are reduced by
Euclidean steps to such a pivot, as in the sparse elimination of Havas, Holt
and Rees (Linear Algebra Appl. 192, 1993) and Havas and Majewski
(J. Symbolic Comput. 24, 1997), and :func:`_invariants` combines the cyclic
orders into invariant factors.  Over a field every route goes through one
sparse row echelon form, :func:`_echelon`, which eliminates in column order:
its length is the rank, and :func:`nullspace` back-substitutes it into the
canonical reduced form.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd

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
    v = x if isinstance(x, Fraction) else Fraction(x)
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


def _tquot(y, x):
    """The quotient of ``y`` by ``x`` truncated toward zero.

    It is 0 when ``|y| < |x|``, where a floored quotient may be -1 and add
    fill without making the entry smaller.
    """
    q = abs(y) // abs(x)
    return q if (y < 0) == (x < 0) else -q


def _euclid(rows, cols, waiting, i):
    """Euclidean steps from the least entry of row ``i`` to a pivot ``(i, j)``.

    The pivot's column is cleared by row operations, each row queued again,
    and then its row is reduced by column operations, which change no other
    row once the column is clear.  A nonzero remainder is smaller than the
    pivot and takes its place, so the steps end at a pivot alone in its
    column that divides its row.
    """
    row = rows[i]
    j = min(row, key=lambda j: abs(row[j]))
    while True:
        x = row[j]
        for k in cols[j] - {i}:
            other = rows[k]
            if q := _tquot(other[j], x):
                for jj in _subtract(other, q, row):
                    cols[jj].symmetric_difference_update((k,))
                if other:
                    waiting[len(other)].append(k)
        if rest := cols[j] - {i}:
            i = min(rest, key=lambda k: abs(rows[k][j]))
            row = rows[i]
            continue
        off = {jj: y - _tquot(y, x) * x for jj, y in row.items() if y % x}
        if not off:
            return i, j
        row.update(off)
        j = min(off, key=lambda jj: abs(off[jj]))


def _eliminate(rows):
    """Pivot integer ``rows`` (sparse, modified in place) away.

    Returns the pivot count, which is the rank, and the orders |x| > 1 of the
    pivots x that are not units.  A pivot divides every entry of its row and
    of its column, so clearing both splits off a cyclic factor Z/|x| of the
    cokernel.  The +-1 pivots come first, in Markowitz's restricted order,
    least ``(row nnz - 1) * (column nnz - 1)``: the shortest row that holds a
    +-1 entry comes off a queue of rows bucketed by length, and of its +-1
    entries the one in the shortest column is taken.  A row without one waits
    in a second queue, which is used only when no unit pivot is left:
    :func:`_euclid` brings the least entry of its shortest row to a pivot.  A
    pivot clears its column from the other rows, each of which is queued
    again, and then leaves with its row and column.
    """
    cols = defaultdict(set)
    waiting = defaultdict(list)     # row length -> rows queued at that length
    stuck = defaultdict(list)       # the same for rows found without a +-1 entry
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
        if row:
            waiting[len(row)].append(i)
    pivots, orders = 0, []
    while waiting or stuck:
        queue = waiting or stuck
        width = min(queue)
        i = queue[width].pop()
        if not queue[width]:
            del queue[width]
        row = rows[i]
        if len(row) != width:
            continue        # changed since it was queued; queued again then
        if queue is stuck:
            i, j = _euclid(rows, cols, waiting, i)
            row = rows[i]
            if (order := abs(row[j])) > 1:
                orders.append(order)
        else:
            j, least = None, len(rows) + 1     # no column is longer than the row count
            for jj, x in row.items():
                if (x == 1 or x == -1) and (m := len(cols[jj])) < least:
                    j, least = jj, m
            if j is None:
                stuck[width].append(i)
                continue
        u = row.pop(j)      # +-1, its own inverse, unless the column is clear
        rows[i] = {}
        for jj in row:
            cols[jj].discard(i)
        column = cols.pop(j)
        column.discard(i)
        for k in column:
            other = rows[k]
            f = other.pop(j) * u
            for jj, y in row.items():
                x = other.get(jj)
                if x is None:
                    other[jj] = -f * y
                    cols[jj].add(k)
                elif x := x - f * y:
                    other[jj] = x
                else:
                    del other[jj]
                    cols[jj].discard(k)
            if other:
                waiting[len(other)].append(k)
        pivots += 1
    return pivots, orders


def _invariants(orders):
    """Invariant factors d1 | d2 | ... > 1 of the sum of the groups Z/n, n in ``orders``.

    Orders that do not divide one another are exchanged pairwise, Z/a + Z/b
    = Z/gcd(a, b) + Z/lcm(a, b), the copies of one pair together, so no order
    is factored.
    """
    counts = Counter(orders)
    while pair := next(((a, b) for a in counts for b in counts if a < b and b % a), None):
        a, b = pair
        m, g = min(counts[a], counts[b]), gcd(a, b)
        counts.subtract({a: m, b: m})
        counts.update({g: m, a // g * b: m})
        counts = +counts
    return sorted(d for d in counts.elements() if d > 1)


def quotient_invariants(ambient_rank, relation_rows):
    """Structure of Z^ambient_rank / rowspan as (free_rank, torsion factors)."""
    return quotient_invariants_in_place(ambient_rank, _sparse(relation_rows))


def quotient_invariants_in_place(ambient_rank, rows):
    """``quotient_invariants`` of sparse ``{column: nonzero int}`` rows.

    The rows are eliminated in place, so the caller hands them over.
    """
    rank, orders = _eliminate(rows)
    return ambient_rank - rank, _invariants(orders) if orders else orders


# -- field linear algebra ----------------------------------------------------


def field_rank(mat, field):
    """Rank over a field: the number of pivots of a row echelon form."""
    return len(_echelon(*_field_rows(mat, field)))


def spans_saturated(rows, rank, domain):
    """Whether ``rows`` span the saturated lattice of rank ``rank`` they lie in.

    Over a field the lattice is a subspace and this is a rank count.  Over Z
    equal rank leaves ``lattice / span`` torsion, and saturation makes it the
    torsion of ``Z^n / span``, so the Smith invariants must be ``rank`` ones:
    the kernel takes ``rank`` pivots, every one a unit.
    """
    if domain.is_field:
        return field_rank(rows, domain) == rank
    return _eliminate(_sparse(rows)) == (rank, [])


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
