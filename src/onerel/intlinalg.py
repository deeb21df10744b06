"""Exact linear algebra: Hermite/Smith forms over Z, row reduction over fields.

All matrices are lists of row lists.  Integer routines use Python's
arbitrary-precision ints; field routines take a :class:`~onerel.domains.Domain`
with ``is_field`` set.  Conventions are row-centric throughout: lattices are
spanned by rows, kernels are left kernels ``{x : x @ M = 0}``, matching chain
complexes that act on row vectors from the right.
"""

from __future__ import annotations

from .errors import InputError


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise InputError("matrix shape mismatch")
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for k, x in enumerate(row):
            if x:
                bk = b[k]
                for j in range(cols):
                    acc[j] += x * bk[j]
        out.append(acc)
    return out


def is_zero_matrix(m):
    return all(all(x == 0 for x in row) for row in m)


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


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


def quotient_invariants(ambient_rank, relation_rows):
    """Structure of Z^ambient_rank / rowspan as (free_rank, torsion factors)."""
    if not relation_rows:
        return ambient_rank, []
    inv = snf_invariants(relation_rows)
    torsion = [d for d in inv if d > 1]
    return ambient_rank - len(inv), torsion


# -- field linear algebra ----------------------------------------------------


def rref(mat, field):
    """Reduced row echelon form over a field: returns (R, pivot columns)."""
    m = [[field.coerce(x) for x in row] for row in mat]
    rows, cols = len(m), (len(m[0]) if m else 0)
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not field.is_zero(m[i][c])), None)
        if pr is None:
            continue
        _swap(m, r, pr)
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def field_rank(mat, field):
    return len(rref(mat, field)[1])


def spans_saturated(rows, rank, domain):
    """Whether ``rows`` span the saturated lattice of rank ``rank`` they lie in.

    Over a field the lattice is a subspace and this is a rank count.  Over Z
    equal rank leaves ``lattice / span`` torsion, and saturation makes it the
    torsion of ``Z^n / span``, so the Smith invariants must be ``rank`` ones.
    """
    if domain.is_field:
        return field_rank(rows, domain) == rank
    return snf_invariants(rows) == [1] * rank


def nullspace(mat, field):
    """Basis of {x : x @ mat = 0} over a field, from the rref of mat^T."""
    mt = transpose(mat)
    red, pivots = rref(mt, field)
    n = len(mat)
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [field.zero] * n
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(red[r][fc])
        basis.append(vec)
    return basis
