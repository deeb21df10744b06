"""Staircase-shape certification for group-ring matrices.

A matrix is in staircase (lower trapezoidal) position when, under the chosen
row and column orders, the last nonzero column index of each row strictly
increases down the rows.  Shape decisions work purely on the zero/nonzero
pattern; entry values only matter when certifying the diagonal.

Existence is decided by peeling (Hellerman and Rarick's preassigned pivot
procedure): a column that meets at most one remaining row can be placed
last, and placing it finishes that row.  When peeling clears every row, the
lexicographically least column order is built left to right with peeling as
the feasibility test.  When it sticks, the rows left block every column
order, and that row set is re-verified and returned as the proof.

All indices in certificates are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, UnsupportedError
from .groupring import (GroupRingMatrix, engulfing_search_finite,
                        non_engulfing_certificate_ordered)


@dataclass(frozen=True)
class StaircaseCertificate:
    rows: tuple  # permutation: position -> original row index
    cols: tuple  # permutation: position -> original column index
    diag: tuple  # per row position, the column position of its last nonzero

    def render(self):
        return (f"rows: {list(self.rows)} cols: {list(self.cols)} "
                f"diag: {list(self.diag)}")


@dataclass(frozen=True)
class TrapezoidViolation:
    row: int | None
    column: int | None
    reason: str


@dataclass(frozen=True)
class ImpossibleProof:
    mode: str
    rows: tuple  # sorted original indices of a row set blocking every column order
    reason: str


def _validate_perm(perm, size, what):
    perm = tuple(perm)
    if sorted(perm) != list(range(size)):
        raise InputError(f"{what} order is not a permutation of 0..{size - 1}")
    return perm


def is_lower_trapezoidal(matrix: GroupRingMatrix, row_order, col_order):
    """Check the staircase property under explicit orders.

    Returns a :class:`StaircaseCertificate` or a :class:`TrapezoidViolation`
    locating the first offending row.
    """
    row_order = _validate_perm(row_order, matrix.nrows, "row")
    col_order = _validate_perm(col_order, matrix.ncols, "column")
    pattern = matrix.pattern()
    diag = []
    last = -1
    for pos, r in enumerate(row_order):
        row = pattern[r]
        j = max((k for k in range(matrix.ncols) if row[col_order[k]]), default=None)
        if j is None:
            return TrapezoidViolation(row=r, column=None, reason="zero row")
        if j <= last:
            return TrapezoidViolation(
                row=r, column=col_order[j],
                reason=f"row at position {pos} repeats or decreases the staircase")
        diag.append(j)
        last = j
    return StaircaseCertificate(rows=row_order, cols=col_order, diag=tuple(diag))


def _pattern_masks(pattern):
    return [sum(1 << j for j, v in enumerate(row) if v) for row in pattern]


def _last_meets(masks, rows, col, row_fixed):
    """The rows of sorted ``rows`` that ``col`` meets, if it can be placed last.

    Placed after every other column, ``col`` finishes each row it meets, so
    it can be placed last when it meets at most one row; in row-fixed mode
    that row must also be the highest-indexed one.  Returns None otherwise.
    """
    meets = [r for r in rows if masks[r] >> col & 1]
    if len(meets) > 1 or (row_fixed and meets and meets[0] != rows[-1]):
        return None
    return meets


def _peel(masks, rows, cols, row_fixed):
    """The rows left when no column of ``cols`` can be placed last.

    Moving a column that can be placed last to the end of any staircase
    order changes no other row's last position, so peeling it and the row
    it finishes keeps the answer.  Eligibility only grows as rows and
    columns leave, so the rows left do not depend on the peeling order; they
    are empty exactly when the pattern has a staircase.
    """
    rows, cols = sorted(rows), list(cols)
    while True:
        for col in cols:
            meets = _last_meets(masks, rows, col, row_fixed)
            if meets is not None:
                break
        else:
            return rows
        cols.remove(col)
        rows = [r for r in rows if r not in meets]


def _blocks(masks, rows, ncols, row_fixed):
    """Whether nonempty ``rows`` admit no column order, checked in O(mn).

    In any order, the last column meeting ``rows`` finishes every row of
    them it meets.  So no order works when each column meeting them meets
    at least two, or in row-fixed mode one that is not the highest-indexed.
    """
    return bool(rows) and not any(_last_meets(masks, rows, col, row_fixed)
                                  for col in range(ncols))


def _least_order(masks, ncols, row_fixed):
    """The least column order, and the rows in the order they finish.

    Columns go left to right.  Each step takes the least column that
    finishes at most one open row (in row-fixed mode, the next row) and
    leaves rows and columns that still peel to nothing; the pattern must
    have a staircase.
    """
    rows, cols, placed = list(range(len(masks))), list(range(ncols)), 0
    order, finished = [], []
    for _ in range(ncols):
        for col in cols:
            done = [r for r in rows if masks[r] & ~(placed | 1 << col) == 0]
            rest = [r for r in rows if r not in done]
            if (len(done) < 2 and not (row_fixed and done and done[0] != rows[0])
                    and not _peel(masks, rest, (c for c in cols if c != col), row_fixed)):
                break
        else:
            raise AssertionError(f"no column extends the staircase order {order}")
        order.append(col)
        finished += done
        rows = rest
        cols.remove(col)
        placed |= 1 << col
    return order, finished


def find_staircase(matrix: GroupRingMatrix, allow_row_permutation=True, cap=12):
    """Decide by peeling whether the support pattern has a staircase.

    With row permutation allowed (the default) any row order may be used;
    otherwise rows stay in matrix order.  Deterministic: a certificate has
    the lexicographically least column order, with rows in the order their
    last nonzero comes.  Otherwise an :class:`ImpossibleProof` names a row
    set that blocks every column order, re-verified before it is returned.
    The decision is polynomial, so ``cap`` is a bound on the shape rather
    than on the time; matrices over it are refused with ``UnsupportedError``.
    """
    m, n = matrix.shape
    if m > cap or n > cap:
        raise UnsupportedError(
            f"shape {m}x{n} exceeds the exact-search cap {cap}")
    row_fixed = not allow_row_permutation
    masks = _pattern_masks(matrix.pattern())
    stuck = _peel(masks, range(m), range(n), row_fixed)
    if stuck:
        if not _blocks(masks, stuck, n, row_fixed):
            raise AssertionError(f"peeling stuck on rows {stuck} that do not block")
        reason = (f"rows {stuck} block every column order: each column meeting "
                  "them meets at least two")
        if row_fixed:
            reason += f", or one that is not row {stuck[-1]}"
        return ImpossibleProof(mode="row-fixed" if row_fixed else "row-free",
                               rows=tuple(stuck), reason=reason)
    order, rows = _least_order(masks, n, row_fixed)
    cert = is_lower_trapezoidal(matrix, rows, order)
    if not isinstance(cert, StaircaseCertificate):
        raise AssertionError(f"peeling produced an invalid certificate: {cert}")
    return cert


@dataclass
class DiagonalReport:
    certificates: list = field(default_factory=list)  # per-diagonal EngulfingReport
    all_non_engulfing: bool = True


def certify_diagonal(matrix: GroupRingMatrix, cert: StaircaseCertificate,
                     strategy="orderedOracle") -> DiagonalReport:
    """Delegate each staircase diagonal entry to a left engulfing check.

    ``orderedOracle`` uses the oracle's right-invariant order (never finds a
    witness); ``finiteSearch`` runs the exhaustive finite-group search and
    may disprove the diagonal.
    """
    if strategy not in ("orderedOracle", "finiteSearch"):
        raise InputError(f"unknown strategy {strategy!r}")
    report = DiagonalReport()
    for pos, r in enumerate(cert.rows):
        entry = matrix.entry(r, cert.cols[cert.diag[pos]])
        if strategy == "orderedOracle":
            rep = non_engulfing_certificate_ordered(entry)
        else:
            rep = engulfing_search_finite(entry)
        report.certificates.append(rep)
        if rep.engulfing:
            report.all_non_engulfing = False
    return report
