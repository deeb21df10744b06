import itertools

import pytest

from onerel import trapezoid
from onerel.domains import ZZ, PrimeFieldDomain
from onerel.errors import InputError, UnsupportedError
from onerel.foxcalc import QuotientMap, resolution_complex
from onerel.groupring import GroupRingElement, GroupRingMatrix
from onerel.oracles import ModOracle, ZPowOracle
from onerel.presentations import parse_presentation
from onerel.trapezoid import (ImpossibleProof, StaircaseCertificate,
                              TrapezoidViolation, certify_diagonal,
                              find_staircase, is_lower_trapezoidal)

Z2 = ZPowOracle(2)


def zmatrix(pattern, oracle=Z2, nonzero=None, ncols=None):
    """Build a matrix whose entries are 0 or a fixed nonzero element."""
    if nonzero is None:
        nonzero = GroupRingElement.one(oracle, ZZ)
    zero = GroupRingElement.zero(oracle, ZZ)
    return GroupRingMatrix(oracle, ZZ,
                           [[nonzero if v else zero for v in row] for row in pattern],
                           ncols=ncols)


def brute_force_exists(pattern, row_free):
    """Independent oracle: try every row and column permutation."""
    m = len(pattern)
    n = len(pattern[0]) if pattern else 0
    if m == 0:
        return True
    row_orders = itertools.permutations(range(m)) if row_free else [tuple(range(m))]
    for rows in row_orders:
        for cols in itertools.permutations(range(n)):
            last = -1
            ok = True
            for r in rows:
                j = max((k for k in range(n) if pattern[r][cols[k]]), default=None)
                if j is None or j <= last:
                    ok = False
                    break
                last = j
            if ok:
                return True
    return False


def brute_force_first(pattern, ncols, row_free):
    """Independent oracle: the staircase of the first working column order.

    Column orders are tried in ``itertools.permutations`` order; rows are
    sorted by last nonzero position in row-free mode and stay put otherwise.
    Returns ``(rows, cols, diag)``, or None when no column order works.
    """
    rows = range(len(pattern))
    for cols in itertools.permutations(range(ncols)):
        lasts = [max((k for k in range(ncols) if pattern[r][cols[k]]), default=None)
                 for r in rows]
        if None in lasts:
            continue
        order = sorted(rows, key=lasts.__getitem__) if row_free else list(rows)
        diag = [lasts[r] for r in order]
        if all(a < b for a, b in zip(diag, diag[1:])):
            return tuple(order), cols, tuple(diag)
    return None


def random_pattern(rng, max_rows, max_cols):
    m, n = rng.randint(0, max_rows), rng.randint(0, max_cols)
    density = rng.choice((0.25, 0.4, 0.55, 0.7))
    return [[rng.random() < density for _ in range(n)] for _ in range(m)], n


class TestIsLowerTrapezoidal:
    def test_identity_orders_accept(self):
        m = zmatrix([[1, 0], [1, 1]])
        cert = is_lower_trapezoidal(m, (0, 1), (0, 1))
        assert isinstance(cert, StaircaseCertificate)
        assert cert.diag == (0, 1)

    def test_single_nonzero_row_always_accepts(self):
        m = zmatrix([[0, 1, 0, 1]])
        cert = is_lower_trapezoidal(m, (0,), (0, 1, 2, 3))
        assert isinstance(cert, StaircaseCertificate)

    def test_full_two_by_two_rejected(self):
        m = zmatrix([[1, 1], [1, 1]])
        v = is_lower_trapezoidal(m, (0, 1), (0, 1))
        assert isinstance(v, TrapezoidViolation)
        assert v.row == 1

    def test_zero_row_rejected(self):
        m = zmatrix([[1, 1], [0, 0]])
        v = is_lower_trapezoidal(m, (0, 1), (0, 1))
        assert isinstance(v, TrapezoidViolation)
        assert v.reason == "zero row"

    def test_bad_orders_rejected(self):
        m = zmatrix([[1]])
        with pytest.raises(InputError):
            is_lower_trapezoidal(m, (0, 1), (0,))


class TestFindStaircase:
    def test_row_swap_fixes(self):
        m = zmatrix([[1, 1], [1, 0]])
        cert = find_staircase(m)
        assert isinstance(cert, StaircaseCertificate)
        check = is_lower_trapezoidal(m, cert.rows, cert.cols)
        assert isinstance(check, StaircaseCertificate)

    def test_full_two_by_two_impossible(self):
        proof = find_staircase(zmatrix([[1, 1], [1, 1]]))
        assert isinstance(proof, ImpossibleProof)

    def test_one_by_two_from_derivatives(self):
        p = parse_presentation("gens: a, b\nrels: a^2*b^-3")
        phi = QuotientMap.to_abelian(p, {0: 3, 1: 2})
        matrix = resolution_complex(p, phi).d2
        cert = find_staircase(matrix)
        assert isinstance(cert, StaircaseCertificate)
        assert cert.diag == (1,)  # both entries nonzero: staircase tops out

    def test_cap_enforced(self):
        big = zmatrix([[1] * 13])
        with pytest.raises(UnsupportedError):
            find_staircase(big)

    def test_lexicographically_least_column_order(self):
        # two valid staircases exist; the lex-least column order must win
        m = zmatrix([[1, 0, 0], [1, 1, 1]])
        cert = find_staircase(m)
        assert cert.cols == (0, 1, 2)

    def test_row_fixed_mode(self):
        m = zmatrix([[0, 1], [1, 1]])
        free = find_staircase(m, allow_row_permutation=True)
        fixed = find_staircase(m, allow_row_permutation=False)
        assert isinstance(free, StaircaseCertificate)
        assert isinstance(fixed, StaircaseCertificate)
        assert fixed.rows == (0, 1)

    def test_scalar_row_scaling_preserves_existence(self, rng):
        oracle = Z2
        for _ in range(30):
            pattern = [[rng.random() < 0.5 for _ in range(4)] for _ in range(3)]
            base = zmatrix(pattern)
            scaled_rows = []
            for row in base.entries:
                c = rng.choice([1, -1, 2, 5])
                scaled_rows.append([e.scale(c) for e in row])
            scaled = GroupRingMatrix(oracle, ZZ, scaled_rows)
            r1 = find_staircase(base)
            r2 = find_staircase(scaled)
            assert isinstance(r1, StaircaseCertificate) == \
                isinstance(r2, StaircaseCertificate)

    @pytest.mark.parametrize("row_free", [True, False])
    def test_agrees_with_brute_force_small_random(self, rng, row_free):
        for _ in range(150):
            m = rng.randrange(1, 4)
            n = rng.randrange(1, 4)
            pattern = [[rng.random() < 0.55 for _ in range(n)] for _ in range(m)]
            result = find_staircase(zmatrix(pattern), allow_row_permutation=row_free)
            assert isinstance(result, StaircaseCertificate) == \
                brute_force_exists(pattern, row_free)

    @pytest.mark.parametrize("row_free", [True, False])
    def test_certificate_is_the_first_in_permutation_order(self, rng, row_free):
        for _ in range(300):
            pattern, n = random_pattern(rng, 5, 5)
            result = find_staircase(zmatrix(pattern, ncols=n),
                                    allow_row_permutation=row_free)
            expected = brute_force_first(pattern, n, row_free)
            if expected is None:
                assert isinstance(result, ImpossibleProof)
            else:
                assert (result.rows, result.cols, result.diag) == expected

    @pytest.mark.parametrize("row_free", [True, False])
    def test_impossible_rows_block_every_column_order(self, rng, row_free):
        proofs = 0
        for _ in range(300):
            pattern, n = random_pattern(rng, 6, 5)
            result = find_staircase(zmatrix(pattern, ncols=n),
                                    allow_row_permutation=row_free)
            if isinstance(result, StaircaseCertificate):
                continue
            proofs += 1
            rows = list(result.rows)
            assert rows and rows == sorted(set(rows)) and rows[-1] < len(pattern)
            assert result.mode == ("row-free" if row_free else "row-fixed")
            assert result.reason.startswith(f"rows {rows} block every column order")
            # the named rows alone, in their given order, admit no staircase
            assert brute_force_first([pattern[r] for r in rows], n, row_free) is None
        assert proofs > 50

    @pytest.mark.parametrize("row_free", [True, False])
    def test_zero_row_and_more_rows_than_columns_refused(self, row_free):
        zero_row = find_staircase(zmatrix([[1, 1], [0, 0]]),
                                  allow_row_permutation=row_free)
        assert isinstance(zero_row, ImpossibleProof)
        # in row-fixed mode row 0 cannot finish after the zero row 1 either
        assert zero_row.rows == ((1,) if row_free else (0, 1))
        tall = find_staircase(zmatrix([[1, 0], [0, 1], [1, 1]]),
                              allow_row_permutation=row_free)
        assert isinstance(tall, ImpossibleProof)
        assert tall.rows == (0, 1, 2)

    @pytest.mark.parametrize("row_free", [True, False])
    def test_blocking_row_sets_admit_no_staircase(self, rng, row_free):
        blocked = 0
        for _ in range(300):
            pattern, n = random_pattern(rng, 5, 5)
            masks = trapezoid._pattern_masks(pattern)
            rows = sorted(rng.sample(range(len(pattern)),
                                     rng.randint(0, len(pattern))))
            if trapezoid._blocks(masks, rows, n, not row_free):
                blocked += 1
                assert brute_force_first([pattern[r] for r in rows], n,
                                         row_free) is None
        assert blocked > 20

    def test_a_row_set_that_does_not_block_is_not_returned(self, monkeypatch):
        # column 1 finishes row 1 alone, so rows [0, 1] are no proof
        monkeypatch.setattr(trapezoid, "_peel", lambda *args: [0, 1])
        with pytest.raises(AssertionError):
            find_staircase(zmatrix([[1, 0], [1, 1]]))

    def test_impossible_reason_names_the_rows(self):
        m = zmatrix([[1, 1], [0, 1]])
        assert find_staircase(m, allow_row_permutation=False).reason == (
            "rows [0, 1] block every column order: each column meeting them "
            "meets at least two, or one that is not row 1")
        assert find_staircase(zmatrix([[1, 1], [1, 1]])).reason == (
            "rows [0, 1] block every column order: each column meeting them "
            "meets at least two")


class TestCertifyDiagonal:
    def test_ordered_oracle_certificates(self):
        p = parse_presentation("gens: a, b\nrels: [a, b]")
        matrix = resolution_complex(p, QuotientMap.abelianization(p)).d2
        cert = find_staircase(matrix)
        report = certify_diagonal(matrix, cert, strategy="orderedOracle")
        assert report.all_non_engulfing
        assert all(r.status == "certified_by_order" for r in report.certificates)

    def test_finite_search_finds_witness(self):
        o = ModOracle(2)
        F3 = PrimeFieldDomain(3)
        entry = GroupRingElement(o, F3, [(0, 1), (1, 1)])
        matrix = GroupRingMatrix(o, F3, [[entry]])
        cert = find_staircase(matrix)
        report = certify_diagonal(matrix, cert, strategy="finiteSearch")
        assert not report.all_non_engulfing

    def test_empty_matrix_vacuous(self):
        matrix = GroupRingMatrix(Z2, ZZ, [])
        cert = find_staircase(matrix)
        report = certify_diagonal(matrix, cert, strategy="orderedOracle")
        assert report.all_non_engulfing
        assert report.certificates == []
