from fractions import Fraction

import pytest
from sympy import GF, Matrix, QQ as SYMPY_QQ, ZZ as SYMPY_ZZ
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

from onerel.covers import _cycle_coordinates, build_cover_complex
from onerel.domains import QQ, ZZ, PrimeFieldDomain
from onerel.foxcalc import QuotientMap
from onerel.intlinalg import (_eliminate, _sparse, _tquot, field_rank, nullspace,
                              quotient_invariants, row_hnf_transform, solve_left,
                              spans_saturated)
from onerel.presentations import parse_presentation, parse_quotient

from conftest import mat_mul


def random_matrix(rng, rows, cols, bound=5):
    return [[rng.randrange(-bound, bound + 1) for _ in range(cols)]
            for _ in range(rows)]


class TestHermite:
    def test_transform_reproduces(self, rng):
        for _ in range(60):
            m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
            h, u = row_hnf_transform(m)
            assert mat_mul(u, m) == h
            # unimodular: integer inverse exists, so determinant is +-1;
            # check via Smith invariants all equal 1
            assert quotient_invariants(len(u), u) == (0, [])

    def test_canonical_under_row_shuffle(self, rng):
        def nonzero_rows(m):
            return [row for row in row_hnf_transform(m)[0] if any(row)]

        for _ in range(40):
            m = random_matrix(rng, 4, 3)
            shuffled = m[:]
            rng.shuffle(shuffled)
            assert nonzero_rows(m) == nonzero_rows(shuffled)


class TestSaturation:
    def test_index_two_sublattice_fails_over_z_only(self):
        rows = [[2, 0], [0, 1]]
        assert not spans_saturated(rows, 2, ZZ)
        assert spans_saturated(rows, 2, QQ)
        assert spans_saturated([[1, 1], [0, 1]], 2, ZZ)

    def test_rank_deficit_fails(self):
        assert not spans_saturated([[1, 1], [2, 2]], 2, ZZ)
        assert not spans_saturated([[1, 1], [2, 2]], 2, PrimeFieldDomain(3))
        assert not spans_saturated([], 1, ZZ)

    def test_zero_lattice_is_spanned_by_nothing(self):
        assert spans_saturated([], 0, ZZ)
        assert spans_saturated([[0, 0]], 0, ZZ)
        assert spans_saturated([], 0, QQ)


class TestSolve:
    def test_solve_left_round_trip(self, rng):
        for _ in range(80):
            m = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
            x = [rng.randrange(-4, 5) for _ in range(len(m))]
            target = mat_mul([x], m)[0]
            sol = solve_left(m, target)
            assert sol is not None
            assert mat_mul([sol], m)[0] == target

    def test_solve_left_detects_impossible(self):
        assert solve_left([[2, 0]], [1, 0]) is None
        assert solve_left([[1, 0]], [0, 1]) is None


class TestSmith:
    def test_divisor_chain(self, rng):
        for _ in range(60):
            cols = rng.randrange(1, 5)
            m = random_matrix(rng, rng.randrange(1, 5), cols)
            inv = smith_from_quotient(cols, m)
            for d1, d2 in zip(inv, inv[1:]):
                assert d2 % d1 == 0
            assert all(d > 0 for d in inv)

    def test_known_forms(self):
        assert smith_from_quotient(2, [[2, 0], [0, 3]]) == [1, 6]
        assert smith_from_quotient(1, [[n] for n in (12,)]) == [12]
        assert smith_from_quotient(2, [[0, 0], [0, 0]]) == []

    def test_quotient_invariants(self):
        free, torsion = quotient_invariants(3, [[2, 0, 0], [0, 3, 0]])
        assert free == 1 and torsion == [2, 3] or (free == 1 and torsion == [6])

    def test_dict_rows_are_copied_and_give_int_invariants(self):
        for value in (2, Fraction(2), 2.0):
            rows = [{0: value, 1: 0}, {1: value * 3}]
            free, torsion = quotient_invariants(3, rows)
            assert (free, torsion) == (1, [2, 6])
            assert all(type(d) is int for d in torsion)
            assert rows == [{0: value, 1: 0}, {1: value * 3}]

    def test_rank_matches_rational_rank(self, rng):
        for _ in range(40):
            m = random_matrix(rng, 3, 4)
            assert len(smith_from_quotient(4, m)) == field_rank(m, QQ)


class TestFieldOps:
    @pytest.mark.parametrize("field", [QQ, PrimeFieldDomain(5)])
    def test_nullspace_annihilates(self, rng, field):
        for _ in range(40):
            m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 4))
            for vec in nullspace(m, field):
                prod = [field.zero] * len(m[0])
                for i, c in enumerate(vec):
                    for j in range(len(m[0])):
                        prod[j] = field.coerce(prod[j] + c * field.coerce(m[i][j]))
                assert not any(prod)

    def test_rank_nullity(self, rng):
        for _ in range(40):
            m = random_matrix(rng, 4, 3)
            assert field_rank(m, QQ) + len(nullspace(m, QQ)) == 4


def random_shapes(rng):
    """Every shape up to 3 x 3, empty ones included, then random matrices with
    torsion (some rows scaled) and zero rows inserted; yields (matrix, cols)."""
    for rows in range(4):
        for cols in range(4):
            yield random_matrix(rng, rows, cols), cols
    for _ in range(150):
        cols = rng.randrange(1, 6)
        m = random_matrix(rng, rng.randrange(1, 6), cols)
        scale = rng.choice((2, 3, 4, 6))
        m = [[scale * x for x in row] if rng.random() < 0.5 else row for row in m]
        for _ in range(rng.randrange(3)):
            m.insert(rng.randrange(len(m) + 1), [0] * cols)
        yield m, cols


def sympy_matrix(m, cols):
    return Matrix(len(m), cols, [x for row in m for x in row])


class TestAgainstSympy:
    def test_smith_invariants(self, rng):
        torsion = 0
        for m, cols in random_shapes(rng):
            expected = sympy_invariants(m, cols)
            assert smith_from_quotient(cols, m) == expected, m
            torsion += any(d > 1 for d in expected)
        assert torsion >= 50

    @pytest.mark.parametrize("p", [None, 2, 5], ids=["Q", "F2", "F5"])
    def test_field_rank(self, rng, p):
        field, sympy_field = (QQ, SYMPY_QQ) if p is None else (PrimeFieldDomain(p), GF(p))
        for m, cols in random_shapes(rng):
            expected = DomainMatrix.from_Matrix(sympy_matrix(m, cols)).convert_to(
                sympy_field).rank()
            assert field_rank(m, field) == expected, m


def kernel_cases(rng):
    """``random_shapes`` plus matrices with entries in -4..4, where rows with
    no +-1 entry are common, and sparse ones with a few unit entries a row."""
    yield from random_shapes(rng)
    for _ in range(60):
        cols = rng.randrange(1, 8)
        m = random_matrix(rng, rng.randrange(1, 8), cols, bound=4)
        if rng.random() < 0.5:
            m = [[x if rng.random() < 0.3 else 0 for x in row] for row in m]
        yield m, cols


def smith_from_quotient(cols, rows):
    """All nonzero Smith invariants, read back from ``quotient_invariants``."""
    free, torsion = quotient_invariants(cols, rows)
    return [1] * (cols - free - len(torsion)) + torsion


def sympy_invariants(m, cols):
    return [int(d) for d in invariant_factors(sympy_matrix(m, cols), domain=SYMPY_ZZ) if d]


def sympy_rank(m, cols, p=None):
    return DomainMatrix.from_Matrix(sympy_matrix(m, cols)).convert_to(
        SYMPY_QQ if p is None else GF(p)).rank()


# Covers whose cycle coordinates keep a core with no unit entry once the unit
# pivots are gone: <a | a^6> at a 3-cycle (H1 = Z/2) and torus-knot covers
# with torsion.
CORE_COVERS = {
    "a6": ("gens: a\nrels: a^6", "a -> (1 2 3)", (0, [2])),
    "t35": ("gens: a, b\nrels: a^3*b^-5", "a -> (1 2)(3 4 5), b -> (1 2)", (1, [5, 5])),
    "t34_s4": ("gens: a, b\nrels: a^3*b^-4", "a -> (2 3 4), b -> (1 2)", (6, [2] * 11)),
    "t34_a4": ("gens: a, b\nrels: a^3*b^-4", "a -> (1 2 3), b -> (1 2)(3 4)",
               (4, [2] * 5)),
}


class TestKernel:
    """The sparse kernel against sympy, the dense Smith form and each other."""

    def test_smith_invariants_against_sympy(self, rng):
        without_unit = 0
        for m, cols in kernel_cases(rng):
            expected = sympy_invariants(m, cols)
            assert smith_from_quotient(cols, m) == expected, m
            sparse = [{j: x for j, x in enumerate(row) if x} for row in m]
            assert smith_from_quotient(cols, sparse) == expected, m
            without_unit += any(any(row) and 1 not in row and -1 not in row for row in m)
        assert without_unit >= 50

    def test_quotient_invariants_against_sympy(self, rng):
        for m, cols in kernel_cases(rng):
            factors = sympy_invariants(m, cols)
            assert quotient_invariants(cols, m) == (
                cols - len(factors), [d for d in factors if d > 1]), m

    @pytest.mark.parametrize("p", [None, 2, 5], ids=["Q", "F2", "F5"])
    def test_rank_against_sympy(self, rng, p):
        field = QQ if p is None else PrimeFieldDomain(p)
        for m, cols in kernel_cases(rng):
            assert field_rank(m, field) == sympy_rank(m, cols, p), m

    def test_universal_coefficients(self, rng):
        """The F_p rank is the number of Smith invariants that p does not divide."""
        torsion = 0
        for m, cols in kernel_cases(rng):
            invariants = smith_from_quotient(cols, m)
            torsion += any(d > 1 for d in invariants)
            for p in (2, 3, 5, 7):
                assert field_rank(m, PrimeFieldDomain(p)) == sum(
                    1 for d in invariants if d % p), (m, p)
        assert torsion >= 50

    @pytest.mark.parametrize("case", sorted(CORE_COVERS))
    def test_cover_with_a_dense_core(self, case):
        text, images, expected = CORE_COVERS[case]
        p = parse_presentation(text)
        q = QuotientMap.permutation(p, parse_quotient(images, p.names))
        coords, n_cycles = _cycle_coordinates(build_cover_complex(p, q))
        assert _eliminate(_sparse(coords))[1], "no non-unit pivot was taken"
        dense = [[row.get(j, 0) for j in range(n_cycles)] for row in coords]
        factors = sympy_invariants(dense, n_cycles)
        assert quotient_invariants(n_cycles, coords) == expected == (
            n_cycles - len(factors), [d for d in factors if d > 1])

    def test_products_of_random_matrices(self, rng):
        """A product has the Smith invariants of neither factor, and few units."""
        torsion = 0
        for _ in range(150):
            inner, cols = rng.randrange(1, 5), rng.randrange(1, 6)
            a = random_matrix(rng, rng.randrange(1, 6), inner, bound=3)
            m = mat_mul(a, random_matrix(rng, inner, cols, bound=3))
            expected = sympy_invariants(m, cols)
            assert smith_from_quotient(cols, m) == expected, m
            torsion += any(d > 1 for d in expected)
        assert torsion >= 50

    def test_block_diagonal_torsion(self):
        """Cyclic orders are combined into invariant factors by gcd and lcm."""
        assert smith_from_quotient(3, [[4, 0, 0], [0, 6, 0], [0, 0, 10]]) == [2, 2, 60]
        orders = [2] * 50 + [3] * 30 + [4] * 5
        diagonal = [{k: d} for k, d in enumerate(orders)]
        assert smith_from_quotient(len(orders), diagonal) == (
            [1] * 30 + [2] * 25 + [6] * 25 + [12] * 5)

    def test_a_long_column_of_twos(self, rng):
        for n in (1, 2, 500):
            column = [[rng.choice((2, -2))] for _ in range(n)]
            assert quotient_invariants(1, column) == (0, [2])
            assert quotient_invariants(3, [row + [0, 2 * row[0]] for row in column]) == (
                2, [2])

    def test_unit_and_two_rows_with_mixed_signs(self, rng):
        """Entries of either sign smaller than the pivot leave their rows as
        they are: the quotient is truncated, not floored."""
        assert [_tquot(y, x) for y, x in ((-1, 2), (1, -2), (-5, 2), (5, -2), (6, 3))] == [
            0, 0, -2, -2, 2]
        for _ in range(150):
            cols = rng.randrange(1, 7)
            m = [[rng.choice((0, 0, 1, -1, 2, -2, 2, -2)) for _ in range(cols)]
                 for _ in range(rng.randrange(1, 7))]
            assert smith_from_quotient(cols, m) == sympy_invariants(m, cols), m

    def test_nullspace_against_sympy_over_q(self, rng):
        """The basis is sympy's, vector for vector: both read it off the unique
        reduced row echelon form of the equations (the columns)."""
        for m, cols in kernel_cases(rng):
            if not m:
                continue
            expected = [[Fraction(int(x.p), int(x.q)) for x in vec]
                        for vec in sympy_matrix(m, cols).T.nullspace()]
            assert nullspace(m, QQ) == expected, m

    def test_rational_entries_against_sympy(self, rng):
        """Over Q integral values are eliminated as ints; entries with
        denominators, and the rows they meet, as ``Fraction``s."""
        fractional = 0
        for m, cols in kernel_cases(rng):
            m = [[Fraction(x, rng.choice((1, 1, 2, 3))) for x in row] for row in m]
            fractional += any(x.denominator > 1 for row in m for x in row)
            assert field_rank(m, QQ) == sympy_rank(m, cols), m
            if not m:
                continue
            expected = [[Fraction(int(x.p), int(x.q)) for x in vec]
                        for vec in sympy_matrix(m, cols).T.nullspace()]
            basis = nullspace(m, QQ)
            assert basis == expected, m
            assert all(type(x) is Fraction for vec in basis for x in vec)
        assert fractional >= 50

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_nullspace_over_prime_fields(self, rng, p):
        field = PrimeFieldDomain(p)
        for m, cols in kernel_cases(rng):
            basis = nullspace(m, field)
            assert len(basis) == len(m) - sympy_rank(m, cols, p), m
            for vec in basis:
                assert all(0 <= x < p for x in vec)
                assert all(sum(x * row[j] for x, row in zip(vec, m)) % p == 0
                           for j in range(cols)), (m, vec)
            if basis:
                assert sympy_rank(basis, len(m), p) == len(basis)
