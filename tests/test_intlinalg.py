import pytest
from sympy import GF, Matrix, QQ as SYMPY_QQ, ZZ as SYMPY_ZZ
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

from onerel.domains import QQ, ZZ, PrimeFieldDomain
from onerel.intlinalg import (field_rank, mat_mul, nullspace, quotient_invariants,
                              row_hnf_transform, snf_invariants, solve_left,
                              spans_saturated)


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
            # check via SNF invariants all equal 1
            assert snf_invariants(u) == [1] * len(u)

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
            m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
            inv = snf_invariants(m)
            for d1, d2 in zip(inv, inv[1:]):
                assert d2 % d1 == 0
            assert all(d > 0 for d in inv)

    def test_known_forms(self):
        assert snf_invariants([[2, 0], [0, 3]]) == [1, 6]
        assert snf_invariants([[n] for n in (12,)]) == [12]
        assert snf_invariants([[0, 0], [0, 0]]) == []

    def test_quotient_invariants(self):
        free, torsion = quotient_invariants(3, [[2, 0, 0], [0, 3, 0]])
        assert free == 1 and torsion == [2, 3] or (free == 1 and torsion == [6])

    def test_rank_matches_rational_rank(self, rng):
        for _ in range(40):
            m = random_matrix(rng, 3, 4)
            assert len(snf_invariants(m)) == field_rank(m, QQ)


class TestFieldOps:
    @pytest.mark.parametrize("field", [QQ, PrimeFieldDomain(5)])
    def test_nullspace_annihilates(self, rng, field):
        for _ in range(40):
            m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 4))
            for vec in nullspace(m, field):
                prod = [field.zero] * len(m[0])
                for i, c in enumerate(vec):
                    for j in range(len(m[0])):
                        prod[j] = field.add(prod[j], field.mul(c, field.coerce(m[i][j])))
                assert all(field.is_zero(x) for x in prod)

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
            expected = [int(d) for d in
                        invariant_factors(sympy_matrix(m, cols), domain=SYMPY_ZZ) if d]
            assert snf_invariants(m) == expected, m
            torsion += any(d > 1 for d in expected)
        assert torsion >= 50

    @pytest.mark.parametrize("p", [None, 2, 5], ids=["Q", "F2", "F5"])
    def test_field_rank(self, rng, p):
        field, sympy_field = (QQ, SYMPY_QQ) if p is None else (PrimeFieldDomain(p), GF(p))
        for m, cols in random_shapes(rng):
            expected = DomainMatrix.from_Matrix(sympy_matrix(m, cols)).convert_to(
                sympy_field).rank()
            assert field_rank(m, field) == expected, m
