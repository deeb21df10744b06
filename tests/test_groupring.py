import math
import re
from fractions import Fraction

import pytest

from onerel.domains import QQ, ZZ, PrimeFieldDomain
from onerel.errors import InputError, UnsupportedError
from onerel.groupring import (MAX_PRODUCTS, GroupRingElement, engulfing_search_finite,
                              non_engulfing_certificate_ordered,
                              unique_products_check)
from onerel.magnus import leading_term, magnus_compare
from onerel.oracles import (FreeOracle, ModOracle, PermOracle, ZPowOracle,
                            parse_permutation, permutation_cycles)
from onerel.words import Word

from conftest import random_reduced_word

F3 = PrimeFieldDomain(3)
F2 = PrimeFieldDomain(2)


def random_element(rng, oracle, domain, elements, max_terms=4):
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        terms.append((rng.choice(elements), rng.randrange(-3, 4)))
    return GroupRingElement(oracle, domain, terms)


def sample_elements(rng, oracle, count):
    if oracle.is_finite():
        return oracle.elements()
    if isinstance(oracle, ZPowOracle):
        return [tuple(rng.randrange(-4, 5) for _ in range(oracle.rank))
                for _ in range(count)]
    return [random_reduced_word(rng, len(oracle.names), rng.randrange(5))
            for _ in range(count)]


class TestArithmetic:
    def test_add_collects(self):
        o = ModOracle(2)
        x = GroupRingElement(o, ZZ, [(0, 1), (1, 1)])
        y = GroupRingElement(o, ZZ, [(0, -1), (1, 1)])
        assert (x + y) == GroupRingElement(o, ZZ, [(1, 2)])

    def test_square_of_one_plus_g(self):
        o = ModOracle(2)
        x = GroupRingElement(o, ZZ, [(0, 1), (1, 1)])
        assert x * x == GroupRingElement(o, ZZ, [(0, 2), (1, 2)])

    def test_multiply_by_zero(self):
        o = ModOracle(2)
        x = GroupRingElement(o, ZZ, [(0, 1), (1, 1)])
        assert (x * GroupRingElement.zero(o, ZZ)).is_zero()

    def test_mismatched_oracles_rejected(self):
        x = GroupRingElement(ModOracle(2), ZZ, [(0, 1)])
        y = GroupRingElement(ModOracle(3), ZZ, [(0, 1)])
        with pytest.raises(InputError):
            _ = x + y

    @pytest.mark.parametrize("oracle,domain", [
        (ModOracle(6), ZZ),
        (PermOracle(3, [parse_permutation("(1 2)", 3), parse_permutation("(1 2 3)", 3)]), QQ),
        (ZPowOracle(2), ZZ),
        (PermOracle(3, [parse_permutation("(1 2)", 3), parse_permutation("(1 2 3)", 3)]), F3),
        (FreeOracle(["a", "b"]), ZZ),
    ])
    def test_ring_axioms_on_random_triples(self, rng, oracle, domain):
        elements = sample_elements(rng, oracle, 8)
        for _ in range(60):
            x = random_element(rng, oracle, domain, elements)
            y = random_element(rng, oracle, domain, elements)
            z = random_element(rng, oracle, domain, elements)
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            for result in (x * y, x - y):
                for c in result.terms.values():
                    normal = domain.coerce(c)
                    assert c and c == normal and type(c) is type(normal)

    def test_support_of_product_contained_in_products(self, rng):
        oracle = PermOracle(3, [parse_permutation("(1 2)", 3),
                                parse_permutation("(1 2 3)", 3)])
        elements = sample_elements(rng, oracle, 6)
        for _ in range(80):
            r = random_element(rng, oracle, QQ, elements)
            s = random_element(rng, oracle, QQ, elements)
            prods = {oracle.multiply(a, b)
                     for a in r.support_elements() for b in s.support_elements()}
            assert (r * s).support() <= prods


class TestUniqueProducts:
    def test_integers_left_two(self):
        report = unique_products_check(ZPowOracle(1), [(0,), (1,)], [(0,), (5,)],
                                       2, side="left")
        assert report.verdict
        assert report.distinct_factor_count >= 2

    def test_mod2_has_no_unique_product(self):
        report = unique_products_check(ModOracle(2), [0, 1], [0, 1], 1)
        assert not report.verdict
        assert report.unique_products == []

    def test_singletons(self):
        report = unique_products_check(ModOracle(5), [0], [0], 1)
        assert report.verdict

    def test_preconditions(self):
        with pytest.raises(InputError):
            unique_products_check(ModOracle(2), [0, 1], [0, 1], 3, side="left")
        with pytest.raises(InputError):
            unique_products_check(ModOracle(2), [], [0], 1)

    def test_product_cap(self):
        # distinct elements count: A's repeats are dropped before the cap
        n = math.isqrt(MAX_PRODUCTS)
        report = unique_products_check(ModOracle(n), list(range(n)) * 2, range(n), 1)
        assert report.product_count == n and not report.verdict
        message = f"|A|*|B| = {n * (n + 1)} products are above the supported maximum"
        with pytest.raises(UnsupportedError, match=f"^{re.escape(message)} {MAX_PRODUCTS}$"):
            unique_products_check(ZPowOracle(1), [(i,) for i in range(n + 1)],
                                  [(i,) for i in range(n)], 1)

    @pytest.mark.parametrize("oracle", [ZPowOracle(1), ZPowOracle(2)])
    def test_ordered_groups_have_left_two_unique_products(self, rng, oracle):
        for _ in range(60):
            A = {tuple(rng.randrange(-6, 7) for _ in range(oracle.rank))
                 for _ in range(rng.randrange(2, 6))}
            B = {tuple(rng.randrange(-6, 7) for _ in range(oracle.rank))
                 for _ in range(rng.randrange(1, 6))}
            if len(A) < 2:
                continue
            assert unique_products_check(oracle, A, B, 2, side="left").verdict

    def test_free_group_left_two_unique_products(self, rng):
        oracle = FreeOracle(["a", "b"])
        for _ in range(12):
            A = {random_reduced_word(rng, 2, rng.randrange(4)).letters
                 for _ in range(3)}
            B = {random_reduced_word(rng, 2, rng.randrange(4)).letters
                 for _ in range(2)}
            A = [Word(ls) for ls in A]
            B = [Word(ls) for ls in B]
            if len(A) < 2:
                continue
            assert unique_products_check(oracle, A, B, 2, side="left").verdict


class TestEngulfing:
    def test_one_plus_g_over_f3_z2(self):
        o = ModOracle(2)
        m = GroupRingElement(o, F3, [(0, 1), (1, 1)])
        report = engulfing_search_finite(m)
        assert report.status == "witness"
        g = GroupRingElement.of(o, F3, 1)
        assert report.witness == g
        assert (report.witness * m).support() <= m.support()

    def test_basis_element_not_engulfing(self):
        o = ModOracle(2)
        report = engulfing_search_finite(GroupRingElement.one(o, QQ))
        assert report.status == "none"
        assert report.kernel_dimension == 1

    def test_norm_over_f2_z3(self):
        o = ModOracle(3)
        m = GroupRingElement(o, F2, [(0, 1), (1, 1), (2, 1)])
        report = engulfing_search_finite(m)
        assert report.status == "witness"
        prod = report.witness * m
        assert prod.support() <= m.support()

    def test_unsupported_over_integers(self):
        o = ModOracle(2)
        m = GroupRingElement(o, ZZ, [(0, 1), (1, 1)])
        with pytest.raises(UnsupportedError):
            engulfing_search_finite(m)

    def test_right_side_search(self):
        o = PermOracle(3, [parse_permutation("(1 2)", 3), parse_permutation("(1 2 3)", 3)])
        m = GroupRingElement(o, F3, [(o.identity(), 1)])
        report = engulfing_search_finite(m, side="right")
        assert report.status == "none"

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_system_comes_from_the_table_alone(self, monkeypatch, side):
        """No group operation builds the system; only a witness is re-checked with them."""
        o = PermOracle(4, [parse_permutation("(1 2)", 4), parse_permutation("(1 2 3 4)", 4)])
        elements = o.elements()
        m = GroupRingElement(o, F3, [(elements[0], 1), (elements[5], 1), (elements[9], -1)])
        expected = engulfing_search_finite(m, side=side)
        calls = []
        for name in ("multiply", "invert"):
            monkeypatch.setattr(PermOracle, name, lambda *args, name=name: calls.append(name))
        monkeypatch.setattr("onerel.groupring._verify_witness", lambda *args: None)
        report = engulfing_search_finite(m, side=side)
        assert calls == []
        assert (report.status, report.kernel_dimension, report.witness) == \
            (expected.status, expected.kernel_dimension, expected.witness)

    def test_zero_divisor_consistency_spot_check(self):
        # where a witness exists, the ring does have zero divisors: over
        # F3[Z/2] the pair (1 + g) * (1 - g) vanishes
        o = ModOracle(2)
        x = GroupRingElement(o, F3, [(0, 1), (1, 1)])
        y = GroupRingElement(o, F3, [(0, 1), (1, -1)])
        assert (x * y).is_zero()
        assert engulfing_search_finite(x).status == "witness"


class TestOrderedCertificate:
    def test_z_with_natural_order(self):
        o = ZPowOracle(1)
        m = GroupRingElement(o, ZZ, [((0,), 1), ((1,), -1)])
        assert non_engulfing_certificate_ordered(m).status == "certified_by_order"

    def test_z2_with_lex_order(self):
        o = ZPowOracle(2)
        m = GroupRingElement(o, ZZ, [((0, 0), 2), ((1, -3), 5), ((2, 1), -1)])
        assert non_engulfing_certificate_ordered(m).status == "certified_by_order"

    def test_free_group_with_series_order(self, rng):
        o = FreeOracle(["a", "b"])
        m = GroupRingElement(o, ZZ, [
            (Word([(0, 1)]), 1), (Word([(1, 1), (0, -1)]), 2), (Word(), -1)])
        assert non_engulfing_certificate_ordered(m).status == "certified_by_order"

    def test_unordered_oracle_rejected(self):
        o = ModOracle(4)
        m = GroupRingElement(o, ZZ, [(0, 1), (1, 1)])
        with pytest.raises(UnsupportedError):
            non_engulfing_certificate_ordered(m)


class TestSeriesOrder:
    def test_identity_equal(self):
        assert magnus_compare(Word(), Word()) == 0

    def test_generator_positive(self):
        assert magnus_compare(Word([(0, 1)]), Word()) == 1
        assert magnus_compare(Word([(0, -1)]), Word()) == -1

    def test_ab_vs_ba_decided_at_degree_two(self):
        ab = Word([(0, 1), (1, 1)])
        ba = Word([(1, 1), (0, 1)])
        # difference is the commutator; its first term is X_a X_b - X_b X_a
        comm = ab * ba.inverse()
        mono, coeff = leading_term(comm)
        assert mono == (0, 1) and coeff == 1
        assert magnus_compare(ab, ba) == 1

    def test_total_order_axioms_on_samples(self, rng):
        words = []
        seen = set()
        while len(words) < 40:
            w = random_reduced_word(rng, 2, rng.randrange(6))
            if w.letters not in seen:
                seen.add(w.letters)
                words.append(w)
        pairs = 0
        for i, u in enumerate(words):
            assert magnus_compare(u, u) == 0
            for v in words[i + 1:]:
                c = magnus_compare(u, v)
                assert c in (-1, 1)
                assert magnus_compare(v, u) == -c
                pairs += 1
        assert pairs >= 500

    def test_transitive_on_sampled_triples(self, rng):
        words = [random_reduced_word(rng, 2, rng.randrange(5)) for _ in range(12)]
        ordered = sorted(words, key=_order_key(words))
        for i in range(len(ordered) - 2):
            u, v, w = ordered[i], ordered[i + 1], ordered[i + 2]
            if magnus_compare(u, v) <= 0 and magnus_compare(v, w) <= 0:
                assert magnus_compare(u, w) <= 0

    def test_right_invariance(self, rng):
        for _ in range(60):
            u = random_reduced_word(rng, 2, rng.randrange(5))
            v = random_reduced_word(rng, 2, rng.randrange(5))
            g = random_reduced_word(rng, 2, rng.randrange(5))
            assert magnus_compare(u, v) == magnus_compare(u * g, v * g)

    def test_left_invariance_too(self, rng):
        # the series order is in fact bi-invariant
        for _ in range(40):
            u = random_reduced_word(rng, 2, rng.randrange(5))
            v = random_reduced_word(rng, 2, rng.randrange(5))
            g = random_reduced_word(rng, 2, rng.randrange(5))
            assert magnus_compare(u, v) == magnus_compare(g * u, g * v)


def _order_key(words):
    import functools
    return functools.cmp_to_key(magnus_compare)


class TestPrimeFieldCoerce:
    def test_fraction_with_a_unit_denominator(self):
        assert F3.coerce(Fraction(3, 2)) == 0
        F7 = PrimeFieldDomain(7)
        assert F7.coerce(Fraction(3, 2)) == 3 * F7.inv(2) % 7 == 5
        assert F7.coerce(Fraction(-1, 3)) == F7.coerce(-F7.inv(3)) == 2

    @pytest.mark.parametrize("value", [Fraction(1, 3), Fraction(2, 3), Fraction(-5, 9)])
    def test_denominator_divisible_by_p_refused(self, value):
        with pytest.raises(InputError, match="divides its denominator"):
            F3.coerce(value)


def cycles_by_points(perm):
    """Disjoint cycles by a walk over every point, the form the renderer replaced."""
    n = len(perm)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        out.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(out) if out else "()"


class TestPermutationCycles:
    @pytest.mark.parametrize("degree", [1, 2, 9, 10, 60, 257, 300])
    def test_against_a_walk_over_every_point(self, rng, degree):
        identity = tuple(range(degree))
        assert permutation_cycles(identity) == cycles_by_points(identity) == "()"
        for _ in range(20):
            perm = list(range(degree))
            moved = rng.sample(perm, rng.randrange(degree + 1))   # the rest stay fixed
            images = moved[:]
            rng.shuffle(images)
            for x, y in zip(moved, images):
                perm[x] = y
            assert permutation_cycles(tuple(perm)) == cycles_by_points(perm)

    def test_two_digit_labels_and_fixed_points(self):
        perm = parse_permutation("(2 10)(11 12 3)", degree=12)
        assert permutation_cycles(perm) == cycles_by_points(perm) == "(2 10)(3 11 12)"

    def test_more_than_256_points(self):
        perm = tuple((i + 1) % 300 for i in range(300))
        text = permutation_cycles(perm)
        assert text == cycles_by_points(perm) == "(" + " ".join(map(str, range(1, 301))) + ")"
        assert parse_permutation(text) == perm


class TestPermutationTermOrder:
    @pytest.mark.parametrize("degree", [1, 2, 10, 11, 12, 25, 101, 300])
    def test_sorts_like_repr(self, rng, degree):
        """At 11 points and up ``10`` sorts before ``2``, as in ``repr``."""
        oracle = PermOracle(degree)
        perms = [tuple(rng.sample(range(degree), degree)) for _ in range(40)]
        # images that agree on a prefix, so later labels decide
        perms += [p[:1] + tuple(rng.sample(p[1:], degree - 1)) for p in perms[:10]]
        assert sorted(perms, key=oracle.term_order) == sorted(perms, key=repr)
        if degree >= 11:
            ten, two = list(range(degree)), list(range(degree))
            ten[0], ten[10] = 10, 0
            two[0], two[2] = 2, 0
            assert oracle.term_order(tuple(ten)) < oracle.term_order(tuple(two))


class TestPermutationParsing:
    def test_cycle_round_trip(self):
        perm = parse_permutation("(1 2 3)(4 5)")
        assert perm == (1, 2, 0, 4, 3)
        assert permutation_cycles(perm) == "(1 2 3)(4 5)"

    def test_identity_forms(self):
        assert parse_permutation("()", degree=3) == (0, 1, 2)

    def test_degree_extension(self):
        assert parse_permutation("(1 2)", degree=4) == (1, 0, 2, 3)

    def test_bad_input(self):
        with pytest.raises(InputError):
            parse_permutation("(1 1)")
        with pytest.raises(InputError):
            parse_permutation("nonsense(")
