import pytest
from hypothesis import assume, given, settings, strategies as st

from onerel.domains import QQ, ZZ, parse_domain
from onerel.errors import InputError, InternalCheckError, UnsupportedError
from onerel.foxcalc import (MAX_FOX_LETTERS, QuotientMap, fox_derivative,
                            fundamental_identity_check, jacobian,
                            resolution_complex)
from onerel.groupring import GroupRingElement
from onerel.oracles import FreeOracle
from onerel.presentations import Presentation, parse_presentation, parse_word
from onerel.words import Word

from conftest import random_raw_letters, random_reduced_word
from onerel.words import free_reduce

NAMES = ["a", "b"]
A, B = 0, 1
FREE = FreeOracle(NAMES)


def fre(*pairs):
    return GroupRingElement(FREE, ZZ, [(Word(list(word)), c) for word, c in pairs])


def elem(word):
    return GroupRingElement.of(FREE, ZZ, word)


class TestFoxDerivative:
    def test_derivative_of_generator(self):
        assert fox_derivative(Word([(A, 1)]), A, FREE) == GroupRingElement.one(FREE, ZZ)
        assert fox_derivative(Word([(B, 1)]), A, FREE) == GroupRingElement.zero(FREE, ZZ)

    def test_derivative_of_inverse(self):
        assert fox_derivative(Word([(A, -1)]), A, FREE) == fre(([(A, -1)], -1))

    def test_conjugate(self):
        word = parse_word("a*b*a^-1", NAMES)
        expect = fre(([], 1), ([(A, 1), (B, 1), (A, -1)], -1))
        assert fox_derivative(word, A, FREE) == expect

    def test_product_rule_on_random_splits(self, rng):
        for _ in range(100):
            v = random_reduced_word(rng, 2, rng.randrange(10))
            w = random_reduced_word(rng, 2, rng.randrange(10))
            s = rng.randrange(2)
            lhs = fox_derivative(v * w, s, FREE)
            rhs = fox_derivative(v, s, FREE) + elem(v) * fox_derivative(w, s, FREE)
            assert lhs == rhs

    def test_inverse_rule(self, rng):
        for _ in range(100):
            w = random_reduced_word(rng, 2, rng.randrange(12))
            s = rng.randrange(2)
            lhs = fox_derivative(w.inverse(), s, FREE)
            rhs = elem(w.inverse()) * -fox_derivative(w, s, FREE)
            assert lhs == rhs

    def test_linear_extension(self):
        x = fre(([(A, 1)], 2), ([(B, 1), (A, 1)], -1))
        d = fox_derivative(x, A)
        assert d == fre(([], 2), ([(B, 1)], -1))

    def test_word_past_the_cap_is_refused(self):
        at_cap = Word([(A, 1)] * MAX_FOX_LETTERS)
        assert len(fox_derivative(at_cap, A, FREE).terms) == MAX_FOX_LETTERS
        with pytest.raises(UnsupportedError, match=f"at most {MAX_FOX_LETTERS} letters"):
            fox_derivative(Word([(A, 1)] * (MAX_FOX_LETTERS + 1)), B, FREE)


class TestFundamentalIdentity:
    def test_empty_word(self):
        assert fundamental_identity_check(Word(), 2)

    def test_ab(self):
        assert fundamental_identity_check(parse_word("a*b", NAMES), 2)

    def test_a2b_minus3(self):
        assert fundamental_identity_check(parse_word("a^2*b^-3", NAMES), 2)

    def test_thousand_random_words(self, rng):
        for _ in range(1000):
            w = free_reduce(random_raw_letters(rng, 4, 20))
            assert fundamental_identity_check(w, 4)


class TestQuotientMap:
    def test_trivial(self):
        p = parse_presentation("gens: a, b\nrels: a^2*b^-3")
        phi = QuotientMap.trivial(p)
        assert phi.kind == "trivial"

    def test_abelianization_requires_killing(self):
        p = parse_presentation("gens: a, b\nrels: a^2*b^-3")
        with pytest.raises(InputError, match="a\\^2\\*b\\^-3"):
            QuotientMap.abelianization(p)

    def test_abelianization_of_torus(self):
        p = parse_presentation("gens: a, b\nrels: [a, b]")
        phi = QuotientMap.abelianization(p)
        assert phi.apply(parse_word("a*b*a^-1", p.names)) == (0, 1)

    def test_to_abelian_images(self):
        p = parse_presentation("gens: a, b\nrels: a^2*b^-3")
        phi = QuotientMap.to_abelian(p, {0: 3, 1: 2})
        assert phi.apply(p.relators[0]) == (0,)

    def test_permutation_must_kill_relators(self):
        p = parse_presentation("gens: a\nrels: a^2\nquotient: a -> (1 2 3)")
        with pytest.raises(InputError):
            QuotientMap.permutation(p)

    def test_permutation_ok(self):
        p = parse_presentation("gens: a\nrels: a^2\nquotient: a -> (1 2)")
        phi = QuotientMap.permutation(p)
        assert phi.kind == "permutation"


class TestJacobian:
    def test_torus_abelianized(self):
        p = parse_presentation("gens: a, b\nrels: [a, b]")
        J = jacobian(p, QuotientMap.abelianization(p), ZZ)
        one = J.oracle.identity()
        da, db = J.entry(0, 0), J.entry(0, 1)
        # entries 1 - b and a - 1 in the coordinate ring of Z^2
        assert da.coefficient(one) == 1 and da.coefficient((0, 1)) == -1
        assert db.coefficient(one) == -1 and db.coefficient((1, 0)) == 1
        assert len(da.terms) == 2 and len(db.terms) == 2

    def test_power_relator_trivial_quotient(self):
        for n in (1, 2, 7):
            p = Presentation(["a"], [Word([(0, 1)]) ** n])
            J = jacobian(p, QuotientMap.trivial(p), ZZ)
            assert J.entry(0, 0).coefficient(0) == n

    def test_no_relators(self):
        p = parse_presentation("gens: a")
        J = jacobian(p, QuotientMap.trivial(p), ZZ)
        assert J.shape == (0, 1)


def _order(q, w):
    """The order of ``w``'s image under the permutation map ``q``."""
    one, g = q.oracle.identity(), q.apply(w)
    power, n = g, 1
    while power != one:
        power, n = q.oracle.multiply(power, g), n + 1
    return n


@st.composite
def quotient_maps(draw):
    """A presentation on 1 to 3 generators and a quotient map that kills it.

    Trivial maps kill any relator.  Abelian maps kill ``w * v^-1`` for a
    rearrangement ``v`` of ``w``'s letters.  A permutation map kills
    ``w^n`` for the order ``n`` of ``w``'s image.
    """
    rank = draw(st.integers(1, 3))
    names = ["a", "b", "c"][:rank]
    letters = st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1)))
    words = draw(st.lists(st.lists(letters, max_size=8).map(Word),
                          min_size=1, max_size=3))
    kind = draw(st.sampled_from(["trivial", "abelian", "permutation"]))
    if kind == "trivial":
        p = Presentation(names, words)
        return p, QuotientMap.trivial(p)
    if kind == "abelian":
        p = Presentation(names, [w * Word(draw(st.permutations(w.letters))).inverse()
                                 for w in words])
        if draw(st.booleans()):
            return p, QuotientMap.abelianization(p)
        width = draw(st.integers(1, 2))
        return p, QuotientMap.to_abelian(p, {
            i: draw(st.tuples(*[st.integers(-3, 3)] * width)) for i in range(rank)})
    degree = draw(st.integers(1, 5))
    images = {i: tuple(draw(st.permutations(range(degree)))) for i in range(rank)}
    free = QuotientMap.permutation(Presentation(names, []), images)
    p = Presentation(names, [w ** _order(free, w) for w in words])
    return p, QuotientMap.permutation(p, images)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=quotient_maps(), domain=st.sampled_from([ZZ, QQ, parse_domain("2"),
                                                     parse_domain("3")]))
def test_jacobian_entries_are_pushed_forward_fox_derivatives(case, domain):
    p, q = case
    free = FreeOracle(p.names)
    J = jacobian(p, q, domain)
    for i, w in enumerate(p.relators):
        for s in range(p.rank):
            expect = GroupRingElement(
                q.oracle, domain,
                [(q.apply(v), c) for v, c in fox_derivative(w, s, free).terms.items()])
            entry = J.entry(i, s)
            assert list(entry.terms.items()) == list(expect.terms.items())
            assert entry.render() == expect.render()


class TestResolutionComplex:
    def test_torus_composite(self):
        p = parse_presentation("gens: a, b\nrels: [a, b]")
        comp = resolution_complex(p, QuotientMap.abelianization(p))
        assert comp.d2.shape == (1, 2)

    def test_power_composite(self):
        p = parse_presentation("gens: a\nrels: a^4")
        resolution_complex(p, QuotientMap.trivial(p))

    def test_trefoil_over_laurent_ring(self):
        p = parse_presentation("gens: a, b\nrels: a^2*b^-3")
        phi = QuotientMap.to_abelian(p, {0: 3, 1: 2})
        comp = resolution_complex(p, phi, ZZ)
        da = comp.d2.entry(0, 0)
        db = comp.d2.entry(0, 1)
        assert da.coefficient((0,)) == 1 and da.coefficient((3,)) == 1
        assert all(db.coefficient((k,)) == -1 for k in (0, 2, 4))

    def test_random_presentations_compose_to_zero(self, rng):
        from onerel.oracles import parse_permutation
        for _ in range(40):
            n_gens = rng.randrange(1, 4)
            names = ["a", "b", "c"][:n_gens]
            relators = []
            for _ in range(rng.randrange(1, 4)):
                w = free_reduce(random_raw_letters(rng, n_gens, 10))
                relators.append(w)
            p = Presentation(names, relators)
            resolution_complex(p, QuotientMap.trivial(p), ZZ)
            # permutation quotient: conjugation-free images that kill only
            # when they do; retry with the trivial image otherwise
            try:
                images = {i: parse_permutation("(1 2)", 2) if rng.random() < 0.5
                          else parse_permutation("()", 2) for i in range(n_gens)}
                phi = QuotientMap.permutation(p, images)
            except InputError:
                continue
            resolution_complex(p, phi, QQ)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=quotient_maps(), domain=st.sampled_from([ZZ, QQ, parse_domain("2"),
                                                     parse_domain("3")]),
       data=st.data())
def test_a_corrupted_jacobian_term_fails_the_composite_check(case, domain, data):
    # adding c*g to entry (i, j) adds c*(g*phi(s_j) - g) to row i of d1 o d2,
    # which is nonzero unless phi(s_j) is the identity
    p, q = case
    assume(p.relators)
    movers = [j for j in range(p.rank) if q.images[j] != q.oracle.identity()]
    assume(movers)
    comp = resolution_complex(p, q, domain)
    comp._verify()
    i = data.draw(st.integers(0, len(p.relators) - 1))
    j = data.draw(st.sampled_from(movers))
    entry = comp.d2.entries[i][j]
    g = data.draw(st.sampled_from([q.oracle.identity(), *entry.terms]))
    comp.d2.entries[i][j] = entry + GroupRingElement.of(q.oracle, domain, g)
    with pytest.raises(InternalCheckError, match=f"nonzero on relator row {i}"):
        comp._verify()


def test_the_composite_check_names_the_nonzero_row():
    p = parse_presentation("gens: a, b\nrels: a^2*b^-3")
    comp = resolution_complex(p, QuotientMap.to_abelian(p, {0: 3, 1: 2}))
    comp.d2.entries[0][1] = comp.d2.entries[0][1] + GroupRingElement.of(
        comp.d2.oracle, ZZ, (2,))
    with pytest.raises(InternalCheckError) as exc:
        comp._verify()
    # the row gained t^2 * (t^2 - 1)
    assert str(exc.value) == "d1 o d2 is nonzero on relator row 0: -t^2 + t^4"
