from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from onerel.errors import InputError
from onerel.presentations import (Presentation, parse_presentation, parse_quotient,
                                  parse_word)
from onerel.words import Word


class TestWordGrammar:
    NAMES = ["a", "b", "t"]

    def test_concatenation_and_powers(self):
        w = parse_word("a^2*b^-3", self.NAMES)
        assert w.render(self.NAMES) == "a^2*b^-3"

    def test_commutator(self):
        w = parse_word("[a, b]", self.NAMES)
        assert w.render(self.NAMES) == "a*b*a^-1*b^-1"

    def test_nested(self):
        w = parse_word("[t*a*t^-1, a] * a^-3", self.NAMES)
        assert w == parse_word("t*a*t^-1*a*t*a^-1*t^-1*a^-1*a^-3", self.NAMES)

    def test_parenthesised_power(self):
        assert parse_word("(a*b)^3", self.NAMES) == parse_word("a*b", self.NAMES) ** 3

    def test_zero_power(self):
        assert parse_word("a^0", self.NAMES) == Word()

    def test_whitespace_insignificant(self):
        assert parse_word(" a ^ 2 * b", self.NAMES) == parse_word("a^2*b", self.NAMES)

    def test_unknown_generator(self):
        with pytest.raises(InputError):
            parse_word("q", self.NAMES)

    def test_trailing_garbage(self):
        with pytest.raises(InputError):
            parse_word("a b", self.NAMES)

    def test_render_parse_round_trip(self, rng):
        from conftest import random_raw_letters
        from onerel.words import free_reduce
        for _ in range(100):
            w = free_reduce(random_raw_letters(rng, 3, 16))
            assert parse_word(w.render(self.NAMES), self.NAMES) == w


def _expressions():
    """Word expressions over ``a, b, t`` with brackets, powers and commutators."""
    names = st.sampled_from(["a", "b", "t", "1"])
    powers = st.lists(st.integers(-3, 3), max_size=2).map(
        lambda exps: "".join(f"^{e}" for e in exps))

    def extend(inner):
        atoms = st.one_of(
            inner.map(lambda x: f"({x})"),
            st.tuples(inner, inner).map(lambda xy: f"[{xy[0]}, {xy[1]}]"))
        factors = st.tuples(atoms, powers).map("".join)
        return st.lists(factors, min_size=1, max_size=3).map("*".join)

    return st.recursive(st.tuples(names, powers).map("".join), extend, max_leaves=8)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(_expressions(), min_size=1, max_size=5))
def test_product_parses_as_the_product_of_its_factors(factors):
    names = TestWordGrammar.NAMES
    expect = reduce(lambda u, v: u * v, (parse_word(f, names) for f in factors))
    assert parse_word("*".join(factors), names) == expect


class TestPresentationFiles:
    def test_full_file(self):
        p = parse_presentation(
            "# a sample\n"
            "gens: a, b, t\n"
            "rels: [t*a*t^-1, a] * a^-3 ; a^2*b^-3\n"
            "partition: A = a ; B = b, t\n")
        assert p.names == ["a", "b", "t"]
        assert len(p.relators) == 2
        assert p.partition == {0: "A", 1: "B", 2: "B"}

    def test_relators_stored_cyclically_reduced(self):
        p = parse_presentation("gens: a, b\nrels: b*a*b^-1")
        assert p.relators[0] == Word([(0, 1)])
        assert p.relator_conjugators[0] == Word([(1, 1)])

    def test_quotient_stanza(self):
        p = parse_presentation(
            "gens: a, b\nrels: a^2\nquotient: a -> (1 2), b -> ()\n")
        assert p.quotient_images["a"] == (1, 0)
        assert p.quotient_images["b"] == (0, 1)

    def test_quotient_images_padded_to_the_largest_degree(self):
        images = parse_quotient("b -> (1 3), a -> (), c -> (2 4)", ["a", "b", "c"])
        assert images == {"a": (0, 1, 2, 3), "b": (2, 1, 0, 3), "c": (0, 3, 2, 1)}

    def test_quotient_reports_its_first_bad_image(self):
        with pytest.raises(InputError, match="'x'"):
            parse_quotient("b -> (1 x), a -> (1 y)", ["a", "b"])

    def test_quotient_naming_a_generator_twice_is_refused(self):
        # the first image of a does not kill a^2, the last one does
        with pytest.raises(InputError, match="'a' twice"):
            parse_quotient("a -> (1 2 3), a -> (1 2), b -> (1 2 3)", ["a", "b"])
        with pytest.raises(InputError, match="'a' twice"):
            parse_presentation("gens: a, b\nrels: a^2\nquotient: a -> (1 2), b -> (), a -> ()")

    def test_quotient_missing_generator(self):
        with pytest.raises(InputError):
            parse_presentation("gens: a, b\nrels: a\nquotient: a -> (1 2)")

    def test_partition_must_cover(self):
        with pytest.raises(InputError):
            parse_presentation("gens: a, b\npartition: A = a")

    def test_abelianize_keyword(self):
        p = parse_presentation("gens: a, b\nrels: [a, b]\nabelianize\n")
        assert p.abelianize_requested

    def test_duplicate_generators_rejected(self):
        with pytest.raises(InputError):
            Presentation(["a", "a"], [])

    def test_relator_outside_alphabet_rejected(self):
        with pytest.raises(InputError):
            Presentation(["a"], [Word([(3, 1)])])

    def test_unknown_stanza(self):
        with pytest.raises(InputError):
            parse_presentation("gens: a\nfrobs: 1")

    def test_render_round_trip(self):
        p = parse_presentation(
            "gens: a, b\nrels: a^2*b^-3\npartition: A = a ; B = b\n")
        again = parse_presentation(p.render())
        assert again.names == p.names
        assert again.relators == p.relators
        assert again.partition == p.partition

    def test_words_behave_as_values(self):
        p = parse_presentation("gens: a\nrels: a^3")
        w = p.relators[0]
        assert w ** 2 is not w
        copy = Word(w.letters)
        assert copy == w and hash(copy) == hash(w)
