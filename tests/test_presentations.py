import re
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from onerel.errors import InputError
from onerel.presentations import (MAX_NESTING, MAX_WORD_LETTERS, Presentation,
                                  parse_presentation, parse_quotient, parse_word,
                                  parse_words)
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


def nested_commutator(levels):
    """``[[...[a, b], b]..., b]``: each level doubles the word's length."""
    text = "a"
    for _ in range(levels):
        text = f"[{text}, b]"
    return text


class TestCaps:
    NAMES = ["a", "b"]

    def test_nesting_at_the_cap_parses(self):
        text = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
        assert parse_word(text, self.NAMES) == Word([(0, 1)])

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 500])
    def test_deeper_nesting_is_refused(self, depth):
        for text in ("(" * depth + "a" + ")" * depth, nested_commutator(depth)):
            with pytest.raises(InputError, match=f"nest more than {MAX_NESTING} deep"):
                parse_word(text, self.NAMES)

    def test_a_power_at_the_budget_parses(self):
        assert len(parse_word(f"a^{MAX_WORD_LETTERS}", self.NAMES)) == MAX_WORD_LETTERS
        assert len(parse_word("a^5040", self.NAMES)) == 5040

    @pytest.mark.parametrize("text", [f"a^{MAX_WORD_LETTERS + 1}", "a^99999999999999999999",
                                      "(a*b)^-99999999999999999999", nested_commutator(20),
                                      nested_commutator(16)])
    def test_words_past_the_budget_are_refused(self, text):
        with pytest.raises(InputError, match=f"more than {MAX_WORD_LETTERS} letters"):
            parse_word(text, self.NAMES)

    def test_powers_of_the_empty_word_are_empty(self):
        assert parse_word("(a*a^-1)^99999999999999999999", self.NAMES) == Word()
        assert parse_word("[a, a]^-99999999999999999999", self.NAMES) == Word()

    @pytest.mark.parametrize("text", ["a^" + "9" * 5000, "a^-" + "9" * 5000,
                                      "(a*b)^" + "1" * 7, "b^" + "0" * 4999 + "100001"])
    def test_exponents_past_the_budget_are_refused_unread(self, text):
        # 5,000 digits are past what int() reads; the message stays short
        with pytest.raises(InputError, match=f"more than {MAX_WORD_LETTERS} letters") as exc:
            parse_word(text, self.NAMES)
        assert len(str(exc.value)) < 100

    def test_long_exponents_within_the_budget(self):
        assert parse_word("a^" + "0" * 5000, self.NAMES) == Word()
        assert parse_word("a^-" + "0" * 4999 + "7", self.NAMES) == Word([(0, -1)] * 7)
        for exponent in ("9" * 5000, "-" + "9" * 5000, "0" * 5000):
            assert parse_word(f"(a*a^-1)^{exponent}", self.NAMES) == Word()
            assert parse_word(f"1^{exponent}", self.NAMES) == Word()

    def test_the_words_of_one_call_share_one_budget(self):
        half = f"a^{MAX_WORD_LETTERS // 2}"
        assert [len(w) for w in parse_words([half, half], self.NAMES)] == \
            [MAX_WORD_LETTERS // 2] * 2
        with pytest.raises(InputError, match=f"more than {MAX_WORD_LETTERS} letters"):
            parse_words([half, half, "a*b"], self.NAMES)
        assert parse_words([], self.NAMES) == []

    def test_a_file_shares_one_budget(self):
        at_budget = f"a^{MAX_WORD_LETTERS}"
        assert len(parse_presentation(f"gens: a\nrels: {at_budget}").relators[0]) \
            == MAX_WORD_LETTERS
        for text in (f"gens: a\nrels: {at_budget} ; a^2",
                     "gens: a\nrels: " + " ; ".join([at_budget] * 1000),
                     f"gens: a\nrels: {at_budget}\nrels: {at_budget}"):
            with pytest.raises(InputError, match=f"more than {MAX_WORD_LETTERS} letters"):
                parse_presentation(text)


# -- the parser as it was before one token regex replaced its tokenizer ---------
# The differential test below holds the rewrite to its byte-identical results
# and error messages on inputs below the caps.

class _ReferenceTokens:
    def __init__(self, text):
        self.tokens = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "*^[](),;":
                self.tokens.append(ch)
                i += 1
                continue
            m = re.compile(r"[A-Za-z][A-Za-z0-9_]*").match(text, i)
            if m:
                self.tokens.append(m.group(0))
                i = m.end()
                continue
            m = re.match(r"-?\d+", text[i:])
            if m:
                self.tokens.append(m.group(0))
                i += m.end()
                continue
            raise InputError(f"unexpected character {ch!r} in word expression")
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise InputError("unexpected end of word expression")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise InputError(f"expected {tok!r}, got {got!r}")


def _reference_expr(toks, names):
    letters = list(_reference_factor(toks, names).letters)
    while toks.peek() == "*":
        toks.next()
        letters += _reference_factor(toks, names).letters
    return Word(letters)


def _reference_factor(toks, names):
    atom = _reference_atom(toks, names)
    while toks.peek() == "^":
        toks.next()
        exp_tok = toks.next()
        try:
            exp = int(exp_tok)
        except ValueError:
            raise InputError(f"expected an integer exponent, got {exp_tok!r}") from None
        atom = atom ** exp
    return atom


def _reference_atom(toks, names):
    tok = toks.next()
    if tok == "1":
        return Word()
    if tok == "(":
        inner = _reference_expr(toks, names)
        toks.expect(")")
        return inner
    if tok == "[":
        x = _reference_expr(toks, names)
        toks.expect(",")
        y = _reference_expr(toks, names)
        toks.expect("]")
        return x * y * x.inverse() * y.inverse()
    if re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok):
        try:
            index = names.index(tok)
        except ValueError:
            raise InputError(f"unknown generator {tok!r}") from None
        return Word([(index, 1)])
    raise InputError(f"unexpected token {tok!r} in word expression")


def reference_parse_word(text, names):
    toks = _ReferenceTokens(text)
    if toks.peek() is None:
        return Word()
    word = _reference_expr(toks, names)
    if toks.peek() is not None:
        raise InputError(f"trailing token {toks.peek()!r} in word expression")
    return word


def _reference_strip_comment(line):
    return line.split("#", 1)[0]


def reference_parse_presentation(text):
    gens = None
    rels = []
    partition = None
    images = None
    abelianize = False
    for raw in text.splitlines():
        line = _reference_strip_comment(raw).strip()
        if not line:
            continue
        if line == "abelianize":
            abelianize = True
            continue
        if ":" not in line:
            raise InputError(f"cannot parse line {raw.strip()!r}")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key == "gens":
            gens = [g.strip() for g in value.split(",") if g.strip()]
        elif key == "rels":
            if gens is None:
                raise InputError("rels stanza before gens stanza")
            rels = [reference_parse_word(chunk, gens) for chunk in value.split(";")
                    if chunk.strip()]
        elif key == "partition":
            if gens is None:
                raise InputError("partition stanza before gens stanza")
            partition = {}
            for chunk in value.split(";"):
                if not chunk.strip():
                    continue
                if "=" not in chunk:
                    raise InputError(f"bad partition chunk {chunk!r}")
                tag, members = chunk.split("=", 1)
                tag = tag.strip()
                for member in members.split(","):
                    member = member.strip()
                    if member:
                        partition[gens.index(member) if member in gens
                                  else _reference_missing(member)] = tag
        elif key == "quotient":
            if gens is None:
                raise InputError("quotient stanza before gens stanza")
            images = parse_quotient(value, gens)
        else:
            raise InputError(f"unknown stanza {key!r}")
    if gens is None:
        raise InputError("presentation file is missing a gens stanza")
    p = Presentation(gens, rels, partition=partition, quotient_images=images,
                     abelianize=abelianize)
    if partition is not None:
        uncovered = [p.names[i] for i in range(p.rank) if i not in partition]
        if uncovered:
            raise InputError(f"partition does not cover {uncovered}")
    return p


def _reference_missing(member):
    raise InputError(f"partition names unknown generator {member!r}")


def outcome(parse, text, *args):
    """What ``parse`` makes of ``text``: its value's parts, or its error's type and message."""
    try:
        value = parse(text, *args)
    except InputError as exc:
        return type(exc), str(exc)
    if isinstance(value, Word):
        return value.letters
    return (value.names, value.relators, value.relator_conjugators, value.partition,
            value.quotient_images, value.abelianize_requested)


# names, integers, marks, blanks and stray characters, valid or not in any order;
# "x_1" and "ab" are names outside the alphabet, and "\u0663" is a decimal digit
WORD_TOKENS = st.sampled_from(["a", "b", "t", "ab", "x_1", "1", "0", "2", "-1", "-3", "10",
                               "\u0663", "-", "(", ")", "[", "]", ",", "*", "^", ";", " ",
                               "\t", "\u00b7", "$"])
FILE_LINES = st.sampled_from([
    "gens: a, b", "gens: a, b, t", "gens:", "gens: a, a", "gens: 1a", "gens: a # b",
    "rels: a^2*b^-3", "rels: [a, b] ; a*t", "rels: a*", "rels:", "rels: ; a",
    "  rels: b*a*b^-1  ", "Rels : a", "rels a", "partition: A = a ; B = b", "partition:",
    "partition: A = a", "partition: A a", "partition: A = c", "partition: A = a, b ; ; B =",
    "quotient: a -> (1 2), b -> ()", "quotient: a -> (1 2)", "quotient: a (1 2), b -> ()",
    "abelianize", "ABELIANIZE", "# comment", "", "frobs: 1"])


@settings(max_examples=800, derandomize=True, deadline=None)
@given(st.lists(WORD_TOKENS, max_size=14).map("".join),
       st.sampled_from([["a", "b", "t"], ["a", "b"], ["ab", "a"]]))
def test_words_parse_as_the_reference_parser_reads_them(text, names):
    assert outcome(parse_word, text, names) == outcome(reference_parse_word, text, names)


@settings(max_examples=800, derandomize=True, deadline=None)
@given(st.lists(FILE_LINES, max_size=6).map("\n".join))
def test_files_parse_as_the_reference_parser_reads_them(text):
    assert outcome(parse_presentation, text) == outcome(reference_parse_presentation, text)
