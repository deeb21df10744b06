import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onerel.errors import InputError
from onerel.words import (Word, cyclic_reduce, exponent_sum, free_reduce,
                          is_cyclic_conjugate, is_proper_power,
                          proper_subwords, syllable_decompose)

from conftest import random_raw_letters, random_reduced_word

NAMES = ["a", "b", "t"]
A, B, T = 0, 1, 2


def w(*letters):
    return Word(letters)


class TestFreeReduce:
    def test_cancellation(self):
        assert free_reduce([(A, 1), (A, -1)]) == Word()

    def test_inner_cancellation(self):
        assert free_reduce([(A, 1), (B, 1), (B, -1), (A, 1)]) == w((A, 1), (A, 1))

    def test_fixed_point(self):
        letters = [(T, 1), (A, 1), (T, -1), (A, -1), (A, -1)]
        assert free_reduce(letters).letters == tuple(letters)

    def test_unknown_generator_rejected(self):
        with pytest.raises(InputError):
            free_reduce([(5, 1)], alphabet_size=3)

    letters_strategy = st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from((1, -1))), max_size=64)

    @given(letters_strategy)
    @settings(max_examples=200)
    def test_idempotent_and_nonincreasing(self, raw):
        once = free_reduce(raw)
        assert len(once) <= len(raw)
        assert free_reduce(once.letters) == once

    @given(letters_strategy, letters_strategy)
    @settings(max_examples=100)
    def test_multiplication_matches_concatenation(self, r1, r2):
        assert free_reduce(list(r1) + list(r2)) == free_reduce(r1) * free_reduce(r2)


class TestValidation:
    """Letters from outside the library are checked where they enter."""

    @pytest.mark.parametrize("letter", [(-1, 1), (-3, -1)])
    def test_negative_index_refused(self, letter):
        with pytest.raises(InputError, match="negative generator index"):
            Word([(A, 1), letter])
        with pytest.raises(InputError, match="negative generator index"):
            free_reduce([letter, (A, 1)])

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_sign_other_than_one_refused(self, sign):
        with pytest.raises(InputError, match="letter sign must be"):
            Word([(A, 1), (B, sign)])
        with pytest.raises(InputError, match="letter sign must be"):
            free_reduce([(B, sign)])

    def test_letter_that_would_cancel_is_still_checked(self):
        with pytest.raises(InputError):
            Word([(A, 1), (A, -1), (-1, 1), (-1, -1)])


class TestArithmetic:
    """Products, powers and inverses built by ``Word.trusted`` against reducing the letters."""

    letters = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=12)

    @given(letters, letters, st.integers(-4, 4))
    @settings(max_examples=300, derandomize=True)
    def test_against_free_reduction(self, r1, r2, n):
        u, v = free_reduce(r1), free_reduce(r2)
        assert (u * v).letters == Word(u.letters + v.letters).letters
        base = u.letters if n >= 0 else [(i, -s) for i, s in reversed(u.letters)]
        assert (u ** n).letters == Word(list(base) * abs(n)).letters
        assert (u * u.inverse()).letters == ()
        core, conj = cyclic_reduce(u)
        assert (conj * core * conj.inverse()).letters == u.letters


class TestCyclicReduce:
    def test_single_layer(self):
        core, conj = cyclic_reduce(w((B, 1), (A, 1), (B, -1)))
        assert core == w((A, 1))
        assert conj == w((B, 1))

    def test_already_reduced(self):
        word = w((A, 1), (A, 1), (B, -1), (B, -1), (B, -1))
        core, conj = cyclic_reduce(word)
        assert core == word and conj == Word()

    def test_nested(self):
        word = w((A, 1), (B, 1), (A, 1), (B, -1), (A, -1))
        core, conj = cyclic_reduce(word)
        assert core == w((A, 1))
        assert conj == w((A, 1), (B, 1))

    def test_round_trip_property(self, rng):
        for _ in range(300):
            word = free_reduce(random_raw_letters(rng, 3, 24))
            core, conj = cyclic_reduce(word)
            assert core.is_cyclically_reduced()
            assert conj * core * conj.inverse() == word


class TestProperPower:
    def test_constructed_power(self):
        root, k = is_proper_power(w((A, 1), (B, 1)) ** 3)
        assert root == w((A, 1), (B, 1)) and k == 3

    def test_not_a_power(self):
        word = w((A, 1), (A, 1), (B, -1), (B, -1), (B, -1))
        root, k = is_proper_power(word)
        assert root == word and k == 1
        # independent oracle: no smaller period works
        for p in range(1, len(word)):
            if len(word) % p == 0:
                assert word.letters[:p] * (len(word) // p) != word.letters

    def test_single_letter_power(self):
        root, k = is_proper_power(w((A, 1)) ** 4)
        assert root == w((A, 1)) and k == 4

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            is_proper_power(Word())

    def test_power_exponent_divisibility(self, rng):
        for _ in range(100):
            length = rng.randrange(1, 7)
            u = random_reduced_word(rng, 3, length)
            if not u.is_cyclically_reduced():
                continue
            k = rng.randrange(1, 7)
            root, exp = is_proper_power(u ** k)
            assert exp % k == 0
            assert root ** exp == u ** k


class TestProperSubwords:
    def test_two_letters_linear(self):
        assert proper_subwords(w((A, 1), (B, 1))) == [w((A, 1)), w((B, 1))]

    def test_three_letters_linear(self):
        subs = proper_subwords(w((A, 1), (B, 1), (A, -1)))
        expect = [w((A, 1)), w((A, 1), (B, 1)), w((B, 1)),
                  w((B, 1), (A, -1)), w((A, -1))]
        assert sorted(s.letters for s in subs) == sorted(e.letters for e in expect)

    def test_linear_count_before_dedup(self, rng):
        # all contiguous nonempty ranges except the full word: L(L+1)/2 - 1
        for _ in range(50):
            word = random_reduced_word(rng, 3, rng.randrange(1, 10))
            L = len(word)
            ranges = [(i, j) for i in range(L) for j in range(i + 1, L + 1)
                      if j - i < L]
            assert len(ranges) == L * (L + 1) // 2 - 1
            seen = {word.letters[i:j] for i, j in ranges}
            assert {s.letters for s in proper_subwords(word)} == seen

class TestExponentSum:
    def test_examples(self):
        word = w((T, 1), (A, 1), (T, -1), (A, -1), (A, -1))
        assert exponent_sum(word, A) == -1
        assert exponent_sum(word, T) == 0
        assert exponent_sum(Word(), A) == 0


class TestSyllables:
    PARTITION = {A: "A", B: "B", T: "B"}

    def test_two_blocks(self):
        word = w((A, 1), (A, 1), (B, -1), (B, -1), (B, -1))
        decomp = syllable_decompose(word, self.PARTITION)
        assert [tag for tag, _ in decomp.syllables] == ["A", "B"]

    def test_alternating(self):
        word = w((A, 1), (B, 1), (A, 1), (B, 1))
        decomp = syllable_decompose(word, self.PARTITION)
        assert len(decomp.syllables) == 4

    def test_bab(self):
        word = w((B, 1), (A, 1), (A, 1), (B, 1))
        decomp = syllable_decompose(word, self.PARTITION)
        assert [tag for tag, _ in decomp.syllables] == ["B", "A", "B"]

    def test_missing_generator(self):
        with pytest.raises(InputError):
            syllable_decompose(w((T, 1)), {A: "A"})

    def test_round_trip(self, rng):
        for _ in range(200):
            word = free_reduce(random_raw_letters(rng, 3, 20))
            decomp = syllable_decompose(word, self.PARTITION)
            assert decomp.concatenate() == word
            tags = [tag for tag, _ in decomp.syllables]
            assert all(x != y for x, y in zip(tags, tags[1:]))


class TestCyclicConjugacy:
    def test_rotation(self):
        u = w((A, 1), (B, 1), (A, 1), (B, -1))
        assert u.is_cyclically_reduced()
        for k in range(len(u)):
            assert is_cyclic_conjugate(u, Word(u.letters[k:] + u.letters[:k]))

    def test_not_conjugate(self):
        assert not is_cyclic_conjugate(w((A, 1)), w((B, 1)))
