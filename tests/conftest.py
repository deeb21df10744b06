import random

import pytest

from onerel.presentations import Presentation
from onerel.words import Word


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_raw_letters(rng, alphabet_size, max_len):
    n = rng.randrange(max_len + 1)
    return [(rng.randrange(alphabet_size), rng.choice((1, -1))) for _ in range(n)]


def random_reduced_word(rng, alphabet_size, length):
    """A freely reduced word of exactly the requested length (if possible)."""
    letters = []
    while len(letters) < length:
        i = rng.randrange(alphabet_size)
        s = rng.choice((1, -1))
        if letters and letters[-1] == (i, -s):
            continue
        letters.append((i, s))
    return Word(letters)


def random_cyclically_reduced_word(rng, alphabet_size, length):
    for _ in range(1000):
        w = random_reduced_word(rng, alphabet_size, length)
        if w.is_cyclically_reduced():
            return w
    raise AssertionError("failed to sample a cyclically reduced word")


def mat_mul(a, b):
    """Dense integer matrix product, an independent check of the library."""
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0]))]
            for row in a]


def presentation_on(names, relators):
    return Presentation(names, relators)
