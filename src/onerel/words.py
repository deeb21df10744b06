"""Freely reduced words over a finite alphabet of named generators.

A :class:`Word` stores a tuple of ``(generator index, sign)`` pairs and is
always freely reduced.  Words are immutable and hashable, so they can be used
as group-ring support keys and shared between threads.

Letters are validated where they enter the library: ``Word(letters)``
refuses a negative generator index or a sign other than +-1 and reduces,
:func:`free_reduce` does the same and can also bound the indices, and the
parser in :mod:`onerel.presentations` builds letters only from generator
names it knows.  A word made inside the library from the letters of existing
words is already valid, so it is built by :meth:`Word.trusted`, with no
check, and reduced only where letters can cancel: at the seam of a product,
or when a caller asks.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import InputError


class Word:
    """A freely reduced word; ``letters`` is a tuple of (index, sign) pairs."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters=()):
        letters = tuple((int(i), int(s)) for i, s in letters)
        for i, s in letters:
            if i < 0:
                raise InputError(f"negative generator index {i}")
            if s not in (1, -1):
                raise InputError(f"letter sign must be +-1, got {s}")
        self.letters = _reduce_letters(letters)
        self._hash = None

    @classmethod
    def trusted(cls, letters, reduce=False):
        """A word of letters taken from valid words: no check, reduced only if ``reduce``.

        Without ``reduce`` the letters must already be freely reduced.
        """
        w = object.__new__(cls)
        w.letters = _reduce_letters(letters) if reduce else tuple(letters)
        w._hash = None
        return w

    # -- basic protocol ----------------------------------------------------

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.letters)
        return self._hash

    def __repr__(self):
        return f"Word({list(self.letters)!r})"

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        # both factors are reduced, so letters cancel only across the seam
        left, right = self.letters, other.letters
        k, n = 0, min(len(left), len(right))
        while k < n and left[-1 - k][0] == right[k][0] and left[-1 - k][1] == -right[k][1]:
            k += 1
        return Word.trusted(left[:len(left) - k] + right[k:])

    def __pow__(self, n):
        """``self`` to the integer ``n``: ``c * core^n * c^-1`` for ``self = c * core * c^-1``."""
        if n == 0 or not self.letters:
            return Word.trusted(())
        base = self if n > 0 else self.inverse()
        if base.is_cyclically_reduced():
            return Word.trusted(base.letters * abs(n))
        core, conj = cyclic_reduce(base)
        return Word.trusted(conj.letters + core.letters * abs(n) + conj.inverse().letters)

    def inverse(self):
        return Word.trusted(tuple((i, -s) for i, s in reversed(self.letters)))

    def prefix(self, k):
        """First ``k`` letters (freely reduced already)."""
        return Word.trusted(self.letters[:k])

    def generators_used(self):
        return sorted({i for i, _ in self.letters})

    def occurrence_count(self, gen_index):
        return sum(1 for i, _ in self.letters if i == gen_index)

    def is_cyclically_reduced(self):
        if len(self.letters) < 2:
            return True
        (i0, s0), (i1, s1) = self.letters[0], self.letters[-1]
        return not (i0 == i1 and s0 == -s1)

    def render(self, names):
        """Human-readable form like ``a^2*b^-3``; the identity is ``1``."""
        if not self.letters:
            return "1"
        parts = []
        for idx, exp in self.syllable_runs():
            name = names[idx]
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(parts)

    def syllable_runs(self):
        """Maximal runs of one generator, as (index, signed exponent) pairs."""
        runs = []
        for i, s in self.letters:
            if runs and runs[-1][0] == i and (runs[-1][1] > 0) == (s > 0):
                runs[-1][1] += s
            else:
                runs.append([i, s])
        return [(i, e) for i, e in runs]


def _reduce_letters(letters):
    stack = []
    for i, s in letters:
        if stack and stack[-1][0] == i and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((i, s))
    return tuple(stack)


def free_reduce(raw: Iterable[tuple[int, int]], alphabet_size=None) -> Word:
    """Freely reduce a raw letter sequence into a :class:`Word`.

    Idempotent; raises :class:`InputError` on out-of-range generator indices
    when ``alphabet_size`` is given.
    """
    letters = tuple((int(i), int(s)) for i, s in raw)
    if alphabet_size is not None:
        for i, _ in letters:
            if not 0 <= i < alphabet_size:
                raise InputError(f"generator index {i} outside alphabet of size {alphabet_size}")
    return Word(letters)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Return ``(core, conjugator)`` with conjugator*core*conjugator^-1 == w."""
    ls = w.letters
    k, n = 0, len(ls)
    while n - 2 * k >= 2 and ls[k][0] == ls[n - 1 - k][0] and ls[k][1] == -ls[n - 1 - k][1]:
        k += 1
    return Word.trusted(ls[k:n - k]), Word.trusted(ls[:k])


def is_proper_power(w: Word) -> tuple[Word, int]:
    """Maximal root decomposition of a cyclically reduced word.

    Returns ``(root, k)`` with ``root^k == w`` and ``k`` maximal; ``k == 1``
    means the word is not a proper power.  Uses the periodicity of the letter
    string, which characterises proper powers of cyclically reduced words.
    """
    if not w:
        raise InputError("the empty word has no root decomposition")
    if not w.is_cyclically_reduced():
        raise InputError("root decomposition requires a cyclically reduced word")
    ls = w.letters
    n = len(ls)
    for p in range(1, n + 1):
        if n % p:
            continue
        if all(ls[i] == ls[i % p] for i in range(n)):
            return Word.trusted(ls[:p]), n // p
    raise AssertionError("unreachable: every string is a power of itself")


def proper_subwords(w: Word) -> list[Word]:
    """All proper non-empty contiguous subwords, deduplicated, by start and then end."""
    ls = w.letters
    n = len(ls)
    seen = set()
    out = []
    for start in range(n):
        for end in range(start + 1, n + 1):
            sub = ls[start:end]
            if end - start < n and sub not in seen:
                seen.add(sub)
                out.append(Word.trusted(sub))
    return out


def exponent_sum(w: Word, gen_index: int) -> int:
    return sum(s for i, s in w.letters if i == gen_index)


def exponent_vector(w: Word, alphabet_size: int) -> tuple[int, ...]:
    vec = [0] * alphabet_size
    for i, s in w.letters:
        vec[i] += s
    return tuple(vec)


class SyllableDecomposition(NamedTuple):
    """Alternating factor runs of a word under a generator partition."""
    syllables: tuple  # of (tag, Word)

    def concatenate(self) -> Word:
        out = Word()
        for _, piece in self.syllables:
            out = out * piece
        return out


def syllable_decompose(w: Word, partition: dict[int, str]) -> SyllableDecomposition:
    """Split into maximal runs of letters from one partition factor.

    ``partition`` maps generator index -> factor tag and must cover every
    generator appearing in ``w``.
    """
    syllables = []
    current = []
    current_tag = None
    for i, s in w.letters:
        if i not in partition:
            raise InputError(f"partition does not cover generator index {i}")
        tag = partition[i]
        if tag == current_tag:
            current.append((i, s))
        else:
            if current:
                syllables.append((current_tag, Word.trusted(current)))
            current = [(i, s)]
            current_tag = tag
    if current:
        syllables.append((current_tag, Word.trusted(current)))
    return SyllableDecomposition(tuple(syllables))


def is_cyclic_conjugate(u: Word, v: Word) -> bool:
    """Whether two cyclically reduced words are rotations of each other."""
    if len(u) != len(v):
        return False
    if not u:
        return True
    doubled = u.letters + u.letters
    n = len(v.letters)
    return any(doubled[k:k + n] == v.letters for k in range(n))
