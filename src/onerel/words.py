"""Freely reduced words over a finite alphabet of named generators.

A :class:`Word` stores a tuple of ``(generator index, sign)`` pairs and is
always freely reduced; the only entry point that accepts raw letters is
:func:`free_reduce`.  Words are immutable and hashable, so they can be used
as group-ring support keys and shared between threads.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import InputError


class Word:
    """A freely reduced word; ``letters`` is a tuple of (index, sign) pairs."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters=(), _reduced=False):
        letters = tuple((int(i), int(s)) for i, s in letters)
        for i, s in letters:
            if i < 0:
                raise InputError(f"negative generator index {i}")
            if s not in (1, -1):
                raise InputError(f"letter sign must be +-1, got {s}")
        if not _reduced:
            letters = _reduce_letters(letters)
        self.letters = letters
        self._hash = None

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
        return Word(self.letters + other.letters)

    def __pow__(self, n):
        if n == 0:
            return Word()
        base = self if n > 0 else self.inverse()
        return Word(base.letters * abs(n))

    def inverse(self):
        return Word(tuple((i, -s) for i, s in reversed(self.letters)), _reduced=True)

    def prefix(self, k):
        """First ``k`` letters (freely reduced already)."""
        return Word(self.letters[:k], _reduced=True)

    def generators_used(self):
        return sorted({i for i, _ in self.letters})

    def occurrence_count(self, gen_index):
        return sum(1 for i, _ in self.letters if i == gen_index)

    def is_cyclically_reduced(self):
        if len(self.letters) < 2:
            return True
        (i0, s0), (i1, s1) = self.letters[0], self.letters[-1]
        return not (i0 == i1 and s0 == -s1)

    def rotations(self):
        """All cyclic rotations as words (input should be cyclically reduced)."""
        ls = self.letters
        return [Word(ls[k:] + ls[:k], _reduced=True) for k in range(max(1, len(ls)))]

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
    letters = list(w.letters)
    conj = []
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1]:
        conj.append(letters[0])
        letters = letters[1:-1]
    return Word(tuple(letters), _reduced=True), Word(tuple(conj), _reduced=True)


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
            return Word(ls[:p], _reduced=True), n // p
    raise AssertionError("unreachable: every string is a power of itself")


def proper_subwords(w: Word, cyclic=False) -> list[Word]:
    """All proper non-empty contiguous subwords, deduplicated.

    In cyclic mode the subwords of every rotation are enumerated (lengths
    ``1 .. len(w)-1``), so the pre-deduplication multiset has ``n*(n-1)``
    entries for a length-``n`` word.
    """
    ls = w.letters
    n = len(ls)
    seen = set()
    out = []
    if cyclic:
        if n and not w.is_cyclically_reduced():
            raise InputError("cyclic subword enumeration requires a cyclically reduced word")
        doubled = ls + ls
        for start in range(n):
            for length in range(1, n):
                sub = doubled[start:start + length]
                if sub not in seen:
                    seen.add(sub)
                    out.append(Word(sub, _reduced=True))
    else:
        for start in range(n):
            for end in range(start + 1, n + 1):
                if end - start == n:
                    continue
                sub = ls[start:end]
                if sub not in seen:
                    seen.add(sub)
                    out.append(Word(sub, _reduced=True))
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
                syllables.append((current_tag, Word(tuple(current), _reduced=True)))
            current = [(i, s)]
            current_tag = tag
    if current:
        syllables.append((current_tag, Word(tuple(current), _reduced=True)))
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
