"""Free differential calculus and presentation Jacobians.

Derivatives are the unique linear maps on the free-group ring with
``d(s)/ds = 1``, ``d(t)/ds = 0`` for ``t != s`` and the product rule
``d(vw)/ds = dv/ds + v * dw/ds``; it follows that ``d(s^-1)/ds = -s^-1``.
Unrolling the product rule over the letters of a word gives the closed form
used here: positive occurrences of ``s`` contribute their prefix, negative
occurrences contribute minus the prefix including the letter.
"""

from __future__ import annotations

import functools
import itertools

from .domains import Domain, ZZ
from .errors import InputError, InternalCheckError, UnsupportedError
from .groupring import GroupRingElement, GroupRingMatrix
from .oracles import FreeOracle, PermOracle, TRIVIAL_ORACLE, ZPowOracle
from .presentations import Presentation
from .words import Word


# The longest word that fox_derivative differentiates.  A word of n letters
# has up to n terms, prefixes of up to n letters, so the answer is quadratic:
# ``fox --word a^1000`` takes about 0.1 s and 20 MB, a^4000 2.3 s.  The tests
# reach 40 letters and the benchmark's fox jobs 30.
MAX_FOX_LETTERS = 1000


def _word_derivative(word: Word, gen_index: int):
    """Terms ``(prefix, +-1)`` of a word's derivative; they depend on no oracle."""
    return [(word.prefix(k), 1) if s > 0 else (word.prefix(k + 1), -1)
            for k, (i, s) in enumerate(word.letters) if i == gen_index]


def fox_derivative(x, gen_index: int, oracle: FreeOracle | None = None,
                   domain: Domain = ZZ) -> GroupRingElement:
    """Derivative of a Word or a free-group-ring element w.r.t. one generator.

    A Word's derivative lies in ``domain[oracle]``; an element's derivative
    lies over the element's own oracle and domain.  A word of more than
    ``MAX_FOX_LETTERS`` letters is refused with
    :class:`~onerel.errors.UnsupportedError`.
    """
    if isinstance(x, Word):
        if oracle is None:
            raise InputError("the derivative of a word needs a free oracle")
        if len(x) > MAX_FOX_LETTERS:
            raise UnsupportedError(f"the word has {len(x)} letters; fox differentiates words "
                                   f"of at most {MAX_FOX_LETTERS} letters, the supported maximum")
        return GroupRingElement(oracle, domain, _word_derivative(x, gen_index))
    return GroupRingElement(x.oracle, x.domain, [
        (prefix, sign * c)
        for w, c in x.terms.items() for prefix, sign in _word_derivative(w, gen_index)])


def fundamental_identity_check(w: Word, alphabet_size: int) -> bool:
    """Exact check of ``sum_s (dw/ds) * (s - 1) == w - 1`` in the free ring."""
    oracle = FreeOracle([f"x{s}" for s in range(alphabet_size)])
    one = GroupRingElement.one(oracle, ZZ)
    total = GroupRingElement.zero(oracle, ZZ)
    for s in range(alphabet_size):
        gen = GroupRingElement.of(oracle, ZZ, Word.trusted(((s, 1),)))
        total = total + fox_derivative(w, s, oracle) * (gen - one)
    return total == GroupRingElement.of(oracle, ZZ, w) - one


class QuotientMap:
    """A map from a presentation's free group onto a quotient oracle.

    Kinds: ``trivial``, ``abelian`` (images in Z^k; the default images give
    the full abelianisation) and ``permutation``.  Construction verifies that
    every relator maps to the identity, naming the first that does not.
    ``letter_images`` maps each letter ``(index, sign)`` to its image, the
    inverse letters' images inverted once here, so that a walk along a word
    only multiplies.
    """

    def __init__(self, presentation: Presentation, kind, oracle, images):
        self.presentation = presentation
        self.kind = kind
        self.oracle = oracle
        self.images = dict(images)  # generator index -> oracle element
        self.letter_images = {}
        for i, image in self.images.items():
            self.letter_images[i, 1] = image
            self.letter_images[i, -1] = oracle.invert(image)
        for idx, w in enumerate(presentation.relators):
            if self.apply(w) != oracle.identity():
                name = w.render(presentation.names)
                raise InputError(
                    f"quotient map does not kill relator {idx} ({name})")

    @classmethod
    def trivial(cls, presentation):
        oracle = TRIVIAL_ORACLE
        return cls(presentation, "trivial", oracle,
                   {i: 0 for i in range(presentation.rank)})

    @classmethod
    def abelianization(cls, presentation):
        rank = presentation.rank
        oracle = ZPowOracle(rank, var_names=presentation.names)
        images = {i: tuple(1 if j == i else 0 for j in range(rank))
                  for i in range(rank)}
        return cls(presentation, "abelian", oracle, images)

    @classmethod
    def to_abelian(cls, presentation, images):
        """Explicit images in Z^k; integers are taken as Z^1 images."""
        vecs = {}
        for i in range(presentation.rank):
            img = images[i] if not isinstance(images, dict) or i in images else None
            if img is None:
                raise InputError(f"missing image for generator {presentation.names[i]}")
            vecs[i] = (img,) if isinstance(img, int) else tuple(img)
        ranks = {len(v) for v in vecs.values()}
        if len(ranks) != 1:
            raise InputError("abelian images must share one rank")
        rank = ranks.pop()
        oracle = ZPowOracle(rank, var_names=["t"] if rank == 1 else None)
        return cls(presentation, "abelian", oracle, vecs)

    @classmethod
    def permutation(cls, presentation, images=None):
        """Permutation images; defaults to the presentation's quotient stanza."""
        if images is None:
            images = presentation.quotient_images
            if images is None:
                raise InputError("presentation carries no quotient stanza")
        images = {presentation.gen_index(k) if isinstance(k, str) else k: tuple(v)
                  for k, v in images.items()}
        degrees = {len(v) for v in images.values()}
        if len(degrees) != 1:
            raise InputError("permutation images must share one degree")
        oracle = PermOracle(degrees.pop(), generators=list(images.values()))
        return cls(presentation, "permutation", oracle, images)

    def prefix_images(self, w: Word) -> list:
        """Images of the prefixes of ``w``, of lengths 0 to ``len(w)``, in one walk."""
        return list(itertools.accumulate(map(self.letter_images.__getitem__, w.letters),
                                         self.oracle.multiply, initial=self.oracle.identity()))

    def apply(self, w: Word):
        return functools.reduce(self.oracle.multiply,
                                map(self.letter_images.__getitem__, w.letters),
                                self.oracle.identity())


def jacobian(presentation: Presentation, quotient: QuotientMap,
             domain: Domain = ZZ) -> GroupRingMatrix:
    """Matrix of pushed-forward derivatives: rows relators, columns generators.

    Each relator is walked once: the closed form's prefixes are read off the
    running images of :meth:`QuotientMap.prefix_images`.
    """
    entries = []
    for w in presentation.relators:
        prefixes = quotient.prefix_images(w)
        columns = [[] for _ in range(presentation.rank)]
        for k, (i, s) in enumerate(w.letters):
            columns[i].append((prefixes[k], 1) if s > 0 else (prefixes[k + 1], -1))
        entries.append([GroupRingElement(quotient.oracle, domain, terms)
                        for terms in columns])
    return GroupRingMatrix(
        quotient.oracle, domain, entries,
        row_labels=[w.render(presentation.names) for w in presentation.relators],
        col_labels=list(presentation.names), ncols=presentation.rank)


class ResolutionComplex:
    """Three-term complex: derivative matrix, fence column, augmentation.

    ``d2`` is the Jacobian; ``d1`` sends the generator basis vector for ``s``
    to ``phi(s) - 1``; ``d0`` is the augmentation.  Both composites are
    verified to vanish exactly on construction, and the rows of ``d2``
    generate the image identified with the coefficient-extended relation
    module.
    """

    def __init__(self, presentation, quotient, domain=ZZ):
        self.presentation = presentation
        self.quotient = quotient
        self.domain = domain
        self.d2 = jacobian(presentation, quotient, domain)
        ident = quotient.oracle.identity()
        self.d1 = [GroupRingElement(quotient.oracle, domain,
                                    [(quotient.images[s], 1), (ident, -1)])
                   for s in range(presentation.rank)]
        self._verify()

    def _verify(self):
        """Check ``d1 o d2 = 0`` and ``d0 o d1 = 0`` exactly.

        Row ``i`` of ``d1 o d2`` is the sum over ``j`` of ``d2[i][j] * (phi(s_j) - 1)``:
        each term ``c*g`` of ``d2[i][j]`` adds ``c`` at ``g * phi(s_j)`` and
        ``-c`` at ``g``, all into one map, and the sums are then brought to
        the domain's normal form.  By Fox's fundamental formula the row is
        ``phi(r_i) - 1``, which vanishes since ``phi`` kills the relator.
        """
        oracle, coerce = self.d2.oracle, self.domain.coerce
        multiply, images = oracle.multiply, self.quotient.images
        for i, row in enumerate(self.d2.entries):
            total = {}
            for j, entry in enumerate(row):
                h = images[j]
                for g, c in entry.terms.items():
                    gh = multiply(g, h)
                    total[gh] = total.get(gh, 0) + c
                    total[g] = total.get(g, 0) - c
            if any(map(coerce, total.values())):
                nonzero = GroupRingElement(oracle, self.domain, total.items())
                raise InternalCheckError(
                    f"d1 o d2 is nonzero on relator row {i}: {nonzero.render()}")
        for col in self.d1:
            if self.domain.coerce(sum(col.terms.values())):
                raise InternalCheckError("d0 o d1 is nonzero")


def resolution_complex(presentation, quotient, domain=ZZ) -> ResolutionComplex:
    return ResolutionComplex(presentation, quotient, domain)
