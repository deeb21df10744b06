"""Presentations and their text grammar.

One file describes one presentation::

    # free-product form of the trefoil
    gens: a, b
    rels: a^2*b^-3
    partition: A = a ; B = b          # optional factor tags
    quotient: a -> (1 2 3), b -> ()   # optional permutation images
    abelianize                        # optional marker

``*`` concatenates, ``^n`` takes integer powers, ``[x, y]`` is the commutator
``x y x^-1 y^-1``, ``;`` separates relators and ``#`` starts a comment.
Whitespace is insignificant inside expressions.  Relators are stored
cyclically reduced, with the stripped conjugator kept alongside.

Parsing has two caps, so that a short text cannot exhaust the stack or the
memory: brackets nest at most ``MAX_NESTING`` deep, and the powers,
commutators and products of one word expression, of the words of one
:func:`parse_words` call, or of all the relators of one file, build at most
``MAX_WORD_LETTERS`` letters in all, counted before free reduction.  A text
past either cap is refused with an ``InputError``; an exponent with more
digits than the budget has letters is refused before its digits are read.
"""

from __future__ import annotations

import re

from .errors import InputError
from .oracles import parse_permutation
from .words import Word, cyclic_reduce

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# the parser's caps, described in the module docstring
MAX_NESTING = 100               # brackets deep
MAX_WORD_LETTERS = 100_000      # letters built by one word or one file's relators


class Presentation:
    def __init__(self, gen_names, relators, partition=None, quotient_images=None,
                 abelianize=False):
        names = list(gen_names)
        if len(set(names)) != len(names):
            raise InputError("generator names must be unique")
        for n in names:
            if not _NAME_RE.fullmatch(n):
                raise InputError(f"bad generator name {n!r}")
        self.names = names
        self.relators = []
        self.relator_conjugators = []
        for w in relators:
            for i, _ in w.letters:
                if i >= len(names):
                    raise InputError("relator uses a generator outside the alphabet")
            core, conj = cyclic_reduce(w)
            self.relators.append(core)
            self.relator_conjugators.append(conj)
        self.partition = dict(partition) if partition else None
        self.quotient_images = dict(quotient_images) if quotient_images else None
        self.abelianize_requested = abelianize

    @property
    def rank(self):
        return len(self.names)

    def gen_index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown generator {name!r}") from None

    def render(self):
        lines = [f"gens: {', '.join(self.names)}"]
        if self.relators:
            lines.append("rels: " + " ; ".join(w.render(self.names) for w in self.relators))
        if self.partition:
            tags = {}
            for idx, tag in sorted(self.partition.items()):
                tags.setdefault(tag, []).append(self.names[idx])
            lines.append("partition: " + " ; ".join(
                f"{tag} = {', '.join(members)}" for tag, members in sorted(tags.items())))
        return "\n".join(lines)

    def __repr__(self):
        rels = ", ".join(w.render(self.names) for w in self.relators) or "-"
        return f"<Presentation on {', '.join(self.names)} | {rels}>"


# -- word expression parsing ---------------------------------------------------

# a name, an integer or a mark; any other non-space character is the second group
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*|-?\d+|[*^\[\](),;])|(\S))")


def _pop(toks, want=None):
    """The next token of ``toks``, a token list read from its end; ``want`` if given."""
    if not toks:
        raise InputError("unexpected end of word expression")
    if want and toks[-1] != want:
        raise InputError(f"expected {want!r}, got {toks[-1]!r}")
    return toks.pop()


def _spend(budget, size):
    """Take ``size`` letters from ``budget``, a one-item list that a file's words share."""
    budget[0] -= size
    if budget[0] < 0:
        raise InputError(f"word expressions build more than {MAX_WORD_LETTERS} letters "
                         "before free reduction, the supported maximum")


# The parser takes ``atoms``, each generator name's one-letter word, in place
# of the names: every letter it builds comes from there, so it never checks one.


def _parse_expr(toks, atoms, budget, depth):
    word = _parse_factor(toks, atoms, budget, depth)
    if not toks or toks[-1] != "*":
        return word
    # free reduction is confluent, so reducing the factors' letters once
    # gives their product
    letters = list(word.letters)
    while toks and toks[-1] == "*":
        toks.pop()
        letters += _parse_factor(toks, atoms, budget, depth).letters
    _spend(budget, len(letters))
    return Word.trusted(letters, reduce=True)


def _parse_factor(toks, atoms, budget, depth):
    atom = _parse_atom(toks, atoms, budget, depth)
    while toks and toks[-1] == "^":
        toks.pop()
        exp_tok = _pop(toks)
        if not exp_tok.lstrip("-").isdecimal():
            raise InputError(f"expected an integer exponent, got {exp_tok!r}")
        if not atom:
            continue    # the empty word's powers are empty, at any exponent
        digits = exp_tok.lstrip("-0") or "0"
        if len(digits) > len(str(budget[0])):
            # the power needs more letters than the budget has left, so its
            # digits, perhaps more than int() reads, are never read
            _spend(budget, budget[0] + 1)
        exp = -int(digits) if exp_tok[0] == "-" else int(digits)
        _spend(budget, len(atom) * abs(exp))
        atom = atom ** exp
    return atom


def _parse_atom(toks, atoms, budget, depth):
    tok = _pop(toks)
    if tok == "1":
        return Word.trusted(())
    if tok in ("(", "["):
        if depth == MAX_NESTING:
            raise InputError(f"brackets nest more than {MAX_NESTING} deep, the supported maximum")
        x = _parse_expr(toks, atoms, budget, depth + 1)
        if tok == "(":
            _pop(toks, ")")
            return x
        _pop(toks, ",")
        y = _parse_expr(toks, atoms, budget, depth + 1)
        _pop(toks, "]")
        _spend(budget, 2 * (len(x) + len(y)))
        return Word.trusted(x.letters + y.letters + x.inverse().letters
                            + y.inverse().letters, reduce=True)
    if _NAME_RE.fullmatch(tok):
        if tok not in atoms:
            raise InputError(f"unknown generator {tok!r}")
        return atoms[tok]
    raise InputError(f"unexpected token {tok!r} in word expression")


def _parse_word(text, atoms, budget):
    pairs = _TOKEN_RE.findall(text)
    for _, bad in pairs:
        if bad:
            raise InputError(f"unexpected character {bad!r} in word expression")
    toks = [tok for tok, _ in reversed(pairs)]
    word = _parse_expr(toks, atoms, budget, 0) if toks else Word.trusted(())
    if toks:
        raise InputError(f"trailing token {toks[-1]!r} in word expression")
    return word


def _atoms(names):
    """Each generator name's one-letter word; the first of a repeated name wins."""
    atoms = {}
    for i, name in enumerate(names):
        atoms.setdefault(name, Word.trusted(((i, 1),)))
    return atoms


def parse_word(text, names) -> Word:
    """Parse a single word expression over the given generator names."""
    return _parse_word(text, _atoms(names), [MAX_WORD_LETTERS])


def parse_words(texts, names) -> list:
    """Parse word expressions that share one letter budget, as a file's relators do."""
    atoms, budget = _atoms(names), [MAX_WORD_LETTERS]
    return [_parse_word(text, atoms, budget) for text in texts]


# -- presentation files --------------------------------------------------------


def parse_quotient(text, names) -> dict:
    """Permutation images from ``a -> (1 2 3), b -> ()``, keyed by name.

    Every generator in ``names`` needs exactly one image; all images are
    taken on the largest number of points any of them mentions.
    """
    raw = {}
    for chunk in re.split(r",(?![^()]*\))", text):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "->" not in chunk:
            raise InputError(f"bad quotient chunk {chunk!r}")
        gname, perm = chunk.split("->", 1)
        gname = gname.strip()
        if gname not in names:
            raise InputError(f"quotient names unknown generator {gname!r}")
        if gname in raw:
            raise InputError(f"quotient names generator {gname!r} twice")
        raw[gname] = perm.strip()
    missing = [g for g in names if g not in raw]
    if missing:
        raise InputError(f"quotient is missing images for {missing}")
    images = {g: parse_permutation(perm) for g, perm in raw.items()}
    degree = max(map(len, images.values()), default=1)
    return {g: images[g] + tuple(range(len(images[g]), degree)) for g in names}


def parse_presentation(text) -> Presentation:
    gens, rels, partition, images, abelianize = None, [], None, None, False
    budget = [MAX_WORD_LETTERS]
    atoms = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "abelianize":
            abelianize = True
            continue
        if ":" not in line:
            raise InputError(f"cannot parse line {raw.strip()!r}")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key not in ("gens", "rels", "partition", "quotient"):
            raise InputError(f"unknown stanza {key!r}")
        if key != "gens" and gens is None:
            raise InputError(f"{key} stanza before gens stanza")
        if key == "gens":
            gens = [g.strip() for g in value.split(",") if g.strip()]
            atoms = _atoms(gens)
        elif key == "rels":
            rels = [_parse_word(c, atoms, budget) for c in value.split(";") if c.strip()]
        elif key == "partition":
            partition = {}
            for chunk in filter(str.strip, value.split(";")):
                if "=" not in chunk:
                    raise InputError(f"bad partition chunk {chunk!r}")
                tag, members = chunk.split("=", 1)
                for member in filter(None, map(str.strip, members.split(","))):
                    if member not in gens:
                        raise InputError(f"partition names unknown generator {member!r}")
                    partition[gens.index(member)] = tag.strip()
        else:
            images = parse_quotient(value, gens)
    if gens is None:
        raise InputError("presentation file is missing a gens stanza")

    p = Presentation(gens, rels, partition=partition, quotient_images=images,
                     abelianize=abelianize)
    uncovered = [g for i, g in enumerate(p.names) if partition is not None and i not in partition]
    if uncovered:
        raise InputError(f"partition does not cover {uncovered}")
    return p


def load_presentation(path) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())
