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
"""

from __future__ import annotations

import re

from .errors import InputError
from .oracles import parse_permutation
from .words import Word, cyclic_reduce

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


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


class _Tokens:
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
            m = _NAME_RE.match(text, i)
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


def _parse_expr(toks, names):
    # free reduction is confluent, so reducing the factors' letters once
    # gives their product
    letters = list(_parse_factor(toks, names).letters)
    while toks.peek() == "*":
        toks.next()
        letters += _parse_factor(toks, names).letters
    return Word(letters)


def _parse_factor(toks, names):
    atom = _parse_atom(toks, names)
    while toks.peek() == "^":
        toks.next()
        exp_tok = toks.next()
        try:
            exp = int(exp_tok)
        except ValueError:
            raise InputError(f"expected an integer exponent, got {exp_tok!r}") from None
        atom = atom ** exp
    return atom


def _parse_atom(toks, names):
    tok = toks.next()
    if tok == "1":
        return Word()
    if tok == "(":
        inner = _parse_expr(toks, names)
        toks.expect(")")
        return inner
    if tok == "[":
        x = _parse_expr(toks, names)
        toks.expect(",")
        y = _parse_expr(toks, names)
        toks.expect("]")
        return x * y * x.inverse() * y.inverse()
    if _NAME_RE.fullmatch(tok):
        try:
            index = names.index(tok)
        except ValueError:
            raise InputError(f"unknown generator {tok!r}") from None
        return Word([(index, 1)])
    raise InputError(f"unexpected token {tok!r} in word expression")


def parse_word(text, names) -> Word:
    """Parse a single word expression over the given generator names."""
    toks = _Tokens(text)
    if toks.peek() is None:
        return Word()
    word = _parse_expr(toks, names)
    if toks.peek() is not None:
        raise InputError(f"trailing token {toks.peek()!r} in word expression")
    return word


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


def _strip_comment(line):
    return line.split("#", 1)[0]


def parse_presentation(text) -> Presentation:
    gens = None
    rels = []
    partition = None
    images = None
    abelianize = False
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
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
            rels = [parse_word(chunk, gens) for chunk in value.split(";") if chunk.strip()]
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
                        partition[gens.index(member) if member in gens else _missing(member)] = tag
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


def _missing(member):
    raise InputError(f"partition names unknown generator {member!r}")


def load_presentation(path) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())
