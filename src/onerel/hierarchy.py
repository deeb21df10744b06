"""Magnus-style hierarchy steps for one-relator presentations.

The HNN step lifts the relator to the infinite-cyclic cover of the
presentation's rose determined by an epimorphism to Z, restricts to the
finite window of levels the lifted path visits, and rewrites the path over a
spanning forest of that window graph.  The non-forest edges become the base
generators (named by generator and shifted level, e.g. ``a0``, ``a1``); the
rewritten relator is strictly shorter than the input, and substituting each
base generator's recorded expansion back into it recovers the original
relator exactly, a check performed on every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InputError, InternalCheckError
from .graphs import Graph, tree_path
from .presentations import Presentation
from .words import (Word, cyclic_reduce, exponent_vector, is_cyclic_conjugate,
                    is_proper_power, syllable_decompose)


class NoEpimorphism(InputError):
    """The presentation admits no surjection onto Z."""


@dataclass(frozen=True)
class EpimorphismToZ:
    values: tuple  # one integer per generator

    def __call__(self, w: Word) -> int:
        return sum(s * self.values[i] for i, s in w.letters)

    def render(self, names):
        return ", ".join(f"{n} -> {v}" for n, v in zip(names, self.values))


def find_epimorphism(p: Presentation) -> EpimorphismToZ:
    """Canonical surjection G -> Z for a one-relator presentation.

    Returns the last row of the Hermite form of the kernel of the relator's
    exponent-sum vector ``v``: the primitive kernel vector with the most
    leading zeros and a positive leading entry.  That is ``e_(n-1)`` when
    ``v`` ends in 0, and otherwise the primitive solution supported on the
    last two generators.  Raises :class:`NoEpimorphism` when the
    abelianisation is finite.
    """
    if len(p.relators) != 1:
        raise InputError("epimorphism search expects exactly one relator")
    if p.rank == 0:
        raise NoEpimorphism("empty alphabet")
    vec = exponent_vector(p.relators[0], p.rank)
    values = [0] * p.rank
    if vec[-1] == 0:
        values[-1] = 1
    elif p.rank == 1:
        raise NoEpimorphism("the abelianisation of the quotient is finite")
    else:
        g = math.gcd(vec[-2], vec[-1])
        sign = 1 if vec[-1] > 0 else -1
        values[-2], values[-1] = abs(vec[-1]) // g, -sign * vec[-2] // g
    if sum(x * v for x, v in zip(values, vec)) != 0 or math.gcd(*values) != 1:
        raise InternalCheckError("epimorphism does not kill the relator "
                                 "or is not surjective")
    return EpimorphismToZ(tuple(values))


# -- prefix sequences and the coprime-pair lemma -------------------------------


@dataclass(frozen=True)
class PrefixSequence:
    values: tuple          # normalised: endpoints 0, entries >= 0
    raw_values: tuple      # before rotation/inversion
    a: int                 # smaller factor step
    b: int                 # larger factor step
    low: int               # min of raw values
    high: int              # max of raw values
    rotation: int          # syllable offset applied during normalisation
    inverted: bool

    @property
    def span(self) -> int:
        return self.high - self.low


def prefix_sequence(w: Word, phi: EpimorphismToZ, partition) -> PrefixSequence:
    """Level sequence of the syllable prefixes of a two-factor word.

    ``partition`` maps generator index to one of exactly two factor tags; the
    word must alternate factors cyclically (even syllable count).  The raw
    sequence records phi of each syllable prefix; normalisation rotates to a
    cyclic minimum and possibly inverts so that entries are non-negative,
    endpoints are zero and the first step is divisible by the larger factor
    step ``b``.
    """
    if phi(w) != 0:
        raise InputError("prefix sequences need a relator in the kernel of phi")
    decomp = syllable_decompose(w, partition)
    syllables = decomp.syllables
    tags = sorted({tag for tag, _ in syllables})
    if len(tags) != 2:
        raise InputError("prefix sequences need a word meeting exactly two factors")
    if len(syllables) % 2:
        # first and last runs share a factor: pass to the cyclic conjugate
        # starting at the first factor boundary, where the runs merge
        shift = len(syllables[0][1])
        w = Word(w.letters[shift:] + w.letters[:shift], _reduced=True)
        decomp = syllable_decompose(w, partition)
        syllables = decomp.syllables
    if len(syllables) % 2:
        raise InputError("word does not alternate factors cyclically")

    steps = [phi(piece) for _, piece in syllables]
    raw = [0]
    for s in steps:
        raw.append(raw[-1] + s)

    # factor parameters: gcd of phi over each factor's generators used in w
    gcds = {tag: 0 for tag in tags}
    for i, _ in w.letters:
        gcds[partition[i]] = math.gcd(gcds[partition[i]], abs(phi.values[i]))
    if 0 in gcds.values():
        raise InputError("phi vanishes on one factor; the sequence degenerates")
    a, b = sorted(gcds.values())

    n = len(steps)
    candidates = []
    for invert in (False, True):
        seq = raw if not invert else raw[::-1]
        stp = steps if not invert else [-s for s in reversed(steps)]
        fct = [tag for tag, _ in syllables]
        if invert:
            fct = fct[::-1]
        for rot in range(n):
            values = [seq[(rot + j) % n] - seq[rot] for j in range(n)]
            values.append(0)
            if min(values) < 0:
                continue
            first_tag = fct[rot % n]
            if gcds[first_tag] != b and a != b:
                continue
            candidates.append((tuple(values), rot, invert))
    if not candidates:
        raise InternalCheckError("no admissible rotation of the prefix sequence")
    values, rot, inverted = min(candidates)
    return PrefixSequence(values=values, raw_values=tuple(raw), a=a, b=b,
                          low=min(raw), high=max(raw), rotation=rot,
                          inverted=inverted)


@dataclass(frozen=True)
class LemmaVerdict:
    kind: str              # "SumZero" | "LargeEntry" | "CounterexampleToLemma"
    index: int | None = None
    total: int = 0

    def render(self):
        if self.kind == "LargeEntry":
            return f"LargeEntry at index {self.index} (sum = {self.total})"
        return self.kind


def _validate_sequence(a, b, values):
    if a > b or a < 1:
        raise InputError("need positive integers a <= b")
    if math.gcd(a, b) != 1:
        raise InputError(f"{a} and {b} are not coprime")
    values = [int(v) for v in values]
    if len(values) < 3 or len(values) % 2 == 0:
        raise InputError("sequence must have odd length >= 3")
    if values[0] != 0 or values[-1] != 0:
        raise InputError("sequence endpoints must be zero")
    if any(v < 0 for v in values):
        raise InputError("sequence entries must be non-negative")
    for k in range(len(values) - 1):
        step = values[k + 1] - values[k]
        mod = b if k % 2 == 0 else a
        if step % mod:
            raise InputError(
                f"step {k} ({values[k]} -> {values[k + 1]}) is not divisible by {mod}")
    return values


def number_lemma_check(a, b, values) -> LemmaVerdict:
    """Which disjunct of the coprime-pair alternative holds for one sequence."""
    values = _validate_sequence(a, b, values)
    total = sum(values[2 * l] - values[2 * l + 1] for l in range((len(values) - 1) // 2))
    if total == 0:
        return LemmaVerdict(kind="SumZero", total=0)
    for idx, v in enumerate(values):
        if v >= a + b - 1:
            return LemmaVerdict(kind="LargeEntry", index=idx, total=total)
    return LemmaVerdict(kind="CounterexampleToLemma", total=total)


def number_lemma_oracle(a, b, max_pairs, cap=8) -> dict:
    """Exhaustively check the alternative on all small bounded sequences.

    Enumerates every sequence with ``n <= max_pairs`` pairs, entries below
    ``a + b - 1``, zero endpoints and the alternating divisibility
    constraints, and verifies the pair-difference sum vanishes for each.
    """
    if a > b or a < 1:
        raise InputError("need positive integers a <= b")
    if math.gcd(a, b) != 1:
        raise InputError(f"{a} and {b} are not coprime")
    if max_pairs > cap:
        raise InputError(f"max_pairs {max_pairs} exceeds the cap {cap}")
    bound = a + b - 1
    counts = {"sequences": 0, "counterexamples": 0}

    def successors(v, mod):
        r = v % mod
        return range(r, bound, mod)

    stack = [[0]]           # sequences of odd length, ending at an i-position
    while stack:
        seq = stack.pop()
        pairs = (len(seq) - 1) // 2
        if pairs and seq[-1] == 0:
            counts["sequences"] += 1
            total = sum(seq[2 * l] - seq[2 * l + 1] for l in range(pairs))
            if total != 0:
                counts["counterexamples"] += 1
        if pairs == max_pairs:
            continue
        for j in successors(seq[-1], b):
            for i_next in successors(j, a):
                stack.append(seq + [j, i_next])
    return counts


# -- the HNN step ---------------------------------------------------------------


@dataclass
class HNNStep:
    source: Presentation
    phi: EpimorphismToZ
    window: tuple           # (low, high) levels visited by the lifted relator
    base: Presentation      # subscripted generators with the rewritten relator
    relator_word: Word      # the rewritten relator u over the base generators
    stable_letter: str
    expansions: dict        # base generator name -> Word over the source alphabet
    assoc_j0: list = field(default_factory=list)  # words over base generators
    assoc_j1: list = field(default_factory=list)
    power: int = 1          # relator exponent carried alongside the root

    def render(self, indent=""):
        src_names = self.source.names
        lines = [
            f"{indent}phi: {self.phi.render(src_names)}",
            f"{indent}window: levels {self.window[0]}..{self.window[1]}",
            f"{indent}base: <{', '.join(self.base.names)} | "
            f"{self.base.relators[0].render(self.base.names)}>",
            f"{indent}stable letter: {self.stable_letter}",
        ]
        if self.assoc_j0:
            j0 = ", ".join(w.render(self.base.names) for w in self.assoc_j0)
            j1 = ", ".join(w.render(self.base.names) for w in self.assoc_j1)
            lines.append(f"{indent}associated subgroups: [{j0}] -> [{j1}]")
        return "\n".join(lines)


def _relator_path(w: Word, phi: EpimorphismToZ):
    """Cover edges traversed by the lifted relator, starting at level 0."""
    level = 0
    path = []
    levels = [0]
    for i, s in w.letters:
        step = phi.values[i]
        if s > 0:
            path.append((i, level, 1))
            level += step
        else:
            level -= step
            path.append((i, level, -1))
        levels.append(level)
    return path, levels


def _window_edges(rank, phi, low, high):
    edges = []
    for g in range(rank):
        step = phi.values[g]
        for lvl in range(low, high + 1):
            if low <= lvl + step <= high:
                edges.append((g, lvl))
    return edges


def _fresh_stable_name(taken):
    if "t" not in taken:
        return "t"
    k = 1
    while f"t{k}" in taken:
        k += 1
    return f"t{k}"


def hnn_step(p: Presentation, phi: EpimorphismToZ | None = None) -> HNNStep:
    """One Magnus step: split a one-relator presentation over a Z-cover.

    The relator must be cyclically reduced, killed by ``phi`` and must use at
    least two generators.  Verifies on every call that back-substituting the
    recorded expansions into the rewritten relator recovers a cyclic
    conjugate of the input (or its inverse) and that the rewritten relator is
    strictly shorter.
    """
    if len(p.relators) != 1:
        raise InputError("the HNN step expects exactly one relator")
    w = p.relators[0]
    if len(w) < 2:
        raise InputError("relator too short for a splitting step")
    if not w.is_cyclically_reduced():
        raise InputError("relator must be cyclically reduced")
    if len(w.generators_used()) < 2:
        raise InputError("relator lies in a single generator's subgroup")
    if phi is None:
        phi = find_epimorphism(p)
    if len(phi.values) != p.rank:
        raise InputError("epimorphism size does not match the alphabet")
    if phi(w) != 0:
        raise InputError("phi does not kill the relator")

    if all(phi.values[i] == 0 for i in w.generators_used()):
        raise InputError(
            "phi vanishes on every letter of the relator; "
            "restrict the presentation to the letters it mentions first")

    root_word, power = is_proper_power(w)
    path, levels = _relator_path(root_word, phi)
    low, high = min(levels), max(levels)
    if low == high:
        raise InternalCheckError("lifted relator stays at one level")

    # BFS forest from level 0 that prefers the edges the lifted path traverses
    traversed = {(g, lvl) for g, lvl, _ in path}
    window_edges = sorted(_window_edges(p.rank, phi, low, high),
                          key=lambda e: (e not in traversed, e))
    window = _window_graph(window_edges, phi, low, high)
    tree_idx, parent = window.spanning_forest(roots=[0])
    apart = [v for v, link in parent.items() if link is None and v != 0]
    if apart:
        raise InternalCheckError(f"window levels {apart} are not reached from level 0")
    tree = {window_edges[i] for i in tree_idx}

    def letters_to(v):
        """Letters (gen, sign) of the forest path level 0 -> v in the source group."""
        return [(window_edges[i][0], direction) for i, direction in tree_path(parent, v)]

    nontree = sorted(e for e in window_edges if e not in tree)
    base_names = []
    name_of = {}
    for g, lvl in nontree:
        name = f"{p.names[g]}{lvl - low}"
        if name in name_of.values() or name in p.names:
            name = f"{p.names[g]}_{lvl - low}"
        name_of[(g, lvl)] = name
        base_names.append(name)
    base_index = {name: i for i, name in enumerate(base_names)}

    # expansions: base generator -> word in the source free group
    expansions = {}
    for edge in nontree:
        g, lvl = edge
        to_tail = letters_to(lvl)
        to_head = letters_to(lvl + phi.values[g])
        letters = to_tail + [(g, 1)] + [(i, -s) for i, s in reversed(to_head)]
        expansions[name_of[edge]] = Word(letters)

    def path_to_base_word(edge_path):
        letters = []
        for g, lvl, sign in edge_path:
            edge = (g, lvl)
            if edge in tree:
                continue
            letters.append((base_index[name_of[edge]], sign))
        return Word(letters)

    u_root = path_to_base_word(path)
    if len(u_root) >= len(root_word):
        raise InternalCheckError(
            "rewritten relator is not shorter; the spanning forest misses the path")

    # back-substitution: expansions plugged into u must give back the relator
    substituted = []
    for i, s in u_root.letters:
        piece = expansions[base_names[i]]
        substituted.extend(piece.letters if s > 0 else piece.inverse().letters)
    recovered = Word(substituted)
    rec_core, _ = cyclic_reduce(recovered)
    if not (is_cyclic_conjugate(rec_core, root_word)
            or is_cyclic_conjugate(rec_core, root_word.inverse())):
        raise InternalCheckError("back-substitution does not recover the relator")

    base = Presentation(base_names, [u_root ** power])

    # associated subgroups: fundamental loops of the two sub-windows written
    # over the base generators; translation by the deck letter matches the
    # k-th generator of J0 with the k-th generator of J1
    j0, j1 = _associated_words(window_edges, phi, low, high, path_to_base_word)

    return HNNStep(source=p, phi=phi, window=(low, high), base=base,
                   relator_word=u_root, stable_letter=_fresh_stable_name(set(p.names)),
                   expansions=expansions, assoc_j0=j0, assoc_j1=j1, power=power)


def _window_graph(edges, phi, low, high):
    """Levels low..high joined by the cover edges (gen, level), in list order."""
    return Graph(range(low, high + 1), [(lvl, lvl + phi.values[g]) for g, lvl in edges])


def _associated_words(window_edges, phi, low, high, path_to_base_word):
    """Fundamental-loop generators of the two sub-windows over the base.

    Loops are listed component by component in level order, and by
    (generator, level) of their non-forest edge within a component.
    """

    def loops(shift):
        lo, hi = low + shift, high - 1 + shift
        sub_edges = sorted((g, lvl) for g, lvl in window_edges
                           if lo <= lvl <= hi and lo <= lvl + phi.values[g] <= hi)
        sub_tree, sub_parent = _window_graph(sub_edges, phi, lo, hi).spanning_forest()
        component = {}  # level -> least level of its component
        for v, link in sub_parent.items():
            component[v] = v if link is None else component[link[2]]

        def path(v):
            return [(*sub_edges[i], d) for i, d in tree_path(sub_parent, v)]

        out = []
        for _, i in sorted((component[lvl], i) for i, (g, lvl) in enumerate(sub_edges)
                           if i not in sub_tree):
            g, lvl = sub_edges[i]
            back = [(h, at, -d) for h, at, d in reversed(path(lvl + phi.values[g]))]
            out.append(path_to_base_word(path(lvl) + [(g, lvl, 1)] + back))
        return out

    return loops(0), loops(1)


# -- iterated hierarchy ----------------------------------------------------------


@dataclass
class HierarchyNode:
    presentation: Presentation
    status: str                  # "internal" | "free" | "cyclic" | "stuck" | "truncated"
    depth: int
    free_rank: int | None = None
    cyclic_order: int | None = None
    edge_kind: str | None = None     # how this node was reached: "hnn" | "restrict"
    edge_data: object = None         # HNNStep, or dict for restrictions
    children: list = field(default_factory=list)
    note: str = ""

    def is_leaf(self):
        return self.status in ("free", "cyclic", "stuck", "truncated")

    def label(self):
        rels = " ; ".join(w.render(self.presentation.names)
                          for w in self.presentation.relators) or "-"
        head = f"<{', '.join(self.presentation.names) or '-'} | {rels}>"
        if self.status == "free":
            head += f"  [leaf: free of rank {self.free_rank}]"
        elif self.status == "cyclic":
            head += f"  [leaf: cyclic of order {self.cyclic_order}]"
        elif self.status in ("stuck", "truncated"):
            head += f"  [leaf: {self.status}] {self.note}"
        return head


@dataclass
class HierarchyTree:
    root: HierarchyNode

    def nodes(self):
        """Every node in preorder: a node, then its children's subtrees in order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self):
        return [node for node in self.nodes() if node.is_leaf()]

    def depth(self):
        return max(node.depth for node in self.nodes())

    def hnn_edges(self):
        return [(node, child) for node in self.nodes() for child in node.children
                if child.edge_kind == "hnn"]

    def render(self):
        lines = []
        for node in self.nodes():
            prefix = "  " * node.depth
            via = f"[{node.edge_kind}] " if node.edge_kind else ""
            lines.append(f"{prefix}{via}{node.label()}")
            if node.edge_kind == "hnn" and isinstance(node.edge_data, HNNStep):
                lines.append(node.edge_data.render(prefix + "    "))
        return "\n".join(lines)


def _split(node: HierarchyNode, max_depth):
    """Mark ``node`` as a leaf, or return its child's (presentation, edge kind, data)."""
    pres = node.presentation
    w = pres.relators[0]
    if not w:
        node.status = "free"
        node.free_rank = pres.rank
        return None
    once = [i for i in range(pres.rank) if w.occurrence_count(i) == 1]
    if once:
        node.status = "free"
        node.free_rank = pres.rank - 1
        node.note = f"generator {pres.names[once[0]]} occurs once; Tietze removal"
        return None

    used = w.generators_used()
    if len(used) < pres.rank:
        removed = [pres.names[i] for i in range(pres.rank) if i not in used]
        remap = {old: new for new, old in enumerate(used)}
        relator = Word([(remap[i], s) for i, s in w.letters])
        sub = Presentation([pres.names[i] for i in used], [relator])
        return sub, "restrict", {"removed": removed, "free_rank_split_off": len(removed)}

    root_word, power = is_proper_power(w)
    if len(root_word) == 1:
        node.status = "cyclic"
        node.cyclic_order = power
        return None

    if node.depth >= max_depth:
        node.status = "truncated"
        node.note = f"depth limit {max_depth} reached"
        return None

    try:
        phi = find_epimorphism(pres)
    except NoEpimorphism as exc:
        node.status = "stuck"
        node.note = str(exc)
        return None
    step = hnn_step(pres, phi)
    return step.base, "hnn", step


def build_hierarchy(p: Presentation, max_depth=None) -> HierarchyTree:
    """Iterate generator restriction and HNN steps until the leaves are tame.

    Leaves are free groups (empty relator, or a generator occurring exactly
    once, removable by a Tietze move) or finite cyclic groups (relator a
    proper power of a single letter).  Every internal node has one child.
    Relator length strictly decreases along HNN edges, so the tree has depth
    at most the relator length.
    """
    if len(p.relators) != 1:
        raise InputError("hierarchies are built from one-relator presentations")
    if max_depth is None:
        max_depth = len(p.relators[0]) + 2
    if max_depth < 1:
        raise InputError("max_depth must be at least 1")
    root = node = HierarchyNode(presentation=p, status="internal", depth=0)
    while (child := _split(node, max_depth)) is not None:
        pres, edge_kind, edge_data = child
        node.children.append(HierarchyNode(presentation=pres, status="internal",
                                           depth=node.depth + 1, edge_kind=edge_kind,
                                           edge_data=edge_data))
        node = node.children[0]
    return HierarchyTree(root=root)
