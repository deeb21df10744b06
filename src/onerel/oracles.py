"""Group oracles: a uniform element interface for group-ring arithmetic.

An oracle supplies identity/multiply/invert on elements that are canonical
hashable values: residues mod n, ``Z^k`` tuples, permutation image tuples and
freely reduced words.  Equal group elements are equal values, so an element
is its own key in a group-ring element's term map.  Finite oracles can
enumerate all elements (deterministically, identity first) up to
``MAX_QUOTIENT_ORDER`` of them, and refuse a larger group with
:class:`~onerel.errors.UnsupportedError`; their ``cayley_column`` gives
right multiplication by a generator as a map of element indices,
:meth:`PermOracle.cayley_tree` the edge by which each element was first
reached, and ``right_index_map`` and ``left_index_map`` multiplication by
any element as a map of element indices, built from the table alone.
Ordered oracles expose ``compare``, a right-invariant total order.
"""

from __future__ import annotations

import functools
import re
from itertools import compress
from operator import add, ne, neg

from .errors import InputError, UnsupportedError
from .magnus import magnus_compare
from .words import Word

# The largest finite group enumerated, the order-5040 top of the benchmark
# ladder; a larger one is refused after at most this many elements plus one.
MAX_QUOTIENT_ORDER = 5040

ORDER_REFUSAL = f"the group has more than {MAX_QUOTIENT_ORDER} elements, the supported maximum"


class GroupOracle:
    name = "?"
    compare = None  # ordered oracles override: compare(a, b) -> -1/0/1

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def is_finite(self):
        return False

    def elements(self):
        raise UnsupportedError(f"{self.name} cannot enumerate its elements")

    def right_index_map(self, k):
        """Right multiplication by element ``k`` of a finite oracle, on indices.

        Entry ``i`` is the index of ``elements[i] * elements[k]``.
        """
        raise NotImplementedError

    def left_index_map(self, k):
        """Entry ``i`` is the index of ``elements[k] * elements[i]``."""
        raise NotImplementedError

    def render(self, a):
        return str(a)

    def term_order(self, a):
        """Sort key placing an element's term when a group-ring element is rendered."""
        return repr(a)


class ModOracle(GroupOracle):
    """The cyclic group Z/n, elements 0..n-1 under addition.

    Elements are the residues themselves, so an integer from outside the
    program is reduced mod n before it becomes an element.
    """

    def __init__(self, n):
        if n < 1:
            raise InputError("modulus must be positive")
        self.n = n
        self.name = f"Z/{n}"

    def identity(self):
        return 0

    def multiply(self, a, b):
        return (a + b) % self.n

    def invert(self, a):
        return (-a) % self.n

    def is_finite(self):
        return True

    def elements(self):
        if self.n > MAX_QUOTIENT_ORDER:
            raise UnsupportedError(ORDER_REFUSAL)
        return list(range(self.n))

    def right_index_map(self, k):
        """``[idx(g * k) for g in self.elements()]``, in closed form."""
        return [(g + k) % self.n for g in self.elements()]

    # Z/n is abelian, and each element is its own index
    left_index_map = cayley_column = right_index_map

    def render(self, a):
        return "1" if a == 0 else "g" if a == 1 else f"g^{a}"


class ZPowOracle(GroupOracle):
    """Free abelian group Z^k with lexicographic (bi-invariant) order."""

    def __init__(self, rank, var_names=None):
        self.rank = rank
        self.name = f"Z^{rank}"
        if var_names is not None and len(var_names) != rank:
            raise InputError("need one variable name per coordinate")
        self.var_names = list(var_names) if var_names else [f"x{i}" for i in range(rank)]

    def identity(self):
        return (0,) * self.rank

    def multiply(self, a, b):
        return tuple(map(add, a, b))

    def invert(self, a):
        return tuple(map(neg, a))

    def is_finite(self):
        return self.rank == 0

    def elements(self):
        if self.rank == 0:
            return [()]
        raise UnsupportedError("Z^k is infinite")

    def right_index_map(self, k):
        """The one index map ``[0]`` of the trivial group Z^0."""
        return [0] * len(self.elements())

    left_index_map = right_index_map

    def compare(self, a, b):
        return (a > b) - (a < b)

    def render(self, a):
        parts = [
            self.var_names[i] if e == 1 else f"{self.var_names[i]}^{e}"
            for i, e in enumerate(a) if e
        ]
        return "*".join(parts) if parts else "1"


TRIVIAL_ORACLE = ModOracle(1)


def parse_permutation(text, degree=None):
    """Parse disjoint-cycle notation with 1-based points into a 0-based tuple.

    ``"(1 2)(3 4)"``; commas or spaces separate points; ``()``, ``e`` and
    ``id`` denote the identity.  ``degree`` fixes the number of points;
    otherwise the largest point seen is used.
    """
    text = text.strip()
    if text in ("()", "e", "id", ""):
        pts = degree or 1
        return tuple(range(pts))
    cycles = re.findall(r"\(([^()]*)\)", text)
    if not cycles or re.sub(r"\([^()]*\)|\s", "", text):
        raise InputError(f"cannot parse permutation {text!r}")
    parsed = []
    seen = set()
    for cyc in cycles:
        pts = []
        for t in re.findall(r"[^,\s]+", cyc):
            try:
                pt = int(t)
            except ValueError:
                raise InputError(f"permutation point {t!r} is not an integer") from None
            if pt < 1:
                raise InputError("permutation points are 1-based positive integers")
            if pt in seen:
                raise InputError(f"point {pt} appears twice; cycles must be disjoint")
            seen.add(pt)
            pts.append(pt)
        parsed.append(pts)
    maxpt = max(seen, default=0)
    n = degree if degree is not None else maxpt
    if maxpt > n:
        raise InputError(f"point {maxpt} exceeds degree {n}")
    img = list(range(n))
    for pts in parsed:
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a - 1] = b - 1
    return tuple(img)


@functools.lru_cache(maxsize=8)
def _point_labels(degree):
    """The 1-based labels ``"1"`` to ``str(degree)`` of a degree's points."""
    return tuple(map(str, range(1, degree + 1)))


def permutation_cycles(perm):
    """Render a 0-based image tuple in 1-based disjoint-cycle notation."""
    points = range(len(perm))
    labels = _point_labels(len(perm))
    seen = bytearray(len(perm))
    cycles = []
    for start in compress(points, map(ne, perm, points)):   # the moved points
        if seen[start]:
            continue
        cyc = [labels[start]]
        nxt = perm[start]
        while nxt != start:
            seen[nxt] = 1
            cyc.append(labels[nxt])
            nxt = perm[nxt]
        cycles.append(" ".join(cyc))
    return "(" + ")(".join(cycles) + ")" if cycles else "()"


class PermOracle(GroupOracle):
    """Finite permutation group generated by given images.

    Permutations act on the right: ``(p*q)(x) = q(p(x))``, so evaluating a
    word multiplies images left to right.
    """

    def __init__(self, degree, generators=()):
        if degree < 1:
            raise InputError("degree must be positive")
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        for g in self.generators:
            if sorted(g) != list(range(degree)):
                raise InputError(f"{g} is not a permutation of {degree} points")
        self.name = f"Perm{degree}"
        self._elements = None
        self._columns = None     # generator image -> its Cayley-table column
        self._tree = None        # element index -> (generator image, parent index)
        self._inverses = None    # element index -> the index of its inverse

    def identity(self):
        return tuple(range(self.degree))

    def multiply(self, a, b):
        return tuple(map(b.__getitem__, a))

    def invert(self, a):
        out = [0] * self.degree
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    def is_finite(self):
        return True

    def elements(self):
        """Breadth-first from the identity, generators in sorted order.

        The search also records the Cayley table: for each generator image
        ``h``, the column ``[idx(g * h) for g in elements]``, which
        :meth:`cayley_column` returns; and the BFS tree, each element's
        first-reach edge, which :meth:`cayley_tree` returns.  On at most 256
        points it runs on ``bytes``: ``g.translate(table_h)`` is ``g * h``.
        """
        if self._elements is None:
            d = self.degree
            gens = sorted(set(self.generators))
            if d <= 256:
                start, step = bytes(range(d)), bytes.translate
                tables = [bytes(h) + bytes(range(d, 256)) for h in gens]
            else:
                start, step, tables = self.identity(), self.multiply, gens
            index = {start: 0}
            order = [start]
            tree = [None]
            moves = [(h, table, []) for h, table in zip(gens, tables)]
            for i, g in enumerate(order):   # the list grows behind the loop: a FIFO queue
                for h, table, column in moves:
                    nxt = step(g, table)
                    k = index.get(nxt)
                    if k is None:
                        if len(order) == MAX_QUOTIENT_ORDER:
                            raise UnsupportedError(ORDER_REFUSAL)
                        k = index[nxt] = len(order)
                        order.append(nxt)
                        tree.append((h, i))
                    column.append(k)
            self._elements = list(map(tuple, order))
            self._columns = {h: column for h, _, column in moves}
            self._tree = tree
        return list(self._elements)

    def cayley_column(self, h):
        """The recorded column ``[idx(g * h) for g in elements]`` of a generator ``h``."""
        if self._columns is None:
            self.elements()
        return list(self._columns[tuple(h)])

    def cayley_tree(self):
        """The BFS tree of :meth:`elements`: entry ``k`` is ``(h, parent)``.

        Element ``k > 0`` was first reached as ``elements[parent] * h`` for the
        generator image ``h``, so ``parent < k``; entry 0, the identity, is
        ``None``.
        """
        if self._tree is None:
            self.elements()
        return list(self._tree)

    def right_index_map(self, k):
        """``[idx(g * elements[k]) for g in elements]``, from the table alone.

        ``g * x`` is the inverse of ``x^-1 * g^-1``, so the map is the left
        map of ``k``'s inverse taken between two inversions: two passes over
        the elements, however deep ``k`` lies in the BFS tree.
        """
        inverse = self._inverse_indices()
        left = self.left_index_map(inverse[k])
        return list(map(inverse.__getitem__, map(left.__getitem__, inverse)))

    def left_index_map(self, k):
        """``[idx(elements[k] * g) for g in elements]``, in one pass over the BFS tree.

        Element ``c`` is ``elements[parent] * h``, so the index of
        ``elements[k] * elements[c]`` is the column of ``h`` at the index of
        ``elements[k] * elements[parent]``, found earlier since ``parent < c``.
        """
        if self._tree is None:
            self.elements()
        out = [k]
        for h, parent in self._tree[1:]:
            out.append(self._columns[h][out[parent]])
        return out

    def _inverse_indices(self):
        """``[idx(g^-1) for g in elements]``, computed once from the table.

        Element ``c`` is ``elements[parent] * h``, so its inverse is ``h^-1``
        times the inverse of ``elements[parent]``: the left map of ``h^-1``,
        the element that the column of ``h`` sends to the identity, at the
        parent's entry.
        """
        if self._tree is None:
            self.elements()
        if self._inverses is None:
            lefts = {h: self.left_index_map(column.index(0))
                     for h, column in self._columns.items()}
            inverse = [0]
            for h, parent in self._tree[1:]:
                inverse.append(lefts[h][inverse[parent]])
            self._inverses = inverse
        return self._inverses

    def is_transitive(self):
        reached = {0}
        frontier = [0]
        while frontier:
            p = frontier.pop()
            for g in self.generators:
                if g[p] not in reached:
                    reached.add(g[p])
                    frontier.append(g[p])
        return len(reached) == self.degree

    def render(self, a):
        return permutation_cycles(a)

    @functools.cached_property
    def _label_ranks(self):
        """Point -> its place among the points' decimal labels in string order."""
        ranks = [0] * self.degree
        for r, point in enumerate(sorted(range(self.degree), key=str)):
            ranks[point] = r
        return ranks

    def term_order(self, a):
        """``repr(a)``'s order, without the string.

        Two images of one degree first differ at some point's label; there the
        shorter of two labels, one a prefix of the other, sorts first in both
        orders, since ``","`` and ``")"`` precede every digit.  So ``repr``
        compares the images as tuples of labels, which the labels' ranks do in
        ints.
        """
        return tuple(map(self._label_ranks.__getitem__, a))


class FreeOracle(GroupOracle):
    """Free group on named generators, ordered through the series expansion."""

    def __init__(self, names):
        self.names = list(names)
        self.name = f"F({','.join(self.names)})"

    def identity(self):
        return Word()

    def multiply(self, a, b):
        return a * b

    def invert(self, a):
        return a.inverse()

    def compare(self, a, b):
        return magnus_compare(a, b)

    def render(self, a):
        return a.render(self.names)

    def term_order(self, a):
        return (len(a), a.letters)  # shorter words first, then by letters
