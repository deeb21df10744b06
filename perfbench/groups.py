"""Small permutation-group toolkit used to draw seeded finite quotients.

Permutations are 0-based image tuples composed on the right, as onerel does:
``mul(p, q)`` maps ``x`` to ``q[p[x]]``, so a word's image is the product of
its letters' images taken left to right.  Everything here is independent of
onerel, so the output checks built on it are independent too.
"""

from __future__ import annotations

from collections import deque


def mul(p, q):
    return tuple(q[i] for i in p)


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def identity(degree):
    return tuple(range(degree))


def order(p):
    e = identity(len(p))
    k, x = 1, p
    while x != e:
        x = mul(x, p)
        k += 1
    return k


def closure(gens):
    """All elements of the group generated by ``gens``, in BFS order."""
    e = identity(len(gens[0]))
    seen = {e}
    out = [e]
    queue = deque([e])
    while queue:
        g = queue.popleft()
        for h in gens:
            nxt = mul(g, h)
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
                queue.append(nxt)
    return out


def from_cycles(degree, *cycles):
    """Permutation of ``degree`` points from 1-based cycles."""
    img = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a - 1] = b - 1
    return tuple(img)


def cycle_text(p):
    """1-based disjoint-cycle notation, the grammar onerel parses."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            continue
        cyc, x = [], start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = p[x]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def _cyclic(n):
    return [from_cycles(n, list(range(1, n + 1)))]


def _dihedral(n):
    rot = from_cycles(n, list(range(1, n + 1)))
    refl = tuple((-i) % n for i in range(n))
    return [rot, refl]


# name -> standard generators of a transitive permutation group
GROUPS = {
    "C12": _cyclic(12),
    "D6": _dihedral(6),
    "A4": [from_cycles(4, [1, 2, 3]), from_cycles(4, [1, 2], [3, 4])],
    "S4": [from_cycles(4, [1, 2]), from_cycles(4, [1, 2, 3, 4])],
    "D12": _dihedral(12),
    "C24": _cyclic(24),
    "A5": [from_cycles(5, [1, 2, 3]), from_cycles(5, [1, 2, 3, 4, 5])],
    "D30": _dihedral(30),
    "C60": _cyclic(60),
    "D60": _dihedral(60),
}


def generating_pair(rng, name, orders):
    """Seeded pair ``(x, y)`` of elements of the given orders generating the group."""
    elements = sorted(closure(GROUPS[name]))
    xs = [g for g in elements if order(g) == orders[0]]
    ys = [g for g in elements if order(g) == orders[1]]
    while True:
        x, y = rng.choice(xs), rng.choice(ys)
        if len(closure([x, y])) == len(elements):
            return x, y, len(elements)
