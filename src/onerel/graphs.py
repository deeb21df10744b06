"""Finite oriented graphs, fundamental cycle bases and embedded-cycle lifting.

Chains over a coefficient domain are sparse maps ``edge index -> coefficient``.
Cycle questions are read off BFS spanning forests: the fundamental cycles of
a forest, one per non-forest edge, are a basis of the cycle space.  The
lifting operation takes a cycle ``r`` meeting a designated edge set ``H``
and, when the cycle space splits as ``R*r + (cycles off H)``, produces an
embedded cycle through ``H`` and a unit ``u`` with ``r - u*[cycle]`` supported
off ``H``, re-verifying every part of the certificate.  The split is decided
by counting the designated edges that a forest of ``G - H`` cannot take in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .domains import ZZ
from .errors import InputError, InternalCheckError


class Graph:
    """Oriented multigraph; loops allowed.  Edges are (tail, head, label).

    Edge ``k`` given without a label is labelled ``e<k>``.  A graph with no
    labelled edge stores ``None`` for each label and writes ``e<k>`` only
    where a label is read: :meth:`label`, ``label_index`` and
    :meth:`to_edge_list`.  Once any edge has a label, every label is stored,
    so one that repeats another edge's, given or default, is refused.
    """

    def __init__(self, vertices, edges):
        self.vertices = sorted(set(vertices))
        self.edges = [(tail, head, rest[0] if rest else None)
                      for tail, head, *rest in edges]
        if any(label is not None for _, _, label in self.edges):
            self.edges = [(tail, head, self.label(k))
                          for k, (tail, head, _) in enumerate(self.edges)]
        known = set(self.vertices)
        labels = set()
        for k, (tail, head, label) in enumerate(self.edges):
            if label is not None:
                if label in labels:
                    raise InputError(f"duplicate edge label {label!r}")
                labels.add(label)
            if tail not in known or head not in known:
                raise InputError(f"edge {self.label(k)} touches an unknown vertex")

    def label(self, e):
        """Edge ``e``'s label: the one it was given, or ``e<e>``."""
        label = self.edges[e][2]
        return f"e{e}" if label is None else label

    @cached_property
    def label_index(self):
        return {self.label(e): e for e in range(len(self.edges))}

    @classmethod
    def from_edge_list(cls, text):
        """Parse lines ``tail head label`` (label optional); ``#`` comments."""
        vertices = []
        edges = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise InputError(f"cannot parse edge line {raw.strip()!r}")
            tail, head = parts[0], parts[1]
            label = parts[2] if len(parts) == 3 else None
            vertices += [tail, head]
            edges.append((tail, head, label) if label else (tail, head))
        return cls(vertices, edges)

    def to_edge_list(self):
        return "\n".join(f"{t} {h} {self.label(e)}"
                         for e, (t, h, _) in enumerate(self.edges))

    def n_edges(self):
        return len(self.edges)

    def boundary(self, chain, domain=ZZ):
        """Vertex chain of a 1-chain: head gets +coeff, tail gets -coeff."""
        out = {}
        for e, c in chain.items():
            tail, head, _ = self.edges[e]
            out[head] = out.get(head, 0) + c
            out[tail] = out.get(tail, 0) - c
        coerce = domain.coerce
        return {v: x for v, c in out.items() if (x := coerce(c))}

    def spanning_forest(self, edge_subset=None, roots=None):
        """Deterministic BFS forest: returns (tree edge set, parent map).

        ``parent[v] = (edge index, direction, previous vertex)``; components
        are rooted at their least vertex (or at the given roots first).
        """
        allowed = range(len(self.edges)) if edge_subset is None else sorted(set(edge_subset))
        adjacency = {v: [] for v in self.vertices}
        for i in allowed:
            tail, head, _ = self.edges[i]
            adjacency[tail].append((i, 1, head))
            adjacency[head].append((i, -1, tail))
        parent = {}
        tree = set()
        order = list(roots or []) + self.vertices
        for root in order:
            if root in parent:
                continue
            parent[root] = None
            queue = deque([root])
            while queue:
                v = queue.popleft()
                for i, direction, other in adjacency[v]:
                    if other not in parent:
                        parent[other] = (i, direction, v)
                        tree.add(i)
                        queue.append(other)
        return tree, parent


def tree_path(parent, v):
    """Edges (index, direction) along the forest path root -> v."""
    path = []
    while parent[v] is not None:
        i, direction, prev = parent[v]
        path.append((i, direction))
        v = prev
    return list(reversed(path))


@dataclass
class GraphWithCycleSpace:
    graph: Graph
    domain: object
    forest: set
    basis: list            # chains (dict edge -> coeff)
    basis_walks: list      # ordered closed walks [(edge, sign), ...]

    def rank(self):
        return len(self.basis)


def cycle_space(graph: Graph, domain=ZZ) -> GraphWithCycleSpace:
    """Fundamental cycles of the BFS spanning forest, one per non-tree edge."""
    tree, parent = graph.spanning_forest()
    basis, walks = _fundamental_cycles(graph, range(graph.n_edges()), tree, parent, domain)
    return GraphWithCycleSpace(graph=graph, domain=domain, forest=tree,
                               basis=basis, basis_walks=walks)


def _fundamental_cycles(graph, edges, tree, parent, domain):
    """Chains and walks of the fundamental cycles of a forest of ``edges``.

    One per edge of ``edges`` outside ``tree``, in index order: the edge,
    closed up by the reduced forest path from its head back to its tail.
    """
    basis = []
    walks = []
    for i in sorted(set(edges) - tree):
        tail, head, _ = graph.edges[i]
        walk = [(i, 1)] + _tree_route(parent, head, tail)
        basis.append(_walk_chain(walk, domain))
        walks.append(walk)
    return basis, walks


def _walk_chain(walk, domain):
    """The 1-chain of a walk of ``(edge, direction)`` steps, zeros dropped."""
    chain = {}
    for j, d in walk:
        chain[j] = chain.get(j, 0) + d
    coerce = domain.coerce
    return {j: x for j, c in chain.items() if (x := coerce(c))}


def _tree_route(parent, start, goal):
    """Reduced forest path start -> goal as (edge, direction) pairs."""
    up_start = tree_path(parent, start)   # root -> start
    up_goal = tree_path(parent, goal)     # root -> goal
    k = 0
    while k < len(up_start) and k < len(up_goal) and up_start[k] == up_goal[k]:
        k += 1
    down = [(i, -d) for i, d in reversed(up_start[k:])]  # start -> meeting point
    return down + up_goal[k:]


@dataclass
class NotApplicable:
    reason: str


@dataclass
class CycleLift:
    cycle_walk: list         # [(edge index, sign), ...] an embedded closed walk
    cycle_chain: dict        # edge -> coeff
    unit: object
    k_coefficients: list     # coordinates of r - u*cycle in the off-H basis
    k_basis: list            # the off-H fundamental-cycle basis used
    verified: bool = False


def _edge_index(graph, e):
    """The index of an edge given by its label or its index."""
    if not isinstance(e, str):
        return int(e)
    if e not in graph.label_index:
        raise InputError(f"unknown edge label {e!r}")
    return graph.label_index[e]


def lift_cycle(graph: Graph, h_edges, r, domain=ZZ):
    """Split a cycle as unit * (embedded cycle through H) + (cycles off H).

    ``h_edges`` may be labels or indices; ``r`` maps edges to coefficients.
    Failures return :class:`NotApplicable` naming the violated condition.

    The hypothesis is that the cycle space Z1(G) is ``R*r + Z1(G - H)``, and
    a forest count decides it.  Let F0 be the BFS forest of G - H, and F its
    extension by the H edges that join F0's components, in index order.  For
    each H edge h left out of F, let c_h be its fundamental cycle in F: 1 on
    h, 0 on the other left-out edges.  For a cycle z, z' = z - sum z[h]*c_h
    over the left-out h is a cycle that vanishes on them, so its H entries
    lie on F's H edges.  Contracting each component of G - H to a point maps
    z' to a cycle supported on the image of those edges, which is a forest,
    so that cycle is 0 and z' lies off H.  Hence Z1(G) is the direct sum of
    Z1(G - H) and the R*c_h, and the quotient Z1(G) / Z1(G - H) is free on
    the left-out edges, with r mapping to its entries there.  So ``r`` and
    Z1(G - H) span Z1(G) exactly when one H edge h1 is left out and r[h1] is
    a unit.  The off-H basis of the certificate is F0's fundamental cycles.

    The lift is then h1's fundamental cycle c in the same construction on
    the support S of ``r``: a BFS forest of S - H, extended by S's H edges
    in index order.  A cycle meets no vertex in exactly one non-loop edge,
    so S has no leaf to prune.  S's components refine G's at each greedy
    step, so S's extension leaves out only edges that F leaves out, that
    is only h1; and it leaves out at least one, or the argument above, run
    on S, would put ``r`` off H.  A fundamental cycle is embedded and is 1
    on its own edge, so the unit is r[h1] and ``r - r[h1]*c``, a cycle of S
    that vanishes on the one left-out edge, lies off H.
    """
    h = {_edge_index(graph, e) for e in h_edges}
    if not h.issubset(range(graph.n_edges())):
        raise InputError("designated edges outside the graph")
    r = {_edge_index(graph, e): domain.coerce(c)
         for e, c in (r.items() if isinstance(r, dict) else r)}
    r = {e: c for e, c in r.items() if c}
    if not r:
        return NotApplicable("the chain is zero")
    if graph.boundary(r, domain):
        return NotApplicable("the chain is not a cycle (nonzero boundary)")
    if not any(e in h for e in r):
        return NotApplicable("the cycle has no support on the designated edges")

    off_h = [e for e in range(graph.n_edges()) if e not in h]
    forest0, parent0 = graph.spanning_forest(edge_subset=off_h)
    left_out = sorted(h - _extend_forest(graph, forest0, h))
    if len(left_out) != 1 or not domain.is_unit(r.get(left_out[0], domain.zero)):
        return NotApplicable(
            "the cycle space is not spanned by the cycle plus off-H cycles")

    h1 = left_out[0]
    support = set(r)
    support_forest0, _ = graph.spanning_forest(edge_subset=support - h)
    forest, parent = graph.spanning_forest(
        edge_subset=_extend_forest(graph, support_forest0, support & h))
    if (support & h) - forest != {h1}:
        raise InternalCheckError(f"the support's forest leaves out designated edges "
                                 f"other than {graph.label(h1)}")
    tail, head, _ = graph.edges[h1]
    walk = [(h1, 1)] + _tree_route(parent, head, tail)
    chain = _walk_chain(walk, domain)
    unit = r[h1]
    # r - unit*c is a cycle off H, so its off-H coordinates are its entries
    # on the off-H basis' own edges: each fundamental cycle is 1 on its own
    # edge (the first of its walk) and 0 on the others'
    off_basis, off_walks = _fundamental_cycles(graph, off_h, forest0, parent0, domain)
    coeffs = [domain.coerce(r.get(e, 0) - unit * chain.get(e, 0))
              for (e, _), *_ in off_walks]
    lift = CycleLift(cycle_walk=walk, cycle_chain=chain, unit=unit,
                     k_coefficients=coeffs, k_basis=off_basis)
    _verify_lift(graph, h, r, lift, domain)
    lift.verified = True
    return lift


def _verify_lift(graph, h, r, lift, domain):
    """Re-check every part of a lift, raising :class:`InternalCheckError`.

    The walk is an embedded closed walk whose chain is ``cycle_chain`` and
    meets ``h``; the unit is a unit; the basis chains are cycles off ``h``;
    and ``r = sum k_i*b_i + u*cycle``.
    """
    # each step as (start, end): the edge's (tail, head), reversed when s = -1
    steps = [graph.edges[e][:2][::s] for e, s in lift.cycle_walk]
    if (any(a[1] != b[0] for a, b in zip(steps, steps[1:] + steps[:1]))
            or len({a for a, _ in steps}) < len(steps)):
        raise InternalCheckError("lift verification failed: "
                                 "cycle not an embedded closed walk")
    if (_walk_chain(lift.cycle_walk, domain) != lift.cycle_chain
            or not h & lift.cycle_chain.keys()):
        raise InternalCheckError("lift verification failed: the cycle's chain is not "
                                 "its walk's, or misses H")
    if not domain.is_unit(lift.unit):
        raise InternalCheckError("lift verification failed: coefficient is not a unit")
    if any(h & b.keys() or graph.boundary(b, domain) for b in lift.k_basis):
        raise InternalCheckError("lift verification failed: a basis chain is not a cycle off H")
    recon = {}
    for coeff, chain in [*zip(lift.k_coefficients, lift.k_basis),
                         (lift.unit, lift.cycle_chain)]:
        for j, c in chain.items():
            recon[j] = recon.get(j, 0) + coeff * c
    coerce = domain.coerce
    if {j: x for j, c in recon.items() if (x := coerce(c))} != r:
        raise InternalCheckError("lift verification failed: certificate does not recombine")


def _extend_forest(graph, forest0, joining):
    """The edges of ``forest0`` and of the ``joining`` edges that join its components.

    The ``joining`` edges are taken greedily in index order, each one that
    joins two distinct components of the forest so far, so no cycle arises.
    Callers that need a parent map run :meth:`Graph.spanning_forest` on the
    result.
    """
    comp = {v: v for v in graph.vertices}

    def find(v):
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    for i in sorted(forest0):
        tail, head, _ = graph.edges[i]
        comp[find(tail)] = find(head)
    final = set(forest0)
    for i in sorted(joining):
        tail, head, _ = graph.edges[i]
        if find(tail) != find(head):
            comp[find(tail)] = find(head)
            final.add(i)
    return final
