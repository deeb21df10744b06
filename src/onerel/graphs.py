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
from .errors import InputError


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


def _walk_is_embedded(graph, walk):
    """No vertex visited twice along the closed walk (start counted once)."""
    visited = []
    for e, sign in walk:
        tail, head, _ = graph.edges[e]
        visited.append(tail if sign > 0 else head)
    return len(visited) == len(set(visited))


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

    # minimal support subgraph, pruned of degree <= 1 vertices
    support = sorted(r)
    gamma_edges = set(support)
    changed = True
    while changed:
        changed = False
        degree = {}
        for e in gamma_edges:
            tail, head, _ = graph.edges[e]
            degree[tail] = degree.get(tail, 0) + 1
            degree[head] = degree.get(head, 0) + 1
        drop = {e for e in gamma_edges
                if degree[graph.edges[e][0]] <= 1 or degree[graph.edges[e][1]] <= 1}
        drop = {e for e in drop if graph.edges[e][0] != graph.edges[e][1]}
        if drop:
            gamma_edges -= drop
            changed = True
    if not gamma_edges.intersection(h):
        return NotApplicable("pruned support subgraph misses the designated edges")

    # forest of gamma minus H, extended across its components by H edges
    gamma_forest0, _ = graph.spanning_forest(edge_subset=gamma_edges - h)
    forest, parent = graph.spanning_forest(
        edge_subset=_extend_forest(graph, gamma_forest0, gamma_edges & h))

    candidates = sorted(e for e in gamma_edges.intersection(h) if e not in forest)
    if not candidates:
        return NotApplicable("every designated edge is a forest edge; no cycle to lift")

    off_basis, off_walks = _fundamental_cycles(graph, off_h, forest0, parent0, domain)
    last_reason = "no unit solution"
    for e_star in candidates:
        tail, head, _ = graph.edges[e_star]
        walk = [(e_star, 1)] + _tree_route(parent, head, tail)
        chain = _walk_chain(walk, domain)
        if not _walk_is_embedded(graph, walk):
            last_reason = "candidate fundamental cycle is not embedded"
            continue
        lam_h = chain.get(e_star, domain.zero)
        r_h = r.get(e_star, domain.zero)
        # solve r - u*lambda == 0 on all designated edges
        unit = _solve_unit(domain, r_h, lam_h)
        if unit is None:
            last_reason = "no unit makes the designated-edge projections match"
            continue
        residual = dict(r)
        for j, c in chain.items():
            nc = domain.coerce(residual.get(j, 0) - unit * c)
            if nc:
                residual[j] = nc
            else:
                residual.pop(j, None)
        if any(j in h for j in residual):
            last_reason = "residual still meets the designated edges"
            continue
        # the residual is a cycle off H, so its off-H coordinates are its
        # entries on the off-H basis' own edges: each fundamental cycle is 1
        # on its own edge (the first of its walk) and 0 on the others'
        coeffs = [residual.get(walk[0][0], domain.zero) for walk in off_walks]
        lift = CycleLift(cycle_walk=walk, cycle_chain=chain, unit=unit,
                         k_coefficients=coeffs, k_basis=off_basis)
        _verify_lift(graph, r, lift, domain)
        lift.verified = True
        return lift
    return NotApplicable(last_reason)


def _solve_unit(domain, r_h, lam_h):
    if not lam_h:
        return None
    if domain.is_field:
        return domain.coerce(r_h * domain.inv(lam_h))
    # integers: lam divides r and the quotient is a unit
    if r_h % lam_h:
        return None
    q = r_h // lam_h
    return q if domain.is_unit(q) else None


def _verify_lift(graph, r, lift, domain):
    """Re-check a lift: embedded, a unit, and ``r = sum k_i*b_i + u*cycle``."""
    if not _walk_is_embedded(graph, lift.cycle_walk):
        raise InputError("lift verification failed: cycle not embedded")
    if not domain.is_unit(lift.unit):
        raise InputError("lift verification failed: coefficient is not a unit")
    recon = {}
    for coeff, chain in [*zip(lift.k_coefficients, lift.k_basis),
                         (lift.unit, lift.cycle_chain)]:
        for j, c in chain.items():
            recon[j] = recon.get(j, 0) + coeff * c
    coerce = domain.coerce
    if {j: x for j, c in recon.items() if (x := coerce(c))} != r:
        raise InputError("lift verification failed: certificate does not recombine")


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
