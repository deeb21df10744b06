import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, Matrix, QQ as SYMPY_QQ, ZZ as SYMPY_ZZ
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

import onerel
from onerel.domains import QQ, ZZ, PrimeFieldDomain
from onerel.errors import InputError
from onerel.graphs import (CycleLift, Graph, NotApplicable, cycle_space,
                           lift_cycle)
from onerel.intlinalg import spans_saturated


def square():
    return Graph(["1", "2", "3", "4"],
                 [("1", "2", "e1"), ("2", "3", "e2"),
                  ("3", "4", "e3"), ("4", "1", "e4")])


def theta():
    return Graph(["u", "v"], [("u", "v", "e1"), ("u", "v", "e2"), ("u", "v", "e3")])


def unlabelled_theta():
    return Graph(["u", "v"], [("u", "v"), ("u", "v"), ("u", "v")])


def random_connected_graph(rng, max_vertices=12):
    n = rng.randrange(3, max_vertices + 1)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((vertices[j], vertices[i], f"t{i}"))
    extra = rng.randrange(1, 5)
    for k in range(extra):
        a, b = rng.choice(vertices), rng.choice(vertices)
        edges.append((a, b, f"x{k}"))
    return Graph(vertices, edges)


class TestGraphBasics:
    def test_edge_list_round_trip(self):
        g = square()
        text = g.to_edge_list()
        g2 = Graph.from_edge_list(text)
        assert g2.edges == g.edges

    def test_duplicate_labels_rejected(self):
        with pytest.raises(Exception):
            Graph(["a", "b"], [("a", "b", "e"), ("b", "a", "e")])

    def test_boundary(self):
        g = square()
        chain = {0: 1, 1: 1, 2: 1, 3: 1}
        assert g.boundary(chain) == {}
        assert g.boundary({0: 1}) == {"2": 1, "1": -1}


class TestUnlabelledEdges:
    """Edge ``k`` given without a label answers to ``e<k>`` where labels are read."""

    def test_labels_are_read_as_defaults(self):
        g = unlabelled_theta()
        assert [g.label(e) for e in range(3)] == ["e0", "e1", "e2"]
        assert g.label_index == {"e0": 0, "e1": 1, "e2": 2}
        assert g.to_edge_list() == "u v e0\nu v e1\nu v e2"

    def test_edge_list_round_trip(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        text = g.to_edge_list()
        g2 = Graph.from_edge_list(text)
        assert g2.to_edge_list() == text
        assert g2.label_index == g.label_index
        assert [edge[:2] for edge in g2.edges] == [edge[:2] for edge in g.edges]
        assert Graph.from_edge_list("a b\nb c\nc a").to_edge_list() == text

    def test_given_label_repeating_a_default_is_refused(self):
        with pytest.raises(InputError, match="^duplicate edge label 'e1'$"):
            Graph(["a", "b", "c"], [("a", "b", "e1"), ("b", "c")])

    def test_mixed_labels_are_all_stored(self):
        g = Graph(["a", "b"], [("a", "b"), ("b", "a", "back")])
        assert g.edges == [("a", "b", "e0"), ("b", "a", "back")]

    def test_unknown_vertex_names_the_default_label(self):
        with pytest.raises(InputError, match="^edge e1 touches an unknown vertex$"):
            Graph(["a", "b"], [("a", "b"), ("b", "c")])

    def test_lift_by_default_labels(self):
        labelled = Graph(["u", "v"], [("u", "v", f"e{k}") for k in range(3)])
        for g in (unlabelled_theta(), labelled):
            lift = lift_cycle(g, ["e0"], {"e0": 1, "e1": -1})
            assert lift.verified and lift.unit == 1
            assert [(g.label(e), s) for e, s in lift.cycle_walk] == [("e0", 1), ("e1", -1)]

    def test_lift_refuses_an_unknown_label(self):
        with pytest.raises(InputError, match="^unknown edge label 'e3'$"):
            lift_cycle(unlabelled_theta(), ["e3"], {"e0": 1, "e1": -1})


class TestCycleSpace:
    def test_square(self):
        cs = cycle_space(square())
        assert cs.rank() == 1

    def test_theta(self):
        assert cycle_space(theta()).rank() == 2

    def test_forest(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert cycle_space(g).rank() == 0

    def test_loop(self):
        g = Graph(["a"], [("a", "a", "loop")])
        cs = cycle_space(g)
        assert cs.rank() == 1

    def test_rank_formula(self, rng):
        for _ in range(50):
            g = random_connected_graph(rng, 8)
            components = _component_count(g)
            assert cycle_space(g).rank() == g.n_edges() - len(g.vertices) + components

    def test_basis_vectors_are_cycles(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, 8)
            cs = cycle_space(g)
            for chain in cs.basis:
                assert g.boundary(chain) == {}


def _component_count(g):
    _, parent = g.spanning_forest()
    roots = sum(1 for v in g.vertices if parent[v] is None)
    return roots


class TestLiftCycle:
    def test_square_instance(self):
        lift = lift_cycle(square(), ["e1"], {"e1": 1, "e2": 1, "e3": 1, "e4": 1})
        assert isinstance(lift, CycleLift)
        assert lift.unit == 1
        assert lift.k_coefficients == []
        assert len(lift.cycle_walk) == 4
        assert lift.verified

    def test_theta_instance(self):
        lift = lift_cycle(theta(), ["e1"], {"e1": 1, "e2": -1})
        assert isinstance(lift, CycleLift)
        assert lift.unit == 1
        walk_labels = [(theta().edges[e][2], s) for e, s in lift.cycle_walk]
        assert walk_labels == [("e1", 1), ("e2", -1)]
        # remainder zero: coefficients on the off-H basis all vanish
        assert all(c == 0 for c in lift.k_coefficients)

    def test_theta_hypothesis_failure(self):
        result = lift_cycle(theta(), ["e2", "e3"], {"e1": 1, "e2": -1})
        assert isinstance(result, NotApplicable)

    def test_not_a_cycle(self):
        result = lift_cycle(square(), ["e1"], {"e1": 1})
        assert isinstance(result, NotApplicable)
        assert "boundary" in result.reason

    def test_no_support_on_designated_edges(self):
        g = theta()
        result = lift_cycle(g, ["e3"], {"e1": 1, "e2": -1})
        assert isinstance(result, NotApplicable)
        assert "no support" in result.reason

    def test_non_unit_multiple_over_z(self):
        # r = 2 * (fundamental cycle): over Z the only solutions need u = 2
        g = theta()
        result = lift_cycle(g, ["e1"], {"e1": 2, "e2": -2})
        assert isinstance(result, NotApplicable)

    def test_non_unit_multiple_is_fine_over_q(self):
        g = theta()
        result = lift_cycle(g, ["e1"], {"e1": 2, "e2": -2}, domain=QQ)
        assert isinstance(result, CycleLift)
        assert result.unit == 2

    def test_over_prime_field(self):
        g = theta()
        F5 = PrimeFieldDomain(5)
        result = lift_cycle(g, ["e1"], {"e1": 3, "e2": -3}, domain=F5)
        assert isinstance(result, CycleLift)
        assert result.unit == 3

    def test_random_instances_reverify(self, rng):
        successes = 0
        attempts = 0
        while successes < 200 and attempts < 2000:
            attempts += 1
            g = random_connected_graph(rng)
            cs = cycle_space(g)
            if cs.rank() == 0:
                continue
            # designate one non-forest edge and build r = (+-1) * its
            # fundamental cycle plus a random off-H combination
            nontree = sorted(set(range(g.n_edges())) - cs.forest)
            e_star = rng.choice(nontree)
            star_pos = nontree.index(e_star)
            r = dict(cs.basis[star_pos])
            sign = rng.choice((1, -1))
            r = {e: sign * c for e, c in r.items()}
            for pos, other in enumerate(nontree):
                if other == e_star or rng.random() < 0.5:
                    continue
                coeff = rng.randrange(-2, 3)
                for e, c in cs.basis[pos].items():
                    r[e] = r.get(e, 0) + coeff * c
            r = {e: c for e, c in r.items() if c}
            if e_star not in r:
                continue
            result = lift_cycle(g, [e_star], r)
            assert isinstance(result, CycleLift), result.reason
            assert result.unit in (1, -1)
            assert result.verified
            successes += 1
        assert successes == 200


def random_multigraph(rng):
    """Up to 5 vertices and 9 edges: loops, parallel edges, several components."""
    vertices = [f"v{i}" for i in range(rng.randrange(1, 6))]
    return Graph(vertices, [(rng.choice(vertices), rng.choice(vertices))
                            for _ in range(rng.randrange(1, 10))])


NOT_SPANNED = "the cycle space is not spanned by the cycle plus off-H cycles"


class TestLiftAgainstSympy:
    """The spanning verdict of ``lift_cycle`` against sympy, lifts recombined."""

    @pytest.mark.parametrize("domain, p", [(ZZ, None), (QQ, None),
                                           (PrimeFieldDomain(5), 5)],
                             ids=["Z", "Q", "F5"])
    def test_spanning_verdict_and_recombination(self, rng, domain, p):
        verdicts = {True: 0, False: 0}
        lifts = 0
        for _ in range(400):
            g = random_multigraph(rng)
            n = g.n_edges()
            full = cycle_space(g)
            if not full.rank():
                continue
            r = {}
            for chain in full.basis:
                coeff = rng.randrange(-2, 3)
                for e, c in chain.items():
                    r[e] = r.get(e, 0) + coeff * c
            h = set(rng.sample(range(n), rng.randrange(1, min(n, 2) + 1)))
            r = {e: c for e, c in r.items() if domain.coerce(c) != domain.zero}
            if not h.intersection(r):
                continue
            kept = [e for e in range(n) if e not in h]
            off = cycle_space(Graph(g.vertices, [g.edges[e] for e in kept]))
            rows = [[0] * n for _ in off.basis] + [[r.get(e, 0) for e in range(n)]]
            for row, chain in zip(rows, off.basis):
                for e, c in chain.items():
                    row[kept[e]] = c
            beta = full.rank()  # E - V + components
            matrix = Matrix(rows)
            if domain == ZZ:
                factors = [d for d in invariant_factors(matrix, domain=SYMPY_ZZ) if d]
                spans = factors == [1] * beta
            else:
                field = SYMPY_QQ if p is None else GF(p)
                spans = DomainMatrix.from_Matrix(matrix).convert_to(field).rank() == beta
            result = lift_cycle(g, sorted(h), r, domain)
            not_spanned = isinstance(result, NotApplicable) and result.reason == NOT_SPANNED
            assert not_spanned == (not spans)
            verdicts[spans] += 1
            if isinstance(result, CycleLift):
                lifts += 1
                total = {}
                for coeff, chain in zip(result.k_coefficients, result.k_basis):
                    assert not h.intersection(chain)
                    for e, c in chain.items():
                        total[e] = total.get(e, 0) + Fraction(coeff) * c
                for e, c in result.cycle_chain.items():
                    total[e] = total.get(e, 0) + Fraction(result.unit) * c
                reduce = (lambda x: x) if p is None else (lambda x: x % p)
                assert ({e: reduce(c) for e, c in total.items() if reduce(c)}
                        == {e: reduce(Fraction(c)) for e, c in r.items() if reduce(c)})
        assert verdicts[True] >= 50 and verdicts[False] >= 50 and lifts >= 50, \
            (verdicts, lifts)


def reference_spanning_check(graph, h, r, domain):
    """The spanning check by elimination, as ``lift_cycle`` once made it.

    The off-H fundamental cycles come from a rebuilt ``G - H`` graph, mapped
    back to the edges of ``graph``.  They and ``r`` are written in the
    coordinates of the whole graph's BFS forest, and ``spans_saturated``
    decides whether they span the coordinate lattice.  Returns the verdict
    and the off-H basis.
    """
    n = graph.n_edges()
    kept = [e for e in range(n) if e not in h]
    off = cycle_space(Graph(graph.vertices, [graph.edges[e] for e in kept]), domain)
    off_basis = [{kept[e]: c for e, c in chain.items()} for chain in off.basis]
    tree, _ = graph.spanning_forest()
    cols = [e for e in range(n) if e not in tree]
    coords = [{k: chain[e] for k, e in enumerate(cols) if e in chain}
              for chain in off_basis + [r]]
    return spans_saturated(coords, len(cols), domain), off_basis


class TestForestCountAgainstElimination:
    """The forest count decides the spanning hypothesis as elimination did."""

    @pytest.mark.parametrize("domain", [ZZ, QQ, PrimeFieldDomain(2), PrimeFieldDomain(3)],
                             ids=["Z", "Q", "F2", "F3"])
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_verdict_and_off_h_basis(self, domain, data):
        n_vertices = data.draw(st.integers(1, 5))
        vertex = st.integers(0, n_vertices - 1)
        edges = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=9))
        g = Graph(range(n_vertices), edges)
        basis = cycle_space(g).basis
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                                    max_size=len(basis)))
        h = set(data.draw(st.lists(st.integers(0, len(edges) - 1), min_size=1,
                                   max_size=3)))
        r = {}
        for coeff, chain in zip(coeffs, basis):
            for e, c in chain.items():
                r[e] = r.get(e, 0) + coeff * c
        r = {e: x for e, c in r.items() if (x := domain.coerce(c))}
        if not h.intersection(r):
            return
        result = lift_cycle(g, sorted(h), r, domain)
        spans, off_basis = reference_spanning_check(g, h, r, domain)
        assert (isinstance(result, NotApplicable) and result.reason == NOT_SPANNED) \
            == (not spans)
        if isinstance(result, CycleLift):
            assert result.k_basis == off_basis


class TestForestShape:
    def test_lift_builds_no_graph(self, monkeypatch):
        g = Graph(["u", "v", "w"], [("u", "v"), ("v", "w"), ("w", "u"), ("u", "v")])
        built = []
        original = Graph.__init__

        def counted(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(Graph, "__init__", counted)
        lift = lift_cycle(g, [0], {0: 1, 1: 1, 2: 1})
        assert lift.verified and len(lift.k_basis) == 1
        assert built == []

    def test_graphs_loads_no_elimination(self):
        src = str(Path(onerel.__file__).resolve().parent.parent)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import onerel.graphs; "
                "print('onerel.intlinalg' in sys.modules)")
        run = subprocess.run([sys.executable, "-c", code, src],
                             capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "False"
