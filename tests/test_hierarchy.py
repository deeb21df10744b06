import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onerel.errors import InputError, UnsupportedError
from onerel.graphs import Graph, tree_path
from onerel.hierarchy import (EpimorphismToZ, HNNStep, NoEpimorphism,
                              _relator_path, _window_edges, build_hierarchy,
                              find_epimorphism, hnn_step, number_lemma_check,
                              number_lemma_oracle, prefix_sequence)
from onerel.presentations import Presentation, parse_presentation
from onerel.words import (Word, cyclic_reduce, exponent_vector, free_reduce,
                          is_cyclic_conjugate, is_proper_power)

from conftest import random_cyclically_reduced_word

BS12 = "gens: a, t\nrels: t*a*t^-1*a^-2"
TREFOIL = "gens: a, b\nrels: a^2*b^-3"

# A generator count and raw letters over that many generators.
RAW_RELATORS = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))),
             max_size=14)))


class TestEpimorphism:
    def test_bs(self):
        p = parse_presentation(BS12)
        assert find_epimorphism(p).values == (0, 1)

    def test_trefoil(self):
        p = parse_presentation(TREFOIL)
        assert find_epimorphism(p).values == (3, 2)

    def test_finite_abelianization(self):
        p = parse_presentation("gens: a\nrels: a^3")
        with pytest.raises(NoEpimorphism):
            find_epimorphism(p)

    def test_zero_exponent_vector(self):
        p = parse_presentation("gens: a, b\nrels: [a, b]")
        phi = find_epimorphism(p)
        assert phi.values == (0, 1)

    def test_normalisation_properties(self, rng):
        for _ in range(60):
            n = rng.randrange(2, 4)
            names = ["a", "b", "c"][:n]
            w = random_cyclically_reduced_word(rng, n, rng.randrange(2, 10))
            p = Presentation(names, [w])
            phi = find_epimorphism(p)
            assert phi(p.relators[0]) == 0
            assert math.gcd(*phi.values) == 1
            first = next(v for v in phi.values if v)
            assert first > 0

    @settings(max_examples=300, deadline=None)
    @given(RAW_RELATORS)
    def test_kills_relator_on_last_two_generators(self, raw):
        n, letters = raw
        p = Presentation(["a", "b", "c", "d"][:n], [free_reduce(letters)])
        vec = exponent_vector(p.relators[0], n)
        try:
            phi = find_epimorphism(p)
        except NoEpimorphism:
            assert n == 1 and vec[0] != 0
            return
        assert phi(p.relators[0]) == 0
        assert math.gcd(*phi.values) == 1
        assert not any(phi.values[:-2])
        assert next(v for v in phi.values if v) > 0


class TestPrefixSequence:
    PART = {0: "A", 1: "B"}

    def test_trefoil(self):
        p = parse_presentation(TREFOIL)
        seq = prefix_sequence(p.relators[0], find_epimorphism(p), self.PART)
        assert seq.values == (0, 6, 0)
        assert (seq.a, seq.b) == (2, 3)
        assert seq.span == 6
        assert seq.span >= seq.a + seq.b - 1

    def test_commutator(self):
        p = parse_presentation("gens: a, b\nrels: [a, b]")
        seq = prefix_sequence(p.relators[0], EpimorphismToZ((1, -1)), self.PART)
        assert seq.values[0] == 0 and seq.values[-1] == 0
        assert min(seq.values) >= 0
        assert seq.raw_values == (0, 1, 0, -1, 0)

    def test_single_pair(self):
        p = parse_presentation("gens: a, b\nrels: a*b")
        seq = prefix_sequence(p.relators[0], EpimorphismToZ((1, -1)), self.PART)
        assert seq.values == (0, 1, 0)

    def test_congruences_hold(self, rng):
        for _ in range(100):
            w = random_cyclically_reduced_word(rng, 2, rng.randrange(2, 12))
            vec = (0, 0)
            # choose phi killing w with both factors hit
            from onerel.words import exponent_vector
            e = exponent_vector(w, 2)
            if e == (0, 0):
                phi = EpimorphismToZ((1, 1))
            else:
                phi = EpimorphismToZ((e[1] // math.gcd(*e) if any(e) else 1,
                                      -e[0] // math.gcd(*e)))
            if phi(w) != 0 or 0 in [phi.values[0], phi.values[1]]:
                continue
            if len({i for i, _ in w.letters}) < 2:
                continue
            seq = prefix_sequence(w, phi, self.PART)
            vals = seq.values
            assert vals[0] == 0 and vals[-1] == 0 and min(vals) >= 0
            for k in range(len(vals) - 1):
                mod = seq.b if k % 2 == 0 else seq.a
                assert (vals[k + 1] - vals[k]) % mod == 0
            # span bound when the pair-difference sum is nonzero
            pairs = (len(vals) - 1) // 2
            total = sum(vals[2 * l] - vals[2 * l + 1] for l in range(pairs))
            if math.gcd(seq.a, seq.b) == 1 and total != 0:
                assert seq.span >= seq.a + seq.b - 1


class TestNumberLemma:
    def test_all_zero(self):
        assert number_lemma_check(2, 3, [0, 0, 0]).kind == "SumZero"

    def test_large_entry(self):
        verdict = number_lemma_check(2, 3, [0, 3, 1, 4, 0])
        assert verdict.kind == "LargeEntry"
        assert verdict.index == 3
        assert verdict.total == -6

    def test_degenerate_pair(self):
        assert number_lemma_check(1, 1, [0, 0, 0]).kind == "SumZero"

    def test_non_coprime_rejected(self):
        with pytest.raises(InputError):
            number_lemma_check(2, 2, [0, 0, 0])

    def test_congruence_violation_rejected(self):
        with pytest.raises(InputError):
            number_lemma_check(2, 3, [0, 1, 0])

    def test_oracle_small_pairs(self):
        assert number_lemma_oracle(1, 2, 4)["counterexamples"] == 0
        report = number_lemma_oracle(2, 3, 6)
        assert report["counterexamples"] == 0
        assert report["sequences"] > 0

    def test_oracle_counts(self):
        """Counts taken from the recursive enumeration the stack replaced."""
        assert number_lemma_oracle(2, 3, 6) == {"sequences": 364, "counterexamples": 0}
        assert number_lemma_oracle(3, 5, 5) == {"sequences": 341, "counterexamples": 0}

    def test_oracle_rejects_non_coprime(self):
        with pytest.raises(InputError):
            number_lemma_oracle(2, 2, 4)


def back_substitute(step: HNNStep) -> Word:
    letters = []
    for i, s in step.relator_word.letters:
        piece = step.expansions[step.base.names[i]]
        letters.extend(piece.letters if s > 0 else piece.inverse().letters)
    return Word(letters)


class TestHNNStep:
    def test_bs_step(self):
        p = parse_presentation(BS12)
        step = hnn_step(p)
        assert step.base.names == ["a0", "a1"]
        assert step.relator_word.render(step.base.names) == "a1*a0^-2"
        assert step.window == (0, 1)
        assert len(step.relator_word) == 3 < len(p.relators[0])
        assert step.expansions["a1"].render(p.names) == "t*a*t^-1"
        # associated subgroups pair a0 with a1
        assert [w.render(step.base.names) for w in step.assoc_j0] == ["a0"]
        assert [w.render(step.base.names) for w in step.assoc_j1] == ["a1"]

    def test_trefoil_step(self):
        p = parse_presentation(TREFOIL)
        step = hnn_step(p)
        assert step.window == (0, 6)
        assert len(step.relator_word) < 5
        recovered = back_substitute(step)
        core, _ = cyclic_reduce(recovered)
        w = p.relators[0]
        assert is_cyclic_conjugate(core, w) or is_cyclic_conjugate(core, w.inverse())

    def test_qn_style_relator(self):
        # (t a t^-1) a (t a t^-1)^-1 a^-(n+1) rewrites to a1 a0 a1^-1 a0^-(n+1)
        n = 3
        p = parse_presentation(f"gens: a, t\nrels: [t*a*t^-1, a]*a^-{n}")
        step = hnn_step(p)
        assert step.relator_word.render(step.base.names) == \
            f"a1*a0*a1^-1*a0^-{n + 1}"

    def test_sub_window_with_two_components(self):
        # levels -3..-1 split into {-3, -1} and {-2} under a -> 2, c -> 3
        p = parse_presentation("gens: a, b, c\nrels: b^-1*c^-1*b*c")
        step = hnn_step(p, EpimorphismToZ((2, 0, 3)))
        assert step.render() == "\n".join([
            "phi: a -> 2, b -> 0, c -> 3",
            "window: levels -3..0",
            "base: <b0, b1, b2, b3 | b3^-1*b0>",
            "stable letter: t",
            "associated subgroups: [b0, b2, b1] -> [b1, b3, b2]",
        ])

    def test_disconnected_window_is_refused(self):
        # phi is onto, but a -> -2 and b -> 4 reach only the even levels of
        # the window -4..0, and c -> 5 has no edge inside it
        p = parse_presentation("gens: a, b, c\nrels: a^2*b")
        with pytest.raises(UnsupportedError, match=r"levels \[-3\] are not reached from "
                           r"level 0 under phi \(a -> -2, b -> 4, c -> 5\)"):
            hnn_step(p, EpimorphismToZ((-2, 4, 5)))
        # c -> 1 joins the odd levels: the same relator splits, so the check is
        # the window's connectivity, not a gcd of phi on the relator's letters
        step = hnn_step(p, EpimorphismToZ((-2, 4, 1)))
        assert step.window == (-4, 0)
        core, _ = cyclic_reduce(back_substitute(step))
        assert is_cyclic_conjugate(core, p.relators[0]) or \
            is_cyclic_conjugate(core, p.relators[0].inverse())

    def test_preconditions(self):
        with pytest.raises(InputError):
            hnn_step(parse_presentation("gens: a, b\nrels: a^4"))
        with pytest.raises(InputError):
            hnn_step(parse_presentation("gens: a, b\nrels: a ; b"))

    def test_proper_power_carried(self):
        p = parse_presentation("gens: a, t\nrels: (t*a*t^-1*a^-2)^3")
        step = hnn_step(p)
        assert step.power == 3
        assert step.base.relators[0] == step.relator_word ** 3

    def test_random_presentations_sound(self, rng):
        done = 0
        while done < 50:
            n_gens = rng.randrange(2, 4)
            names = ["a", "b", "c"][:n_gens]
            w = random_cyclically_reduced_word(rng, n_gens, rng.randrange(2, 13))
            used = sorted({i for i, _ in w.letters})
            if len(used) < 2:
                continue
            # restrict to the letters the relator mentions
            remap = {old: new for new, old in enumerate(used)}
            w = type(w)([(remap[i], s) for i, s in w.letters])
            p = Presentation([names[i] for i in used], [w])
            try:
                phi = find_epimorphism(p)
            except NoEpimorphism:
                continue
            step = hnn_step(p, phi)
            w_stored = p.relators[0]
            assert len(step.relator_word) < len(w_stored)
            recovered = back_substitute(step)
            core, _ = cyclic_reduce(recovered)
            assert is_cyclic_conjugate(core, w_stored) or \
                is_cyclic_conjugate(core, w_stored.inverse())
            assert len(step.assoc_j0) == len(step.assoc_j1)
            done += 1


def reference_step_parts(p, phi):
    """An HNN step's forest answers as computed with one BFS per window.

    The window, the sub-window on levels low..high-1 and the one on levels
    low+1..high each get their own BFS forest; expansions read root paths
    off the window's forest edge by edge.  Returns the expansions, the
    rewritten relator, the base names and the two associated word lists, or
    None when the BFS from level 0 misses a level of the window.
    """
    root_word, _ = is_proper_power(p.relators[0])
    path, levels = _relator_path(root_word, phi)
    low, high = min(levels), max(levels)
    traversed = {(g, lvl) for g, lvl, _ in path}
    window_edges = sorted(_window_edges(p.rank, phi, low, high),
                          key=lambda e: (e not in traversed, e))

    def window_graph(edges, lo, hi):
        return Graph(range(lo, hi + 1), [(lvl, lvl + phi.values[g]) for g, lvl in edges])

    tree_idx, parent = window_graph(window_edges, low, high).spanning_forest(roots=[0])
    if any(link is None and v != 0 for v, link in parent.items()):
        return None
    tree = {window_edges[i] for i in tree_idx}

    def letters_to(v):
        return [(window_edges[i][0], d) for i, d in tree_path(parent, v)]

    nontree = sorted(e for e in window_edges if e not in tree)
    names, name_of = [], {}
    for g, lvl in nontree:
        name = f"{p.names[g]}{lvl - low}"
        if name in name_of.values() or name in p.names:
            name = f"{p.names[g]}_{lvl - low}"
        name_of[(g, lvl)] = name
        names.append(name)
    expansions = {}
    for g, lvl in nontree:
        to_tail, to_head = letters_to(lvl), letters_to(lvl + phi.values[g])
        expansions[name_of[(g, lvl)]] = Word(
            to_tail + [(g, 1)] + [(i, -s) for i, s in reversed(to_head)])

    def to_base(edge_path):
        return Word([(names.index(name_of[(g, lvl)]), s) for g, lvl, s in edge_path
                     if (g, lvl) not in tree])

    def loops(shift):
        lo, hi = low + shift, high - 1 + shift
        sub_edges = sorted((g, lvl) for g, lvl in window_edges
                           if lo <= lvl <= hi and lo <= lvl + phi.values[g] <= hi)
        sub_tree, sub_parent = window_graph(sub_edges, lo, hi).spanning_forest()
        component = {}
        for v, link in sub_parent.items():
            component[v] = v if link is None else component[link[2]]

        def path_to(v):
            return [(*sub_edges[i], d) for i, d in tree_path(sub_parent, v)]

        out = []
        for _, i in sorted((component[lvl], i) for i, (g, lvl) in enumerate(sub_edges)
                           if i not in sub_tree):
            g, lvl = sub_edges[i]
            back = [(h, at, -d) for h, at, d in reversed(path_to(lvl + phi.values[g]))]
            out.append(to_base(path_to(lvl) + [(g, lvl, 1)] + back))
        return out

    return expansions, to_base(path), names, loops(0), loops(1)


def kernel_epimorphism(vec, u):
    """A surjection to Z that kills exponent-sum vector ``vec``, built from ``u``.

    ``u`` projected away from ``vec`` (``u`` itself when ``vec`` is 0), made
    primitive; None when that is 0.
    """
    dot = sum(x * y for x, y in zip(u, vec))
    norm = sum(x * x for x in vec)
    values = [norm * x - dot * y for x, y in zip(u, vec)] if norm else u
    g = math.gcd(*values)
    return EpimorphismToZ(tuple(v // g for v in values)) if g else None


class TestHNNStepAgainstSeparateBFS:
    """One BFS for both sub-windows gives what a BFS per sub-window gave."""

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(raw=RAW_RELATORS, u=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
           phi_from=st.sampled_from(["find_epimorphism", "kernel", "balanced"]),
           data=st.data())
    def test_step_parts(self, raw, u, phi_from, data):
        n, letters = raw
        if phi_from == "balanced":
            # every exponent sum is 0, so any phi kills the relator; a phi
            # with a zero or with values sharing a factor splits sub-windows
            letters = letters + data.draw(st.permutations([(i, -s) for i, s in letters]))
        w, _ = cyclic_reduce(free_reduce(letters))
        p = Presentation(["a", "b", "c", "d"][:n], [w])
        try:
            if phi_from == "find_epimorphism":
                phi = find_epimorphism(p)
            else:
                phi = kernel_epimorphism(exponent_vector(w, n), u[:n])
                if phi is None:
                    return
            step = hnn_step(p, phi)
        except UnsupportedError as exc:
            # a phi whose values on the relator's letters have a common
            # factor leaves window levels that level 0 does not reach
            assert "not reached from level 0" in str(exc)
            assert reference_step_parts(p, phi) is None
            return
        except InputError:
            return
        expansions, relator_word, names, j0, j1 = reference_step_parts(p, phi)
        assert list(step.expansions.items()) == list(expansions.items())
        assert step.relator_word == relator_word
        assert step.base.names == names
        assert step.assoc_j0 == j0
        assert step.assoc_j1 == j1

    def test_two_bfs_per_step(self, monkeypatch):
        calls = []
        original = Graph.spanning_forest

        def counted(self, *args, **kwargs):
            calls.append(len(self.vertices))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "spanning_forest", counted)
        step = hnn_step(parse_presentation(TREFOIL))
        assert step.window == (0, 6)
        assert calls == [7, 6]


class TestHierarchy:
    def test_bs_depth_one_free_leaf(self):
        tree = build_hierarchy(parse_presentation(BS12))
        leaves = tree.leaves()
        assert [n.status for n in leaves] == ["free"]
        assert tree.depth() == 1

    def test_single_letter_relator(self):
        tree = build_hierarchy(parse_presentation("gens: a\nrels: a"))
        root = tree.root
        assert root.status == "free" and root.free_rank == 0

    def test_torsion_leaf(self):
        tree = build_hierarchy(parse_presentation("gens: a\nrels: a^5"))
        assert tree.root.status == "cyclic"
        assert tree.root.cyclic_order == 5

    def test_trefoil_terminates_free(self):
        tree = build_hierarchy(parse_presentation(TREFOIL))
        assert all(n.status in ("free", "cyclic") for n in tree.leaves())

    def test_relator_lengths_strictly_decrease(self):
        tree = build_hierarchy(parse_presentation(TREFOIL))
        for parent, child in tree.hnn_edges():
            assert len(child.presentation.relators[0]) < \
                len(parent.presentation.relators[0])

    def test_depth_bounded_by_relator_length(self, rng):
        for _ in range(20):
            w = random_cyclically_reduced_word(rng, 2, rng.randrange(2, 9))
            if len({i for i, _ in w.letters}) < 2:
                continue
            p = Presentation(["a", "b"], [w])
            tree = build_hierarchy(p)
            assert tree.depth() <= 2 * len(w)
            assert all(n.status in ("free", "cyclic") for n in tree.leaves())

    def test_nodes_in_preorder_with_their_depths(self):
        tree = build_hierarchy(parse_presentation("gens: a, b, c\nrels: a^2*b^-3"))
        nodes = list(tree.nodes())
        assert nodes[0] is tree.root
        assert [n.depth for n in nodes] == list(range(len(nodes)))
        assert [n.edge_kind for n in nodes[:2]] == [None, "restrict"]
        assert tree.depth() == len(nodes) - 1
        assert tree.leaves() == [n for n in nodes if n.is_leaf()]

    def test_building_and_walking_leaves_no_cyclic_garbage(self):
        """No reference cycle keeps a tree alive until a full collection."""
        p = parse_presentation(BS12)
        gc.collect()
        gc.disable()
        try:
            tree = build_hierarchy(p)
            tree.leaves(), tree.depth(), tree.hnn_edges(), tree.render()
            del tree
            assert gc.collect() == 0
        finally:
            gc.enable()
