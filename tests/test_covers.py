from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import GF, Matrix, QQ as SYMPY_QQ, ZZ as SYMPY_ZZ
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

from onerel.covers import build_cover_complex, generation_check, homology, weinbaum_scan
from onerel.intlinalg import field_rank, quotient_invariants, spans_saturated
from onerel.domains import QQ, ZZ, PrimeFieldDomain
from onerel.errors import InputError, UnsupportedError
from onerel.foxcalc import QuotientMap, jacobian
from onerel.graphs import Graph
from onerel.groupring import GroupRingElement
from onerel.oracles import (MAX_QUOTIENT_ORDER, ModOracle, PermOracle, ZPowOracle,
                            parse_permutation)
from onerel.presentations import Presentation, parse_presentation
from onerel.words import Word, cyclic_reduce, free_reduce

from conftest import mat_mul, random_raw_letters, random_reduced_word


def twelve_cycle_quotient(presentation, a_power, b_power):
    """Images a -> c^a_power, b -> c^b_power for c the 12-cycle."""
    cyc = tuple((i + 1) % 12 for i in range(12))

    def power(k):
        img = tuple(range(12))
        for _ in range(k % 12):
            img = tuple(cyc[i] for i in img)
        return img

    return QuotientMap.permutation(presentation, {"a": power(a_power), "b": power(b_power)})


class TestBuildCoverComplex:
    def test_power_relator_trivial(self):
        p = parse_presentation("gens: a\nrels: a^7")
        c = build_cover_complex(p, QuotientMap.trivial(p))
        assert c.d2 == [[7]]
        assert incidence_rows(c.skeleton) == [[0]]

    def test_torus_trivial(self):
        p = parse_presentation("gens: a, b\nrels: [a, b]")
        c = build_cover_complex(p, QuotientMap.trivial(p))
        assert c.d2 == [[0, 0]]
        assert incidence_rows(c.skeleton) == [[0], [0]]

    def test_a_squared_at_z2(self):
        p = parse_presentation("gens: a\nrels: a^2\nquotient: a -> (1 2)")
        c = build_cover_complex(p, QuotientMap.permutation(p))
        assert c.d2 == [[1, 1], [1, 1]]
        d1 = incidence_rows(c.skeleton)
        assert sorted(map(sorted, d1)) == [[-1, 1], [-1, 1]]
        assert not any(map(any, mat_mul(c.d2, d1)))

    def test_order_cap(self, monkeypatch):
        p = parse_presentation("gens: a, b\nrels: a^2 ; b^3")
        images = {"a": parse_permutation("(1 2)", 4), "b": parse_permutation("(2 3 4)")}
        monkeypatch.setattr("onerel.oracles.MAX_QUOTIENT_ORDER", 24)
        assert len(QuotientMap.permutation(p, images).oracle.elements()) == 24
        monkeypatch.setattr("onerel.oracles.MAX_QUOTIENT_ORDER", 23)
        with pytest.raises(UnsupportedError):
            QuotientMap.permutation(p, images).oracle.elements()

    def test_abelian_quotient_is_refused(self):
        # Z^2 cannot enumerate its elements, so it has no finite cover
        p = parse_presentation("gens: a, b\nrels: [a, b]")
        with pytest.raises(UnsupportedError):
            build_cover_complex(p, QuotientMap.abelianization(p))

    def test_relator_not_killed(self):
        p = parse_presentation("gens: a\nrels: a^3")
        with pytest.raises(InputError):
            QuotientMap.permutation(p, {"a": parse_permutation("(1 2)")})

    def test_composites_vanish_on_random_inputs(self, rng):
        perms3 = ["()", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)", "(2 3)"]
        built = 0
        while built < 25:
            n_gens = rng.randrange(1, 3)
            names = ["a", "b"][:n_gens]
            rels = [free_reduce(random_raw_letters(rng, n_gens, 8))
                    for _ in range(rng.randrange(1, 3))]
            p = Presentation(names, rels)
            images = {g: parse_permutation(rng.choice(perms3), 3) for g in names}
            try:
                q = QuotientMap.permutation(p, images)
            except InputError:
                continue
            c = build_cover_complex(p, q)
            assert not c.d2 or not any(map(any, mat_mul(c.d2, incidence_rows(c.skeleton))))
            built += 1

    def test_d2_rows_are_regular_images_of_the_jacobian(self, rng):
        """Sparse d2 against dense right-regular blocks of the pushed Jacobian."""
        for c in fixed_and_random_covers(rng):
            assert c.d2 == regular_jacobian(c.presentation, c.quotient)

    def test_composite_check_fires_on_a_corrupted_table(self):
        """A table entry pointed at another element breaks the walk's closure."""
        p = parse_presentation("gens: a, b\nrels: a^2*b^-3\nquotient: a -> (1 2), b -> (1 2 3)")
        q = QuotientMap.permutation(p)
        build_cover_complex(p, q)
        column = q.oracle._columns[q.images[1]]
        column[0] = column[1]
        with pytest.raises(InputError, match="^cover boundary matrices do not compose to zero$"):
            build_cover_complex(p, q)

    @pytest.mark.parametrize("column", [
        [0, 2, 1],      # the walk along b^2 merges two unequal arrays at at[0] = 0
        [1, 0, 2],      # it ends at the identity, but its two terms meet at point 2
        [1, 2, 0],      # its two terms differ everywhere, but it does not end at 1
    ])
    def test_composite_check_fires_on_each_table_mutation(self, column):
        """A corrupted column of the identity image ``b``, each failing one
        part of the per-relator check alone: ``b`` is never inverted."""
        p = parse_presentation("gens: a, b\nrels: b^2 ; a^3\nquotient: a -> (1 2 3), b -> ()")
        q = QuotientMap.permutation(p)
        assert build_cover_complex(p, q).cells[0] == [(1, (0, 1, 2), 2)]
        q.oracle._columns[q.images[1]][:] = column
        with pytest.raises(InputError, match="^cover boundary matrices do not compose to zero$"):
            build_cover_complex(p, q)

    def test_rows_and_skeleton_come_from_the_table_alone(self, monkeypatch):
        """Once the elements are enumerated, no group operation and no Jacobian."""
        p = parse_presentation(FIXED_COVERS[-1])
        q = QuotientMap.permutation(p)
        expected = build_cover_complex(p, q)

        def refuse(*args):
            raise AssertionError("the cover build called a group operation")

        for name in ("multiply", "invert"):
            monkeypatch.setattr(PermOracle, name, refuse)
        monkeypatch.setattr(QuotientMap, "prefix_images", refuse)
        c = build_cover_complex(p, q)
        assert c.rows == expected.rows and c.skeleton.edges == expected.skeleton.edges

    def test_triplet_export(self):
        p = parse_presentation("gens: a\nrels: a^2\nquotient: a -> (1 2)")
        c = build_cover_complex(p, QuotientMap.permutation(p))
        text = c.to_triplet_text()
        assert text.splitlines()[0] == "matrix d2 2 2"
        assert "matrix d1 2 2" in text


class TestHomology:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_cyclic_torsion(self, n):
        p = parse_presentation(f"gens: a\nrels: a^{n}")
        h = homology(build_cover_complex(p, QuotientMap.trivial(p)))
        assert h.h0_free_rank == 1 and h.h0_torsion == []
        assert h.h1_free_rank == 0 and h.h1_torsion == [n]

    def test_torus(self):
        p = parse_presentation("gens: a, b\nrels: [a, b]")
        h = homology(build_cover_complex(p, QuotientMap.trivial(p)))
        assert (h.h1_free_rank, h.h1_torsion) == (2, [])
        assert (h.h0_free_rank, h.h0_torsion) == (1, [])

    def test_circle_like_complex(self):
        # the presentation complex of <a,b | a*b^-1> deformation retracts to
        # a circle, so every finite cover has first homology Z
        p = parse_presentation("gens: a, b\nrels: a*b^-1")
        h = homology(build_cover_complex(p, QuotientMap.trivial(p)))
        assert (h.h1_free_rank, h.h1_torsion) == (1, [])
        q = QuotientMap.permutation(p, {"a": parse_permutation("(1 2)"),
                               "b": parse_permutation("(1 2)")})
        h2 = homology(build_cover_complex(p, q))
        assert (h2.h1_free_rank, h2.h1_torsion) == (1, [])

    def test_sphere_cover(self):
        p = parse_presentation("gens: a\nrels: a^2\nquotient: a -> (1 2)")
        h = homology(build_cover_complex(p, QuotientMap.permutation(p)))
        assert (h.h1_free_rank, h.h1_torsion) == (0, [])

    def test_field_dimensions(self):
        p = parse_presentation("gens: a\nrels: a^6")
        c = build_cover_complex(p, QuotientMap.trivial(p), QQ)
        h = homology(c)
        assert h.h1_free_rank == 0 and h.h1_torsion == []
        c3 = build_cover_complex(p, QuotientMap.trivial(p), PrimeFieldDomain(3))
        h3 = homology(c3)
        assert h3.h1_free_rank == 1  # 6 = 0 in F_3

    def test_invariant_under_basis_permutation(self, rng):
        p = parse_presentation("gens: a, b\nrels: a^2*b^-3 ; b^6")
        q = twelve_cycle_quotient(p, 3, 2)
        c = build_cover_complex(p, q)
        h = homology(c)
        n = c.order
        for _ in range(5):
            # new vertex sigma[k] is old vertex k; new generator a is old
            # generator gens[a]; new cell b is old cell cells[b], its row k
            # the old cell's row within[b][k]
            sigma = rng.sample(range(n), n)
            gens = rng.sample(range(len(c.columns)), len(c.columns))
            cells = rng.sample(range(len(c.cells)), len(c.cells))
            within = [rng.sample(range(n), n) for _ in cells]
            new_gen = {s: a for a, s in enumerate(gens)}
            columns = [[0] * n for _ in gens]
            for a, s in enumerate(gens):
                for k, head in enumerate(c.columns[s]):
                    columns[a][sigma[k]] = sigma[head]
            shuffled_cells = [[(new_gen[j], tuple(sigma[at[t]] for t in within[b]), v)
                               for j, at, v in c.cells[i]] for b, i in enumerate(cells)]
            shuffled = replace(c, columns=columns, cells=shuffled_cells,
                               forest=[new_gen[e // n] * n + sigma[e % n] for e in c.forest])
            rows = [i * n + t for b, i in enumerate(cells) for t in within[b]]
            cols = [s * n + k for s in gens for k in sorted(range(n), key=sigma.__getitem__)]
            verts = sorted(range(n), key=sigma.__getitem__)
            shuffled_d1 = incidence_rows(shuffled.skeleton)
            assert not any(map(any, mat_mul(shuffled.d2, shuffled_d1)))
            assert shuffled.d2 == [[c.d2[r][e] for e in cols] for r in rows]
            d1 = incidence_rows(c.skeleton)
            assert shuffled_d1 == [[d1[e][v] for v in verts] for e in cols]
            h2 = homology(shuffled)
            assert (h2.h0_free_rank, h2.h0_torsion) == (h.h0_free_rank, h.h0_torsion)
            assert (h2.h1_free_rank, h2.h1_torsion) == (h.h1_free_rank, h.h1_torsion)


class TestGenerationCheck:
    def test_full_rows_when_h1_vanishes(self):
        p = parse_presentation("gens: a\nrels: a^2\nquotient: a -> (1 2)")
        c = build_cover_complex(p, QuotientMap.permutation(p))
        assert homology(c).h1_free_rank == 0 and homology(c).h1_torsion == []
        assert generation_check(c, range(len(c.d2)))

    def test_single_row_insufficient(self):
        p = parse_presentation("gens: a, b\nrels: a ; b")
        c = build_cover_complex(p, QuotientMap.trivial(p))
        assert generation_check(c, range(len(c.d2)))
        assert not generation_check(c, [0])

    def test_empty_rows_against_nontrivial_kernel(self):
        # the kernel of d1 for <a | > at the trivial quotient is all of Z,
        # so the empty row set cannot generate it
        p = parse_presentation("gens: a")
        c = build_cover_complex(p, QuotientMap.trivial(p))
        assert not generation_check(c, [])

    def test_empty_rows_with_zero_kernel_over_field(self):
        p = parse_presentation("gens: a")
        q = QuotientMap.permutation(p, {"a": parse_permutation("(1 2)")})
        c = build_cover_complex(p, q, QQ)
        # over Q the kernel of d1 is spanned by the norm vector: rank 1
        assert not generation_check(c, [])

    def test_over_field_rank_comparison(self):
        p = parse_presentation("gens: a\nrels: a^2\nquotient: a -> (1 2)")
        c = build_cover_complex(p, QuotientMap.permutation(p), QQ)
        assert generation_check(c, range(len(c.d2)))
        assert not generation_check(c, [])


def sympy_rank(mat, p=None):
    """Rank over Q, or over F_p when ``p`` is given."""
    if not mat:
        return 0
    return DomainMatrix.from_list(mat, SYMPY_ZZ).convert_to(
        SYMPY_QQ if p is None else GF(p)).rank()


def sympy_factors(mat):
    """Nonzero invariant factors of an integer matrix."""
    if not mat:
        return []
    return [int(d) for d in invariant_factors(Matrix(mat), domain=SYMPY_ZZ) if d]


def random_killed_cover(rng):
    """Two generators on at most 4 points; relators u^k or u^(2k), k the order of u.

    The cover repeats a relator's row at ``g`` at ``g * u``, and under
    ``u^(2k)`` those repeated rows carry coefficients 2 and -2.
    """
    degree = rng.randrange(2, 5)
    images = {g: tuple(rng.sample(range(degree), degree)) for g in ("a", "b")}
    free = QuotientMap.permutation(Presentation(["a", "b"], []), images)
    ident = free.oracle.identity()
    relators = []
    for _ in range(rng.randrange(1, 3)):
        u = random_reduced_word(rng, 2, rng.randrange(1, 5))
        img, k = free.apply(u), 1
        while img != ident:
            img, k = free.oracle.multiply(img, free.apply(u)), k + 1
        relators.append(free_reduce(list(u.letters) * k * rng.randrange(1, 3)))
    p = Presentation(["a", "b"], relators)
    return p, QuotientMap.permutation(p, images)


# <a | a^6> at a 3-cycle has H1 = Z/2; the triangle presentations of S3, A4
# and S4 at their faithful quotients give simply connected covers.
FIXED_COVERS = [
    "gens: a\nrels: a^6\nquotient: a -> (1 2 3)",
    "gens: a, b\nrels: a*b*a^-1*b^-2\nquotient: a -> (1 2), b -> ()",
    "gens: a, b\nrels: a*b*a^-1*b^-2\nquotient: a -> (1 2 3), b -> ()",
    "gens: a, b\nrels: a^2 ; b^3 ; (a*b)^2\nquotient: a -> (1 2), b -> (1 2 3)",
    "gens: a, b\nrels: a^2 ; b^3 ; (a*b)^3\nquotient: a -> (1 2)(3 4), b -> (2 3 4)",
    "gens: a, b\nrels: a^2 ; b^3 ; (a*b)^4\nquotient: a -> (1 2), b -> (2 3 4)",
]


def fixed_and_random_covers(rng):
    for text in FIXED_COVERS:
        p = parse_presentation(text)
        yield build_cover_complex(p, QuotientMap.permutation(p))
    for _ in range(20):
        p, q = random_killed_cover(rng)
        yield build_cover_complex(p, q)


def _regular_blocks(element_list, oracle):
    """Dense right-regular images of group-ring elements, block by block."""
    index = {g: i for i, g in enumerate(element_list)}

    def block(ring_elem):
        n = len(element_list)
        mat = [[0] * n for _ in range(n)]
        for g, coeff in ring_elem.terms.items():
            for p, elem in enumerate(element_list):
                q = index[oracle.multiply(elem, g)]
                mat[p][q] += coeff
        return mat

    return block


def regular_jacobian(p, q):
    """Dense right-regular images of the Jacobian's rows, from ``_regular_blocks``."""
    elements = q.oracle.elements()
    block = _regular_blocks(elements, q.oracle)
    jac = jacobian(p, q, ZZ)
    out = []
    for i in range(jac.nrows):
        blocks = [block(jac.entry(i, j)) for j in range(jac.ncols)]
        out += [[x for b in blocks for x in b[k]] for k in range(len(elements))]
    return out


@st.composite
def table_covers(draw):
    """A presentation on 1-3 generators and a quotient of degree <= 5 killing it.

    Each relator is ``u^m * t * v^k * t^-1`` with ``m`` and ``k`` the orders of
    the images of ``u`` and ``v``, so the Fox terms of ``t`` and ``t^-1`` meet
    at one image and cancel.  A fifth of the draws use the trivial quotient,
    and a generator's image is the identity a quarter of the time.
    """
    rank = draw(st.integers(1, 3))
    names = ["a", "b", "c"][:rank]
    degree = draw(st.integers(2, 5))
    perm = st.permutations(range(degree)).map(tuple)
    images = {g: draw(st.one_of(st.just(tuple(range(degree))), perm, perm, perm))
              for g in names}
    trivial = draw(st.integers(0, 4)) == 0
    free = QuotientMap.permutation(Presentation(names, []), images)
    ident = free.oracle.identity()
    words = st.lists(st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1))),
                     min_size=1, max_size=5).map(Word)

    def killed(u):
        img, k = free.apply(u), 1
        while not trivial and img != ident:
            img, k = free.oracle.multiply(img, free.apply(u)), k + 1
        return u ** k

    relators = []
    for _ in range(draw(st.integers(1, 2))):
        u, t, v = draw(words), draw(words), draw(words)
        relators.append(killed(u) * t * killed(v) * t.inverse())
    p = Presentation(names, relators)
    return p, QuotientMap.trivial(p) if trivial else QuotientMap.permutation(p, images)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(table_covers())
def test_table_cover_against_tuple_products(cover):
    """Recorded columns, rows and skeleton against permutation products."""
    p, q = cover
    c = build_cover_complex(p, q)
    oracle, elements = q.oracle, q.oracle.elements()
    index = {g: k for k, g in enumerate(elements)}

    def products(h):
        return [index[oracle.multiply(g, h)] for g in elements]

    images = [q.images[s] for s in range(p.rank)]
    columns = oracle._columns if q.kind == "permutation" else {
        h: oracle.cayley_column(h) for h in images}
    assert set(columns) == set(images)
    for h, column in columns.items():
        assert column == products(h)
    assert c.d2 == regular_jacobian(p, q)
    assert c.skeleton.edges == [(k, head, None) for h in images
                                for k, head in enumerate(products(h))]


def reference_cover(p, q):
    """The cover as an earlier build made it: ``(|Q|, rows, edges, forest)``.

    Every row is a full ``{edge: coefficient}`` dict, and every row's boundary
    is summed in plain ints and must vanish.
    """
    n = len(q.oracle.elements())
    first = {q.images[s]: s for s in reversed(range(p.rank))}
    forest = [first[h] * n + parent
              for h, parent in (q.oracle.cayley_tree()[1:] if n > 1 else ())]
    columns = [q.oracle.cayley_column(q.images[s]) for s in range(p.rank)]
    inverses = [sorted(range(n), key=column.__getitem__) for column in columns]
    rows = []
    for w in p.relators:
        cur = list(range(n))
        sums = [{} for _ in range(p.rank)]
        for j, sign in w.letters:
            nxt = list(map((columns if sign > 0 else inverses)[j].__getitem__, cur))
            at = cur if sign > 0 else nxt
            sums[j].setdefault(at[0], [at, 0])[1] += sign
            cur = nxt
        terms = [(j * n, at, c) for j, m in enumerate(sums) for at, c in m.values() if c]
        rows += [{base + at[k]: c for base, at, c in terms} for k in range(n)]
    edges = [(k, head) for column in columns for k, head in enumerate(column)]
    for row in rows:
        boundary = Counter()
        for e, c in row.items():
            tail, head = edges[e]
            boundary[head] += c
            boundary[tail] -= c
        assert not any(boundary.values())
    return n, rows, edges, forest


def reference_coordinates(rows, n_edges, forest):
    """Each full row restricted to the non-forest edges, and their count."""
    position = [None] * n_edges
    non_forest = sorted(set(range(n_edges)).difference(forest))
    for k, e in enumerate(non_forest):
        position[e] = k
    return [{position[e]: v for e, v in row.items() if position[e] is not None}
            for row in rows], len(non_forest)


def reference_h1(rows, n_edges, forest, domain):
    """H1's free rank and torsion from the distinct restricted rows."""
    coords, n_cycles = reference_coordinates(rows, n_edges, forest)
    coords = list({frozenset(row.items()): row for row in coords}.values())
    if domain.is_field:
        return n_cycles - field_rank(coords, domain), []
    return quotient_invariants(n_cycles, coords)


def reference_triplets(n, rows, edges):
    d1 = []
    for tail, head in edges:
        boundary = Counter({head: 1})
        boundary[tail] -= 1
        d1.append({v: x for v, x in boundary.items() if x})
    out = []
    for name, mat, cols in (("d2", rows, len(edges) if rows else 0),
                            ("d1", d1, n if edges else 0)):
        out.append(f"matrix {name} {len(mat)} {cols}")
        for i, row in enumerate(mat):
            out += [f"{i} {j} {v}" for j, v in sorted(row.items())]
    return "\n".join(out)


@st.composite
def reference_cases(draw):
    """A table cover whose relators are squared at random, and a row subset.

    A squared relator is a proper power; its repeated rows carry even
    coefficients, which give torsion.
    """
    p, q = draw(table_covers())
    squares = draw(st.lists(st.booleans(), min_size=len(p.relators),
                            max_size=len(p.relators)))
    p = Presentation(p.names, [w * w if sq else w for w, sq in zip(p.relators, squares)])
    q = QuotientMap.trivial(p) if q.kind == "trivial" else \
        QuotientMap.permutation(p, q.images)
    n = len(q.oracle.elements())
    subset = draw(st.lists(st.integers(0, len(p.relators) * n - 1), max_size=3 * n))
    return p, q, subset


def with_reference_examples(test):
    """Explicit cases: torsion Z/2 at a 3-cycle; a^4 at an element of order 2,
    whose repeated rows carry the coefficient 2; and loops from a trivial image."""
    for text, subset in (
            ("gens: a\nrels: a^6\nquotient: a -> (1 2 3)", [0, 1, 2]),
            ("gens: a, b\nrels: a^4 ; b^3 ; (a*b)^4\nquotient: a -> (1 2), b -> (2 3 4)",
             list(range(0, 72, 3))),
            ("gens: a, b\nrels: a^2*b^-2\nquotient: a -> (1 2), b -> ()", [1])):
        p = parse_presentation(text)
        test = example((p, QuotientMap.permutation(p), subset))(test)
    return test


@settings(max_examples=150, derandomize=True, deadline=None)
@with_reference_examples
@given(reference_cases())
def test_cover_and_homology_against_the_reference(case):
    """Rows, skeleton, forest, triplets, H0, H1 over Z, F2, F3 and Q and the
    generation check against the full-row build and its homology."""
    p, q, subset = case
    c = build_cover_complex(p, q)
    n, rows, edges, forest = reference_cover(p, q)
    assert c.order == n and c.rows == rows and c.forest == forest
    assert c.skeleton.edges == [(tail, head, None) for tail, head in edges]
    assert c.shape == (len(rows), len(edges), n if edges else 0)
    assert c.to_triplet_text() == reference_triplets(n, rows, edges)
    coords, n_cycles = reference_coordinates(rows, len(edges), forest)
    for domain in (ZZ, PrimeFieldDomain(2), PrimeFieldDomain(3), QQ):
        view = replace(c, domain=domain)
        h = homology(view)
        assert (h.h0_free_rank, h.h0_torsion) == (n - len(forest), [])
        assert (h.h1_free_rank, h.h1_torsion) == reference_h1(rows, len(edges), forest, domain)
        assert generation_check(view, subset) == spans_saturated(
            [coords[r] for r in sorted(set(subset))], n_cycles, domain)


def tuple_bfs(oracle):
    """Elements and columns by tuple products, in the enumeration's BFS order."""
    gens = sorted(set(oracle.generators))
    order = [oracle.identity()]
    index = {order[0]: 0}
    columns = {h: [] for h in gens}
    for g in order:
        for h in gens:
            nxt = oracle.multiply(g, h)
            if nxt not in index:
                if len(order) == MAX_QUOTIENT_ORDER:
                    return None, None
                index[nxt] = len(order)
                order.append(nxt)
            columns[h].append(index[nxt])
    return order, columns


def check_enumeration(oracle):
    """Elements and columns against ``tuple_bfs``; the tree against the columns."""
    order, columns = tuple_bfs(oracle)
    if order is None:
        with pytest.raises(UnsupportedError):
            oracle.elements()
        return
    assert oracle.elements() == order
    assert {h: oracle.cayley_column(h) for h in columns} == columns
    tree = oracle.cayley_tree()
    assert len(tree) == len(order) and tree[0] is None
    for k, (h, parent) in enumerate(tree[1:], 1):
        assert h in columns and parent < k
        assert oracle.cayley_column(h)[parent] == k


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(1, 8).flatmap(lambda degree: st.lists(
    st.permutations(range(degree)).map(tuple), min_size=1, max_size=3)))
def test_bytes_enumeration_against_tuple_products(generators):
    """The bytes BFS gives the tuple products' elements, columns and a tree."""
    check_enumeration(PermOracle(len(generators[0]), generators))


def check_index_maps(oracle, ks):
    """Right and left index maps of the elements ``ks`` against tuple products."""
    elements = oracle.elements()
    index = {g: k for k, g in enumerate(elements)}
    for k in ks:
        x = elements[k]
        assert oracle.right_index_map(k) == [index[oracle.multiply(g, x)] for g in elements]
        assert oracle.left_index_map(k) == [index[oracle.multiply(x, g)] for g in elements]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(1, 8).flatmap(lambda degree: st.lists(
    st.permutations(range(degree)).map(tuple), min_size=1, max_size=3)),
    st.lists(st.integers(0, MAX_QUOTIENT_ORDER - 1), max_size=4))
def test_index_maps_against_tuple_products(generators, picks):
    """Index maps from the recorded table give the tuple products, at any BFS depth."""
    oracle = PermOracle(len(generators[0]), generators)
    try:
        n = len(oracle.elements())
    except UnsupportedError:
        with pytest.raises(UnsupportedError):
            oracle.right_index_map(0)
        return
    # every element of a small group; the identity, the deepest element and
    # the drawn ones of a larger one
    ks = range(n) if n <= 60 else {0, n - 1, *(k % n for k in picks)}
    check_index_maps(oracle, ks)


def test_index_maps_in_closed_form():
    """Z/n and Z^0 give their index maps without a table."""
    for n in (1, 2, 7, 12):
        check_index_maps(ModOracle(n), range(n))
    check_index_maps(ZPowOracle(0), [0])
    with pytest.raises(UnsupportedError):
        ZPowOracle(1).right_index_map(0)


def test_index_maps_of_a_deep_tree():
    """A 5040-cycle's tree is a path, so the maps cannot compose columns along it."""
    cycles = [list(range(0, 5)), list(range(5, 12)), list(range(12, 21)), list(range(21, 37))]
    image = [0] * 37
    for cyc in cycles:
        for i, j in zip(cyc, cyc[1:] + cyc[:1]):
            image[i] = j
    oracle = PermOracle(37, [tuple(image)])
    assert max(parent for _, parent in oracle.cayley_tree()[1:]) == MAX_QUOTIENT_ORDER - 2
    check_index_maps(oracle, [1, 2520, MAX_QUOTIENT_ORDER - 1])


def test_enumeration_above_256_points_uses_tuples():
    """A degree past a byte's range is enumerated on tuples, in the same order."""
    rotation = tuple((i + 1) % 300 for i in range(300))
    flip = tuple((-i) % 300 for i in range(300))
    oracle = PermOracle(300, [rotation, flip])
    check_enumeration(oracle)
    assert len(oracle.elements()) == 600
    check_index_maps(oracle, [1, 2, 299, 599])


def test_forest_is_a_spanning_tree_of_the_skeleton(rng):
    """The enumeration's tree, as cover edges, spans the connected skeleton."""
    for c in fixed_and_random_covers(rng):
        tree, parent = c.skeleton.spanning_forest(edge_subset=c.forest)
        assert tree == set(c.forest)            # no forest edge closes a cycle
        assert list(parent.values()).count(None) == 1
    p = parse_presentation("gens: a, b\nrels: a^3*b^-2")
    c = build_cover_complex(p, QuotientMap.trivial(p))
    assert c.forest == [] and homology(c).h0_free_rank == 1


def incidence_rows(graph):
    """Edge rows of the incidence matrix: +1 at the head, -1 at the tail."""
    rows = []
    for tail, head, _ in graph.edges:
        row = [0] * len(graph.vertices)
        row[head] += 1
        row[tail] -= 1
        rows.append(row)
    return rows


class TestSkeleton:
    def test_d1_is_the_regular_image_of_the_fence(self, rng):
        """d1 against the right-regular image of phi(s) - 1, built from blocks."""
        loops = 0
        for c in fixed_and_random_covers(rng):
            q = c.quotient
            block = _regular_blocks(q.oracle.elements(), q.oracle)
            one = GroupRingElement.one(q.oracle, ZZ)
            expected = []
            for s in range(c.presentation.rank):
                image = q.apply(Word([(s, 1)]))
                expected += block(GroupRingElement.of(q.oracle, ZZ, image) - one)
            assert incidence_rows(c.skeleton) == expected
            loops += sum(1 for tail, head, _ in c.skeleton.edges if tail == head)
        assert loops > 0


class TestAgainstSympy:
    """Homology and generation checks against sympy ranks and Smith forms."""

    def test_fixed_values(self):
        p = parse_presentation(FIXED_COVERS[0])
        h = homology(build_cover_complex(p, QuotientMap.permutation(p)))
        assert (h.h1_free_rank, h.h1_torsion) == (0, [2])
        for text in FIXED_COVERS[3:]:
            p = parse_presentation(text)
            h = homology(build_cover_complex(p, QuotientMap.permutation(p)))
            assert (h.h1_free_rank, h.h1_torsion) == (0, [])

    def test_homology_and_universal_coefficients(self, rng):
        torsion_seen = doubled_repeats = 0
        for c in fixed_and_random_covers(rng):
            repeats = Counter(frozenset(row.items()) for row in c.rows)
            doubled_repeats += any(n > 1 and any(abs(v) > 1 for _, v in row)
                                   for row, n in repeats.items())
            d1 = incidence_rows(c.skeleton)
            n_edges, n_vertices = len(d1), len(d1[0])
            rank_d1 = sympy_rank(d1)
            f1, f2 = sympy_factors(d1), sympy_factors(c.d2)
            b1 = n_edges - rank_d1 - len(f2)
            torsion = [d for d in f2 if d > 1]
            torsion_seen += bool(torsion)
            h = homology(c)
            assert (h.h0_free_rank, h.h0_torsion) == (
                n_vertices - rank_d1, [d for d in f1 if d > 1])
            assert (h.h1_free_rank, h.h1_torsion) == (b1, torsion)
            assert generation_check(c, range(len(c.d2))) == (b1 == 0 and not torsion)
            assert homology(replace(c, domain=QQ)).h1_free_rank == b1
            for p in (2, 3, 5):
                hp = homology(replace(c, domain=PrimeFieldDomain(p)))
                assert hp.h1_free_rank == b1 + sum(1 for d in torsion if d % p == 0)
        assert torsion_seen >= 2
        assert doubled_repeats >= 2

    def test_generation_check_on_row_subsets(self, rng):
        spanning_subsets = 0
        fields = {None: QQ, 2: PrimeFieldDomain(2), 3: PrimeFieldDomain(3)}
        for c in fixed_and_random_covers(rng):
            d1 = incidence_rows(c.skeleton)
            cycle_rank = {p: len(d1) - sympy_rank(d1, p) for p in fields}
            for trial in range(3):
                k = rng.randrange(len(c.d2) + 1)
                rows = sorted(rng.sample(range(len(c.d2)), k))
                selected = [c.d2[r] for r in rows]
                factors = sympy_factors(selected)
                spans = (len(factors) == cycle_rank[None]
                         and all(d == 1 for d in factors))
                spanning_subsets += spans
                assert generation_check(c, rows) == spans
                if trial:
                    continue  # field eliminations are slow; check one subset
                for p, field in fields.items():
                    spans_p = sympy_rank(selected, p) == cycle_rank[p]
                    assert generation_check(replace(c, domain=field), rows) == spans_p
        assert spanning_subsets >= 3


class TestWeinbaumScan:
    def test_trefoil_fully_certified_at_z12(self):
        p = parse_presentation("gens: a, b\nrels: a^2*b^-3")
        q = twelve_cycle_quotient(p, 3, 2)
        scan = weinbaum_scan(p.relators[0], q)
        assert scan and all(s.status == "NontrivialCertified" for s in scan)
        assert len(scan) == 16  # 20 rotation subwords, deduplicated

    def test_trivial_quotient_everything_unknown(self):
        p = parse_presentation("gens: a, b\nrels: a^2*b^-3")
        scan = weinbaum_scan(p.relators[0], QuotientMap.trivial(p))
        assert scan and all(s.status == "Unknown" for s in scan)

    def test_subword_equal_to_relator_stays_unknown(self):
        # w = u^2 with u a relator: u is a proper subword of w lying in the
        # normal closure, so no quotient killing the relators certifies it
        p = Presentation(["a", "b"],
                         [parse_presentation("gens: a, b\nrels: a*b").relators[0],
                          (parse_presentation("gens: a, b\nrels: (a*b)^2").relators[0])])
        q = twelve_cycle_quotient(p, 1, 11)
        scan = weinbaum_scan(p.relators[1], q)
        by_word = {s.subword.render(p.names): s.status for s in scan}
        assert by_word["a*b"] == "Unknown"

    def test_cyclic_enumeration(self):
        p = Presentation(["a", "b"], [Word([(0, 1), (0, 1), (1, -1)])])
        subs = [s.subword.letters for s in weinbaum_scan(p.relators[0], QuotientMap.trivial(p))]
        # brute force: all contiguous runs of all rotations, lengths 1..2
        doubled = p.relators[0].letters * 2
        expect = {doubled[s:s + k] for s in range(3) for k in (1, 2)}
        assert set(subs) == expect
        assert len(subs) == 5  # six pre-dedup, one duplicate single 'a'

    def test_cyclic_count_multiset(self, rng):
        for _ in range(50):
            word = random_reduced_word(rng, 3, rng.randrange(2, 9))
            if not word.is_cyclically_reduced():
                continue
            n = len(word)
            doubled = word.letters * 2
            multiset = [doubled[s:s + k] for s in range(n) for k in range(1, n)]
            assert len(multiset) == n * (n - 1)
            p = Presentation(["a", "b", "c"], [word])
            scan = weinbaum_scan(word, QuotientMap.trivial(p))
            assert [s.subword.letters for s in scan] == list(dict.fromkeys(multiset))

    def test_relator_past_the_cap_is_refused(self):
        p = Presentation(["a", "b"], [Word([(0, 1), (1, 1)] * 33)])
        with pytest.raises(UnsupportedError, match="at most 64 letters"):
            weinbaum_scan(p.relators[0], QuotientMap.trivial(p))
        at_cap = Presentation(["a", "b"], [Word([(0, 1), (1, 1)] * 32)])
        assert len(weinbaum_scan(at_cap.relators[0], QuotientMap.trivial(at_cap))) == 126

    def test_repeats_and_identity_images(self):
        p = parse_presentation("gens: a, b\nrels: a^2*b^3*a^-2*b^3\n"
                               "quotient: a -> (1 2), b -> (1 2 3)")
        q = QuotientMap.permutation(p)
        scan = weinbaum_scan(p.relators[0], q)
        assert _scan_rows(scan) == reference_weinbaum_scan(p.relators[0], q)
        assert {s.status for s in scan} == {"Unknown", "NontrivialCertified"}
        assert len(scan) < 10 * 9     # deduplicated

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_one_walk_per_start_matches_one_walk_per_subword(self, data):
        rank = data.draw(st.integers(1, 3))
        degree = data.draw(st.integers(1, 4))
        images = {i: tuple(data.draw(st.permutations(range(degree)))) for i in range(rank)}
        letters = st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1)))
        w, _ = cyclic_reduce(Word(data.draw(st.lists(letters, min_size=1, max_size=8))))
        free = QuotientMap.permutation(Presentation(["a", "b", "c"][:rank], []), images)
        image, power = free.apply(w), 1
        while image != free.oracle.identity():
            image, power = free.oracle.multiply(image, free.apply(w)), power + 1
        # a power repeats its subwords; small degrees map many of them to 1
        p = Presentation(["a", "b", "c"][:rank], [w ** power])
        q = QuotientMap.permutation(p, images)
        assert _scan_rows(weinbaum_scan(p.relators[0], q)) == \
            reference_weinbaum_scan(p.relators[0], q)


def _scan_rows(scan):
    return [(s.subword.letters, s.status, s.image) for s in scan]


def reference_weinbaum_scan(w, q):
    """The scan as it was: the cyclic enumeration of ``proper_subwords``, then
    one walk over each subword's letters, inverting the image of each inverse
    letter on the way."""
    ls = w.letters
    n = len(ls)
    doubled = ls + ls
    seen, subwords = set(), []
    for start in range(n):
        for length in range(1, n):
            sub = doubled[start:start + length]
            if sub not in seen:
                seen.add(sub)
                subwords.append(sub)
    oracle = q.oracle
    rows = []
    for sub in subwords:
        image = oracle.identity()
        for i, s in sub:
            image = oracle.multiply(image, q.images[i] if s > 0
                                    else oracle.invert(q.images[i]))
        status = "Unknown" if image == oracle.identity() else "NontrivialCertified"
        rows.append((sub, status, oracle.render(image)))
    return rows
