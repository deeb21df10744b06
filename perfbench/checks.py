"""Independent output checks, run after the timed loop.

Each check re-derives what it can without onerel: cover homology from the
reference complex and sympy, engulfing witnesses by re-multiplication,
staircases from a freshly computed Jacobian zero pattern, and so on.
``check(job, outcome)`` returns ``"ok"``, ``"escape"`` (a refusal that ended
in a traceback instead of a JSON error) or ``"failed: <reason>"``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from . import covers_ref, groups
from .gen import NAMES, word_image, word_text

_SIGNED_PIECE = re.compile(r" ([+-]) ")


class CheckFailure(Exception):
    pass


def _require(cond, reason):
    if not cond:
        raise CheckFailure(reason)


class Checker:
    """Caches reference results so that repeated covers are derived once."""

    def __init__(self):
        self._homology = {}

    def check(self, job, outcome):
        status, out, err = outcome
        expect = job.expect
        if expect["status"] == 1 and status == "raised":
            return "escape"
        try:
            _require(status == expect["status"],
                     f"exit status {status}, expected {expect['status']}")
            report = json.loads(out if status == 0 else err)
            _require(report.get("schema") == 1, "schema is not 1")
            _require(report.get("command") == job.argv[0], "wrong command echoed")
            if status != 0:
                _require("error" in report and "results" not in report,
                         "refusal without a JSON error")
                return "ok"
            getattr(self, "_" + expect["check"].replace("-", "_"))(
                expect, report["results"])
        except CheckFailure as exc:
            return f"failed: {exc}"
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"failed: malformed output ({type(exc).__name__}: {exc})"
        return "ok"

    # -- covers ------------------------------------------------------------

    def reference(self, cover):
        key = json.dumps([cover["images"], cover["relators"]])
        if key not in self._homology:
            self._homology[key] = covers_ref.integral_homology(
                [[tuple(x) for x in r] for r in cover["relators"]],
                [tuple(g) for g in cover["images"]])
        return self._homology[key]

    def _complex(self, expect, res):
        cover = expect["cover"]
        ref = self.reference(cover)
        order = cover["order"]
        _require(res["group_order"] == order, "wrong group order")
        _require(res["degree"] == cover["degree"], "wrong degree")
        _require(res["transitive"] is True, "quotient reported intransitive")
        _require(res["composite_zero"] is True, "d2 * d1 reported nonzero")
        _require(res["shape"] == {"d2_rows": ref["d2_rows"], "edges": ref["edges"],
                                  "vertices": order}, "wrong complex shape")
        h = res["homology"]
        _require(h["h0_free_rank"] == 1 and h["h0_torsion"] == [], "wrong H0")
        ring = expect["ring"]
        if ring == "Z":
            _require(h["h1_free_rank"] == ref["b1"], "wrong H1 free rank")
            _require(h["h1_torsion"] == ref["torsion"], "wrong H1 torsion")
            trivial = ref["b1"] == 0 and not ref["torsion"]
        else:
            # universal coefficients: H0 is free, so only Tor(H0) is absent
            p = 0 if ring == "Q" else int(ring)
            dim = ref["b1"] + sum(1 for t in ref["torsion"] if p and t % p == 0)
            _require(h["h1_free_rank"] == dim and h["h1_torsion"] == [],
                     f"H1 over {ring} disagrees with the integral homology")
            trivial = dim == 0
        _require(res["generation_full_rows"] == trivial,
                 "generation check disagrees with H1")

    # -- engulfing -----------------------------------------------------------

    def _engulf(self, expect, res):
        field = expect["field"]
        p = None if field == "Q" else int(field)
        degree = expect["degree"]

        def norm(c):
            return Fraction(c) if p is None else Fraction(int(c) % p)

        m = {tuple(g): norm(c) for g, c in expect["element"]}
        _require(parse_element(res["element"], degree, p) == m,
                 "element differs from the input terms")
        images = [tuple(g) for g in expect["images"]]
        dim = _engulf_kernel_dimension(m, images, expect["side"], p)
        _require(res["kernel_dimension"] == dim, "wrong solution space dimension")
        if res["status"] == "none":
            _require(dim == 1 and res["witness"] is None,
                     "no witness reported but the solution space is not scalar")
            return
        _require(res["status"] == "witness" and dim > 1, "unknown engulf status")
        r = parse_element(res["witness"], degree, p)
        e = groups.identity(degree)
        _require(r and set(r) != {e}, "witness is a scalar")
        product = {}
        for g, a in r.items():
            for h, b in m.items():
                key = groups.mul(g, h) if expect["side"] == "left" else groups.mul(h, g)
                product[key] = product.get(key, 0) + a * b
        if p is not None:
            product = {k: v % p for k, v in product.items()}
        support = {k for k, v in product.items() if v}
        _require(support <= set(m), "witness product leaves the support")

    # -- symbolic ------------------------------------------------------------

    def _jacobian(self, expect, res):
        pattern = abelian_pattern(expect)
        _require([[e != "0" for e in row] for row in res["rows"]] == pattern,
                 "Jacobian zero pattern differs")
        _require(res["composite_zero"] is True, "composite reported nonzero")
        _require(res["quotient_kind"] == "abelian", "wrong quotient kind")

    def _trapezoid(self, expect, res):
        pattern = abelian_pattern(expect)
        m, n = len(pattern), expect["rank"]
        stair = res["staircase"]
        if stair is None:
            _require(not staircase_exists(pattern, n, expect["row_fixed"]),
                     "staircase reported impossible but one exists")
            return
        rows, cols, diag = stair["rows"], stair["cols"], stair["diag"]
        _require(sorted(rows) == list(range(m)) and sorted(cols) == list(range(n)),
                 "orders are not permutations")
        if expect["row_fixed"]:
            _require(rows == list(range(m)), "row-fixed certificate moved rows")
        last = -1
        for pos, r in enumerate(rows):
            j = max((k for k in range(n) if pattern[r][cols[k]]), default=None)
            _require(j is not None and j == diag[pos] and j > last,
                     "certificate is not a staircase of the Jacobian pattern")
            last = j
        cert = res["diagonal"]
        _require(len(cert) == m and all(c["status"] == "certified_by_order"
                                        and c["witness"] is None for c in cert),
                 "diagonal not certified by the order")
        _require(res["all_non_engulfing"] is True, "diagonal reported engulfing")

    def _hierarchy(self, expect, res):
        root = res["tree"]["presentation"]
        _require(root["rels"] == [expect["relator"]], "root relator differs")
        _require(set(res["leaves"]) <= {"free", "cyclic"},
                 f"hierarchy left untamed leaves {res['leaves']}")

    def _fox(self, expect, res):
        letters = [tuple(x) for x in expect["letters"]]
        _require(res["word"] == word_text(letters), "word echoed wrongly")
        _require(res["derivative"] == fox_text(letters, expect["gen"]),
                 "wrong Fox derivative")

    def _weinbaum(self, expect, res):
        images = [tuple(g) for g in expect["images"]]
        letters = [tuple(x) for x in expect["relator"]]
        n = len(letters)
        doubled = letters + letters
        subwords = {tuple(doubled[s:s + k]) for s in range(n) for k in range(1, n)}
        _require(res["total"] == len(subwords) == len(res["subwords"]),
                 "wrong number of proper cyclic subwords")
        e = groups.identity(len(images[0]))
        certified = 0
        for item in res["subwords"]:
            g = word_image(parse_word(item["subword"]), images)
            _require(item["image"] == groups.cycle_text(g), "wrong subword image")
            want = "Unknown" if g == e else "NontrivialCertified"
            _require(item["status"] == want, "wrong subword status")
            certified += want != "Unknown"
        _require(res["certified"] == certified, "wrong certified count")

    def _lift(self, expect, res):
        if not res["applicable"]:
            _require(bool(res["reason"]), "not-applicable without a reason")
            return
        _require(res["verified"] is True, "lift not re-verified")
        if expect["ring"] == "Z":
            _require(res["unit"] in ("1", "-1"), "unit is not a unit of Z")
        edges = expect["edges"]
        walk = res["cycle"]
        starts, ends = [], []
        for label, sign in walk:
            tail, head = edges[label]
            starts.append(tail if sign > 0 else head)
            ends.append(head if sign > 0 else tail)
        _require(walk and all(ends[k] == starts[(k + 1) % len(walk)]
                              for k in range(len(walk))), "cycle walk is not closed")
        _require(len(set(starts)) == len(starts), "cycle is not embedded")
        _require(any(label in expect["h"] for label, _ in walk),
                 "cycle misses the designated edges")

    def _upcheck(self, expect, res):
        mul, parse = _upcheck_group(expect["oracle"])
        A = [parse(s) for s in expect["A"]]
        B = [parse(s) for s in expect["B"]]
        reps = {}
        for a in A:
            for b in B:
                reps.setdefault(mul(a, b), []).append((a, b))
        unique = [pairs[0] for pairs in reps.values() if len(pairs) == 1]
        side = expect["side"]
        distinct = (len({a for a, _ in unique}) if side == "left" else
                    len({b for _, b in unique}) if side == "right" else len(unique))
        _require(res["product_count"] == len(reps), "wrong product count")
        _require(res["unique_count"] == len(unique), "wrong unique count")
        _require(res["distinct_factor_count"] == distinct, "wrong distinct count")
        _require(res["verdict"] == (distinct >= expect["k"]), "wrong verdict")

    def _seqcheck(self, expect, res):
        a, b, v = expect["a"], expect["b"], expect["values"]
        total = sum(v[2 * i] - v[2 * i + 1] for i in range((len(v) - 1) // 2))
        large = next((i for i, x in enumerate(v) if x >= a + b - 1), None)
        kind = ("SumZero" if total == 0 else
                "LargeEntry" if large is not None else "CounterexampleToLemma")
        _require(res["verdict"] == kind, "wrong verdict")
        _require(res["sum"] == total, "wrong sum")
        if kind == "LargeEntry":
            _require(res["index"] == large, "wrong large-entry index")

    def _verify_example(self, expect, res):
        n = expect["n"]
        _require(res["n"] == n and res["exponent"] == n * ((n + 1) ** n - 1),
                 "wrong exponent")
        _require(res["verdict"] is True, "identity not verified")


# -- helpers ------------------------------------------------------------------


def parse_word(text, names=NAMES):
    """Letters of a rendered word such as ``a^2*b^-1`` (``1`` is empty)."""
    letters = []
    if text == "1":
        return letters
    for part in text.split("*"):
        name, _, exp = part.partition("^")
        e = int(exp) if exp else 1
        letters += [(names.index(name), 1 if e > 0 else -1)] * abs(e)
    return letters


def parse_permutation(text, degree):
    cycles = re.findall(r"\(([^()]*)\)", text)
    _require("".join(f"({c})" for c in cycles) == text, f"bad permutation {text!r}")
    return groups.from_cycles(degree, *[[int(x) for x in c.split()] for c in cycles if c])


def parse_element(text, degree, p=None):
    """Rendered group-ring element over permutations -> {perm: coefficient}."""
    pieces = _SIGNED_PIECE.split(text)
    signed = [(1, pieces[0])] + [(1 if s == "+" else -1, t)
                                 for s, t in zip(pieces[1::2], pieces[2::2])]
    out = {}
    for sign, piece in signed:
        if piece.startswith("-"):
            sign, piece = -sign, piece[1:]
        coeff, star, perm = piece.partition("*")
        if not star:
            coeff, perm = "1", piece
        value = sign * Fraction(coeff)
        if p is not None:
            value = Fraction(int(value) % p)
        g = parse_permutation(perm, degree)
        _require(g not in out, "repeated group element in a rendered element")
        out[g] = value
    return out


def _engulf_kernel_dimension(m, images, side, p):
    """dim {r : supp(r*m) (left) or supp(m*r) (right) within supp(m)}, by sympy.

    ``m`` has integer coefficients, so its rank over Q or F_p is exact here.
    """
    from sympy import GF, QQ
    from sympy.polys.matrices import DomainMatrix

    elements = sorted(groups.closure(images))
    index = {g: k for k, g in enumerate(elements)}
    dom = QQ if p is None else GF(p)
    rows = []
    for z in elements:
        if z in m:
            continue
        row = [dom.zero] * len(elements)
        for h, c in m.items():
            hinv = groups.inverse(h)
            g = groups.mul(z, hinv) if side == "left" else groups.mul(hinv, z)
            row[index[g]] += dom(int(c))
        rows.append(row)
    if not rows:
        return len(elements)
    rank = DomainMatrix(rows, (len(rows), len(elements)), dom).rank()
    return len(elements) - rank


def abelian_pattern(expect):
    """Zero pattern of the Jacobian pushed into Z^k (or Z by weights)."""
    rank, weights = expect["rank"], expect["weights"]
    pattern = []
    for rel in expect["relators"]:
        row = []
        for gen in range(rank):
            prefix = [0] * rank
            terms = {}
            for i, s in rel:
                after = list(prefix)
                after[i] += s
                if i == gen:
                    key = tuple(prefix if s > 0 else after)
                    if weights is not None:
                        key = sum(x * w for x, w in zip(key, weights))
                    terms[key] = terms.get(key, 0) + (1 if s > 0 else -1)
                prefix = after
            row.append(any(terms.values()))
        pattern.append(row)
    return pattern


def staircase_exists(pattern, ncols, row_fixed):
    """Exact search over column subsets: can columns be ordered into a staircase?"""
    masks = [sum(1 << j for j, v in enumerate(row) if v) for row in pattern]
    nrows = len(masks)
    if any(mask == 0 for mask in masks) or nrows > ncols:
        return False
    full = (1 << ncols) - 1
    reachable = {0: 0}   # placed-column set -> rows finished so far
    for placed in range(full + 1):
        if placed not in reachable:
            continue
        done = reachable[placed]
        for col in range(ncols):
            bit = 1 << col
            if placed & bit:
                continue
            newly = [r for r in range(nrows)
                     if masks[r] & bit and masks[r] & ~(placed | bit) == 0]
            if len(newly) > 1 or (row_fixed and newly and newly[0] != done):
                continue
            reachable.setdefault(placed | bit, done + len(newly))
    return reachable.get(full) == nrows


def fox_text(letters, gen_name):
    """Fox derivative of a reduced word, rendered the way onerel renders it."""
    gen = NAMES.index(gen_name)
    terms = {}
    for k, (i, s) in enumerate(letters):
        if i == gen:
            prefix = tuple(letters[:k] if s > 0 else letters[:k + 1])
            terms[prefix] = terms.get(prefix, 0) + (1 if s > 0 else -1)
    terms = {w: c for w, c in terms.items() if c}
    if not terms:
        return "0"
    pieces = []
    for w in sorted(terms, key=lambda w: (len(w), w)):
        c, body = terms[w], word_text(list(w))
        pieces.append(str(c) if body == "1" else body if c == 1 else
                      f"-{body}" if c == -1 else f"{c}*{body}")
    out = pieces[0]
    for piece in pieces[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def _free_reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == (x[0], -x[1]):
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _upcheck_group(spec):
    if spec == "z":
        return (lambda a, b: a + b), int
    if spec == "z2":
        return (lambda a, b: (a[0] + b[0], a[1] + b[1])), \
            (lambda s: tuple(int(x) for x in s.split(":")))
    if spec.startswith("mod:"):
        n = int(spec[4:])
        return (lambda a, b: (a + b) % n), (lambda s: int(s) % n)
    return (lambda a, b: _free_reduce(a + b)), (lambda s: _free_reduce(parse_word(s)))
