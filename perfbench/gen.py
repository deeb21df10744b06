"""Seeded job lists for the three benchmark workloads.

``build(workload, seed)`` returns the jobs of one pass and the input files they
read.  A job is an argv for ``onerel.cli.main`` (always with ``--json``), the
exit status and facts its output check needs, and the cost-driving properties
the input profile counts.  The same seed gives byte-identical job lists
(``Plan.text``); nothing here imports onerel.

The cost structure of a pass is fixed by the slot tables below; the seed
draws the concrete images, exponents, words, coefficients and graphs inside
each slot.  That keeps one pass's cost close across seeds, so runs with
different seeds can be compared.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field

from . import groups

WORK_DIR = "perfbench/.work"
WORKLOADS = ("cover-z", "cover-field", "symbolic")
NAMES = "abcdefghijkl"

# Finite quotients: group, orders of the images of a and b, relator family.
# Torus-knot relators a^p*b^-q and triangle relators a^p ; b^q ; (a*b)^r are
# killed by construction: each exponent is the order of the image.
COVER_SLOTS = (
    ("A4", (2, 3), "torus"), ("C12", (3, 4), "torus"), ("D6", (2, 2), "torus"),
    ("D6", (2, 2), "triangle"), ("A4", (3, 3), "triangle"),
    *[("S4", (2, 4), "torus"), ("C24", (3, 8), "torus")] * 2,
    *[("S4", (2, 3), "triangle"), ("D12", (2, 2), "triangle")] * 6,
    ("A5", (2, 5), "torus"), ("A5", (2, 3), "triangle"), ("D30", (2, 2), "triangle"),
    *[("D60", (2, 2), "torus")] * 4,
)
# The twelve order-24 triangle covers are the middle of a pass's latency
# distribution, so job_p50_ms is a median inside that band; the four order-120
# covers are its top, so job_tail_ms stays among them whenever a run makes
# three passes or more.
# A pass visits the slots in golden-ratio order, which spreads every block of
# like slots evenly over the pass: the order-24 band is then sampled across
# the whole run rather than in one short burst per pass, so job_p50_ms does
# not hang on how fast the machine happened to be during that burst.
COVER_ORDER = sorted(range(len(COVER_SLOTS)), key=lambda k: k * 0.6180339887 % 1)
Q_COVER_MAX_ORDER = 24       # complex over Q on every cover up to this order
Q_TORUS_MAX_ORDER = 60       # and on torus-knot covers up to this order
Q_ENGULF_MAX_ORDER = 24      # engulf over Q up to this order, F_p above
ENGULF_SUPPORT = (2, 3, 4)   # support size, cycled over the cover slots
PRIMES = (2, 3, 5, 7)        # F_p fields, cycled over the cover slots


@dataclass
class Job:
    argv: list
    expect: dict
    profile: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    seed: int
    jobs: list
    files: dict              # path relative to the checkout root -> text

    def text(self):
        """Canonical serialisation; equal seeds give equal bytes."""
        return json.dumps({"workload": self.workload, "seed": self.seed,
                           "jobs": [asdict(j) for j in self.jobs],
                           "files": self.files}, sort_keys=True)


def build(workload, seed):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    plan = Plan(workload, seed, [], {})
    folder = f"{WORK_DIR}/{workload}-{seed}"
    if workload == "symbolic":
        _symbolic(rng, plan, folder)
    else:
        covers = [_draw_cover(random.Random(f"cover:{seed}:{k}"), slot)
                  for k, slot in enumerate(COVER_SLOTS)]
        for k, cover in enumerate(covers):
            plan.files[f"{folder}/cover{k:02d}.grp"] = cover.pop("text")
        if workload == "cover-z":
            _cover_z(plan, folder, covers)
        else:
            _cover_field(rng, plan, folder, covers)
    return plan


# -- covers -------------------------------------------------------------------


def _draw_cover(rng, slot):
    """One seeded presentation with a permutation quotient killing it."""
    name, want, family = slot
    x, y, order = groups.generating_pair(rng, name, want)
    p, q = want
    if family == "torus":
        rels_text = f"a^{p}*b^-{q}"
        relators = [[(0, 1)] * p + [(1, -1)] * q]
    else:
        r = groups.order(groups.mul(x, y))
        rels_text = f"a^{p} ; b^{q} ; (a*b)^{r}"
        relators = [[(0, 1)] * p, [(1, 1)] * q, [(0, 1), (1, 1)] * r]
    text = (f"gens: a, b\nrels: {rels_text}\n"
            f"quotient: a -> {groups.cycle_text(x)}, b -> {groups.cycle_text(y)}\n")
    return {"text": text, "group": name, "family": family, "order": order,
            "degree": len(x), "images": [list(x), list(y)], "relators": relators,
            "relator_lengths": [len(r) for r in relators]}


def _cover_profile(cover, field_name):
    return {"order": cover["order"], "group": cover["group"],
            "family": cover["family"], "relators": len(cover["relators"]),
            "relator_length": max(cover["relator_lengths"]), "field": field_name,
            "d2_shape": f"{len(cover['relators']) * cover['order']}x{2 * cover['order']}"}


def _complex_job(folder, k, cover, ring):
    return Job(argv=["complex", "--file", f"{folder}/cover{k:02d}.grp",
                     "--ring", ring, "--json"],
               expect={"status": 0, "check": "complex", "ring": ring,
                       "cover": {key: cover[key] for key in
                                 ("order", "degree", "images", "relators")}},
               profile=_cover_profile(cover, ring))


def _cover_z(plan, folder, covers):
    for k in COVER_ORDER:
        cover = covers[k]
        plan.jobs.append(_complex_job(folder, k, cover, "Z"))


def _cover_field(rng, plan, folder, covers):
    for k in COVER_ORDER:
        cover = covers[k]
        rings = [str(PRIMES[k % 2])]
        if cover["order"] <= Q_COVER_MAX_ORDER or (
                cover["family"] == "torus" and cover["order"] <= Q_TORUS_MAX_ORDER):
            rings.insert(0, "Q")
        for ring in rings:
            plan.jobs.append(_complex_job(folder, k, cover, ring))
        plan.jobs.append(_engulf_job(rng, folder, k, cover,
                                     ENGULF_SUPPORT[k % len(ENGULF_SUPPORT)]))


def _random_word(rng, rank, length):
    """Freely reduced word as (generator, sign) letters."""
    letters = []
    while len(letters) < length:
        letter = (rng.randrange(rank), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return letters


def word_text(letters, names=NAMES):
    """Render letters in the onerel grammar (``1`` for the empty word)."""
    runs = []
    for i, s in letters:
        if runs and runs[-1][0] == i and (runs[-1][1] > 0) == (s > 0):
            runs[-1][1] += s
        else:
            runs.append([i, s])
    return "*".join(names[i] if e == 1 else f"{names[i]}^{e}"
                    for i, e in runs) or "1"


def word_image(letters, images):
    out = groups.identity(len(images[0]))
    for i, s in letters:
        out = groups.mul(out, images[i] if s > 0 else groups.inverse(images[i]))
    return out


def _engulf_job(rng, folder, k, cover, support):
    """Engulfing search on a small-support element of the quotient's ring."""
    images = [tuple(g) for g in cover["images"]]
    field_name = "Q" if cover["order"] <= Q_ENGULF_MAX_ORDER else str(
        PRIMES[k % len(PRIMES)])
    prime = None if field_name == "Q" else int(field_name)
    terms, seen = [], set()
    while len(terms) < support:
        letters = _random_word(rng, 2, rng.randint(0, 3))
        g = word_image(letters, images)
        if g in seen:
            continue
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        if prime and coeff % prime == 0:
            continue
        seen.add(g)
        terms.append((letters, g, coeff))
    side = rng.choice(("left", "right"))
    argv = ["engulf", "--file", f"{folder}/cover{k:02d}.grp", "--terms",
            ";".join(f"{word_text(w)}:{c}" for w, _, c in terms),
            "--field", field_name, "--side", side, "--json"]
    return Job(argv=argv,
               expect={"status": 0, "check": "engulf", "field": field_name,
                       "side": side, "degree": cover["degree"],
                       "images": cover["images"],
                       "element": [[list(g), c] for _, g, c in terms]},
               profile={"order": cover["order"], "group": cover["group"],
                        "field": field_name, "support": support})


# -- symbolic -----------------------------------------------------------------


def _cyclically_reduced(letters):
    return not letters or letters[0] != (letters[-1][0], -letters[-1][1])


def _reduce(letters):
    out = []
    for letter in letters:
        if out and out[-1] == (letter[0], -letter[1]):
            out.pop()
        else:
            out.append(letter)
    while len(out) > 1 and not _cyclically_reduced(out):
        out = out[1:-1]
    return out


def _hierarchy_relator(rng, rank, length, balanced):
    """Cyclically reduced relator using every generator; with ``balanced``
    the exponent sum of ``a`` is zero, so the HNN steps go deep."""
    while True:
        letters = _random_word(rng, rank, length)
        if not _cyclically_reduced(letters):
            continue
        if balanced and sum(s for i, s in letters if i == 0):
            continue
        if len({i for i, _ in letters}) == rank:
            return letters


def _killed_relator(rng, support, length, weights):
    """Cyclically reduced word on exactly the generators ``support``, killed
    by ``gen -> weights[gen]``.

    All-zero weights ask for zero exponent sums (the abelianisation);
    otherwise a power of the first support generator of weight +-1 closes
    the word.
    """
    while True:
        letters = [(support[i], s) for i, s in _random_word(rng, len(support), length)]
        if any(weights):
            total = sum(s * weights[g] for g, s in letters)
            closer = next(g for g in support if abs(weights[g]) == 1)
            sign = -1 if total * weights[closer] > 0 else 1
            letters += [(closer, sign)] * abs(total)
        else:
            rest = [(g, -s) for g, s in letters]
            rng.shuffle(rest)
            letters += rest
        letters = _reduce(letters)
        if {g for g, _ in letters} == set(support):
            return letters


def _presentation_text(rank, relators, quotient=None):
    text = (f"gens: {', '.join(NAMES[:rank])}\n"
            f"rels: {' ; '.join(word_text(r) for r in relators)}\n")
    if quotient:
        text += "quotient: " + ", ".join(
            f"{NAMES[i]} -> {groups.cycle_text(g)}" for i, g in enumerate(quotient)) + "\n"
    return text


# Jobs of each kind in a symbolic pass (before refusals).
SYMBOLIC_MIX = (("hierarchy", 60), ("jacobian", 40), ("trapezoid", 40),
                ("fox", 40), ("weinbaum", 20), ("lift", 30), ("upcheck", 30),
                ("seqcheck", 30), ("verify-example", 10))
WEINBAUM_QUOTIENTS = (("A4", (2, 3)), ("S4", (2, 4)), ("D6", (2, 2)), ("C12", (3, 4)))
# Ranks of the shared Jacobian presentations; each has rank - (k % 3) relators.
SHARED_RANKS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12)


def _symbolic(rng, plan, folder):
    # Jacobian presentations are reused by jacobian, trapezoid and fox jobs so
    # that the derivative cache sees repeated relators.
    # Their shapes, supports and weights come from a fixed layout, the same
    # for every seed, so the Jacobian zero patterns (which set the staircase
    # search cost) do not move with the seed; the seed draws the letters.
    layout = random.Random("symbolic-layout")
    shared = []
    for k, rank in enumerate(SHARED_RANKS):
        to_abelian = k % 2 == 1
        weights = [0] * rank
        if to_abelian:
            weights = [1] + [layout.choice((1, -1, 2, 0)) for _ in range(rank - 1)]
        relators = []
        for _ in range(max(1, rank - k % 3)):
            support = layout.sample(range(rank), layout.randint(2, min(rank, 5)))
            if to_abelian and all(abs(weights[g]) != 1 for g in support):
                support.append(0)
            length = max(len(support), layout.randint(3, 8))
            relators.append(_killed_relator(rng, sorted(support), length, weights))
        path = f"{folder}/jac{k:02d}.grp"
        plan.files[path] = _presentation_text(rank, relators)
        flag = (["--to-abelian", ",".join(f"{NAMES[i]}={w}" for i, w in enumerate(weights))]
                if to_abelian else ["--abelianize"])
        shared.append({"path": path, "rank": rank, "relators": relators,
                       "flag": flag, "weights": weights if to_abelian else None})

    makers = {
        "hierarchy": _hierarchy_job, "jacobian": _jacobian_job,
        "trapezoid": _trapezoid_job, "fox": _fox_job, "weinbaum": _weinbaum_job,
        "lift": _lift_job, "upcheck": _upcheck_job, "seqcheck": _seqcheck_job,
        "verify-example": _verify_job,
    }
    for kind, count in SYMBOLIC_MIX:
        for i in range(count):
            plan.jobs.append(makers[kind](rng, plan, f"{folder}/{kind}{i:02d}", i, shared))
    plan.jobs += refusal_jobs(folder, shared)
    rng.shuffle(plan.jobs)
    plan.files[f"{folder}/refuse2rel.grp"] = "gens: a, b\nrels: a^2 ; b^3\n"
    plan.files[f"{folder}/refusenokill.grp"] = (
        "gens: a, b\nrels: a^2*b^-3\nquotient: a -> (1 2 3), b -> (1 2)\n")
    plan.files[f"{folder}/quot.grp"] = (
        "gens: a, b\nrels: a^2*b^-3\nquotient: a -> (1 2), b -> (1 2 3)\n")
    plan.files[f"{folder}/cyc.graph"] = "u v e1\nv w e2\nw u e3\n"


def _hierarchy_job(rng, plan, stem, i, shared):
    count = dict(SYMBOLIC_MIX)["hierarchy"]
    rank = 3 if i % 3 == 2 else 2
    length = 10 + 70 * i // (count - 1)
    letters = _hierarchy_relator(rng, rank, length, balanced=i % 4 != 3)
    plan.files[f"{stem}.grp"] = _presentation_text(rank, [letters])
    return Job(argv=["hierarchy", "--file", f"{stem}.grp", "--json"],
               expect={"status": 0, "check": "hierarchy",
                       "relator": word_text(letters)},
               profile={"relators": 1, "relator_length": len(letters),
                        "a_exponent_sum": sum(s for g, s in letters if g == 0)})


def _jac_profile(pres):
    return {"relators": len(pres["relators"]),
            "relator_length": max(len(r) for r in pres["relators"]),
            "jacobian_shape": f"{len(pres['relators'])}x{pres['rank']}"}


def _jacobian_job(rng, plan, stem, i, shared):
    pres = shared[i % len(shared)]
    return Job(argv=["jacobian", "--file", pres["path"], *pres["flag"], "--json"],
               expect={"status": 0, "check": "jacobian", "rank": pres["rank"],
                       "relators": pres["relators"], "weights": pres["weights"]},
               profile=_jac_profile(pres))


def _trapezoid_job(rng, plan, stem, i, shared):
    pres = shared[i % len(shared)]
    row_fixed = i % 3 == 2
    argv = ["trapezoid", "--file", pres["path"], *pres["flag"],
            *(["--row-fixed"] if row_fixed else []),
            "--certify", "orderedOracle", "--json"]
    return Job(argv=argv,
               expect={"status": 0, "check": "trapezoid", "rank": pres["rank"],
                       "relators": pres["relators"], "weights": pres["weights"],
                       "row_fixed": row_fixed},
               profile=_jac_profile(pres))


def _fox_job(rng, plan, stem, i, shared):
    pres = shared[i % len(shared)]
    if i % 2 == 0:
        letters = rng.choice(pres["relators"])
    else:
        letters = _random_word(rng, pres["rank"], 3 + i % 28)
    gen = NAMES[rng.randrange(pres["rank"])]
    return Job(argv=["fox", "--file", pres["path"], "--word", word_text(letters),
                     "--gen", gen, "--json"],
               expect={"status": 0, "check": "fox", "letters": letters, "gen": gen},
               profile={"relator_length": len(letters)})


def _weinbaum_job(rng, plan, stem, i, shared):
    """Relators w^k, k the order of w's image, of length 12..24."""
    name, orders = WEINBAUM_QUOTIENTS[i % len(WEINBAUM_QUOTIENTS)]
    x, y, order = groups.generating_pair(rng, name, orders)
    images = [x, y]
    relators = []
    while len(relators) < 1 + i % 3:
        w = _random_word(rng, 2, rng.randint(2, 6))
        power = groups.order(word_image(w, images))
        if _cyclically_reduced(w) and 12 <= len(w) * power <= 24:
            relators.append(w * power)
    plan.files[f"{stem}.grp"] = _presentation_text(2, relators, quotient=images)
    index = (i // 3) % len(relators)
    return Job(argv=["weinbaum", "--file", f"{stem}.grp", "--relator", str(index),
                     "--json"],
               expect={"status": 0, "check": "weinbaum",
                       "images": [list(g) for g in images],
                       "relator": relators[index]},
               profile={"order": order, "relators": len(relators),
                        "relator_length": len(relators[index])})


def _lift_job(rng, plan, stem, i, shared):
    """Multigraph around an embedded cycle; a unit times the cycle is the chain."""
    nv = 4 + i % 9
    cycle_len = rng.randint(2, nv)
    cycle_vertices = rng.sample(range(nv), cycle_len)
    edges, chain = [], []
    for k in range(cycle_len):
        u, v = cycle_vertices[k], cycle_vertices[(k + 1) % cycle_len]
        forward = rng.random() < 0.5
        edges.append((u, v) if forward else (v, u))
        chain.append(1 if forward else -1)
    for _ in range(nv + i % 5):
        edges.append((rng.randrange(nv), rng.randrange(nv)))
    order = list(range(len(edges)))
    rng.shuffle(order)
    labels = {e: f"e{pos + 1}" for pos, e in enumerate(order)}
    plan.files[f"{stem}.graph"] = "".join(
        f"v{edges[e][0]} v{edges[e][1]} {labels[e]}\n" for e in order)
    unit = rng.choice((1, -1))
    ring = ("Z", "Z", "Q", "5")[i % 4]
    h = [labels[e] for e in rng.sample(range(cycle_len), rng.randint(1, min(2, cycle_len)))]
    cycle = ",".join(f"{labels[e]}:{unit * chain[e]}" for e in range(cycle_len))
    return Job(argv=["lift", "--graph", f"{stem}.graph", "--h-edges", ",".join(h),
                     "--cycle", cycle, "--ring", ring, "--json"],
               expect={"status": 0, "check": "lift", "ring": ring, "h": h,
                       "edges": {labels[e]: [f"v{edges[e][0]}", f"v{edges[e][1]}"]
                                 for e in order}},
               profile={"graph_edges": len(edges), "graph_vertices": nv,
                        "field": ring})


def _upcheck_job(rng, plan, stem, i, shared):
    spec = ("z", "z2", "mod:7", "mod:12", "free:a+b")[i % 5]
    size_a, size_b = rng.randint(2, 6), rng.randint(2, 6)

    def element():
        if spec == "z":
            return str(rng.randint(-9, 9))
        if spec == "z2":
            return f"{rng.randint(-4, 4)}:{rng.randint(-4, 4)}"
        if spec.startswith("mod:"):
            return str(rng.randrange(int(spec[4:])))
        return word_text(_random_word(rng, 2, rng.randint(0, 4)))

    def distinct(size):
        out = []
        while len(out) < size:
            e = element()
            if e not in out:
                out.append(e)
        return out

    A, B = distinct(size_a), distinct(size_b)
    side = ("plain", "left", "right")[i % 3]
    k = rng.randint(1, min(size_a, size_b))
    # "--A=..." keeps a leading minus sign from reading as an option
    return Job(argv=["upcheck", "--oracle", spec, f"--A={','.join(A)}",
                     f"--B={','.join(B)}", "--k", str(k), "--side", side, "--json"],
               expect={"status": 0, "check": "upcheck", "oracle": spec, "A": A,
                       "B": B, "k": k, "side": side},
               profile={"set_sizes": f"{size_a}x{size_b}"})


def _seqcheck_job(rng, plan, stem, i, shared):
    """Valid coprime-pair sequence: odd length, zero ends, steps b, a, b, ..."""
    while True:
        a, b = sorted(rng.sample(range(1, 10), 2))
        if math.gcd(a, b) == 1:
            break
    m = 1 + i % 5
    values = [0]
    for k in range(2 * m - 2):
        values.append(values[-1] + (b if k % 2 == 0 else a) * rng.randint(0, 2))
    # the value before the closing 0 is divisible by a and congruent to its
    # predecessor mod b
    last = next(v for v in range(values[-1] % b, a * b + b, b) if v % a == 0)
    values += [last + a * b * rng.randint(0, 2), 0]
    return Job(argv=["seqcheck", "--a", str(a), "--b", str(b),
                     "--seq", ",".join(map(str, values)), "--json"],
               expect={"status": 0, "check": "seqcheck", "a": a, "b": b,
                       "values": values},
               profile={"sequence_length": len(values)})


def _verify_job(rng, plan, stem, i, shared):
    n = 1 + i % 6
    return Job(argv=["verify-example", "--n", str(n), "--json"],
               expect={"status": 0, "check": "verify-example", "n": n},
               profile={"n": n})


def refusal_jobs(folder, shared):
    """Inputs the CLI must refuse with exit status 1 and a JSON error."""
    jac = shared[0]["path"]
    argvs = [
        ["hierarchy", "--file", f"{folder}/refuse2rel.grp"],
        ["complex", "--file", f"{folder}/refusenokill.grp"],
        ["fox", "--file", jac, "--word", "a*z", "--gen", "a"],
        ["upcheck", "--oracle", "zz", "--A", "1", "--B", "2"],
        ["seqcheck", "--a", "2", "--b", "4", "--seq", "0,4,0"],
        ["engulf", "--cyclic", "5", "--coeffs", "1,1", "--field", "4"],
        ["trapezoid", "--file", jac, "--abelianize", "--cap", "1"],
        ["hierarchy", "--file", f"{folder}/missing.grp"],
        # Refusals that escape as a traceback in the seed program.
        ["jacobian", "--file", jac, "--to-abelian", "a3,b=2"],
        ["jacobian", "--file", jac, "--to-abelian", "a=x"],
        ["weinbaum", "--file", f"{folder}/quot.grp", "--relator", "5"],
        ["engulf", "--cyclic", "0", "--coeffs", "1,1"],
        ["engulf", "--cyclic", "5", "--coeffs", "1,x"],
        ["lift", "--graph", f"{folder}/cyc.graph", "--h-edges", "e1", "--cycle", "e1"],
        ["seqcheck", "--a", "2", "--b", "3", "--seq", "0,x"],
    ]
    return [Job(argv=argv + ["--json"], expect={"status": 1, "check": "refusal"},
                profile={"refusal": argv[0]}) for argv in argvs]
